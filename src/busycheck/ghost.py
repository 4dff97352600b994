"""Annotated executions: thread pools carrying ghost resources.

An annotated pool is a `semantics.ThreadPool` whose entries are
`AnnotatedThread`s, and an annotated trace is made of `semantics.TraceStep`s
labelled with the rules below.  Each thread carries exactly one obligations
chunk plus credits, two counts next to what it has left to run.  Ghost
steps spawn or cancel an obligation-credit pair and touch nothing else.
Real steps mirror the plain semantics but can get stuck (raise `Stuck`):
looping demands an empty chunk and a credit, and a thread may only terminate
without obligations.  `exit` clears the pool regardless.

`annotate` is the only annotated run, and implements the constructive
direction of the soundness argument: given a checked proof of
{obs(0)} c {obs(0)} and a plain trace, it inserts the proof's ghost moves and
fork splits to produce an annotated trace whose non-ghost steps project back
onto the plain trace step for step.  It checks this after every step against
an erased pool kept beside the annotated one with the same pool operations,
so a step costs no Python work per thread; after a loop step, which leaves
both pools the very objects last found equal, the check is two identity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .assertions import Assertion, Bottom, Flat

# Not called here: the proof's assertions are normal forms already.  The name
# stays importable from this module because perfbench/tracing.py wraps it.
from .assertions import normalize as normalize_assertion  # noqa: F401
from .lang import (
    Command,
    Continuation,
    Done,
    Exit,
    Fork,
    LoopSkip,
    same_command,
)
from .proofs import (
    ForkSplit,
    ProofTree,
    Rule,
    check_proof,
)
from . import semantics
from .semantics import (
    EMPTY_POOL,
    ST_FORK,
    ST_LOOP,
    TP_EXIT,
    TP_THREAD_TERM,
    TraceStep,
    StepLabel,
    ThreadPool,
)

GS_INTRO = "GS-Intro"
GS_CANCEL = "GS-Cancel"
RA_LOOP = "RA-Loop"
RA_FORK = "RA-Fork"
RA_EXIT = "RA-Exit"
RA_THREAD_TERM = "RA-ThreadTerm"

LOOP_NEEDS_CREDIT = "LoopNeedsCredit"
LOOP_HOLDS_OBLIGATION = "LoopHoldsObligation"
TERM_HOLDS_OBLIGATION = "TermHoldsObligation"


class CancelUnderflow(ValueError):
    pass


class SplitError(ValueError):
    pass


class AnnotationError(ValueError):
    pass


class Stuck(AnnotationError):
    """A real step's side condition fails; `reason` names it."""

    def __init__(self, reason: str):
        super().__init__(f"annotated run got stuck: {reason}")
        self.reason = reason


class AnnotatedThread(NamedTuple):
    """A thread's obligations chunk, its credits, and what it has left to run."""

    obligations: int
    credits: int
    cont: Continuation


@dataclass(frozen=True)
class AnnotatedTrace:
    initial: ThreadPool
    steps: tuple[TraceStep, ...]


def ghost_step(pool: ThreadPool, tid: int, kind: str) -> ThreadPool:
    """Spawn (GS-Intro) or cancel (GS-Cancel) an obligation-credit pair of one thread."""
    entry = pool.get(tid)
    value, credits = entry.obligations, entry.credits
    if kind == GS_INTRO:
        delta = 1
    elif kind == GS_CANCEL:
        if value < 1 or credits < 1:
            raise CancelUnderflow(f"thread {tid} holds ({value}|{credits}); nothing to cancel")
        delta = -1
    else:
        raise ValueError(f"not a ghost step kind: {kind!r}")
    return pool.replace(tid, AnnotatedThread(value + delta, credits + delta, entry.cont))


def real_step(
    pool: ThreadPool, tid: int, split: ForkSplit | None = None
) -> tuple[ThreadPool, StepLabel]:
    """Non-ghost step of thread `tid`; raises Stuck naming a violated side condition.

    Looping keeps the resources untouched (the credit is held, not consumed).
    Fork splits the resources conservatively per the supplied `split`;
    omitting it passes nothing to the child.
    """
    entry = pool.get(tid)
    value, credits, cont = entry.obligations, entry.credits, entry.cont
    if isinstance(cont, Done):
        if value > 0:
            raise Stuck(TERM_HOLDS_OBLIGATION)
        return pool.remove(tid), StepLabel(tid, RA_THREAD_TERM)
    head = cont.head
    if isinstance(head, LoopSkip):
        if value > 0:
            raise Stuck(LOOP_HOLDS_OBLIGATION)
        if credits < 1:
            raise Stuck(LOOP_NEEDS_CREDIT)
        return pool, StepLabel(tid, RA_LOOP)
    if isinstance(head, Exit):
        return EMPTY_POOL, StepLabel(tid, RA_EXIT)
    assert isinstance(head, Fork)
    split = split or ForkSplit(0, 0)
    if not (0 <= split.child_obs <= value and 0 <= split.child_credits <= credits):
        raise SplitError(
            f"cannot split ({split.child_obs}|{split.child_credits}) "
            f"out of ({value}|{credits})"
        )
    keep = AnnotatedThread(value - split.child_obs, credits - split.child_credits, cont.tail)
    child = AnnotatedThread(split.child_obs, split.child_credits, head.body)
    return pool.replace(tid, keep).extend(child), StepLabel(tid, RA_FORK)


def check_balance(pool: ThreadPool) -> bool:
    """Obligations and credits in the system stay equal (spawned in pairs)."""
    obligations = sum(e.obligations for _, e in pool.threads)
    credits = sum(e.credits for _, e in pool.threads)
    return obligations == credits


# --- trace annotation guided by a proof tree ----------------------------------


class _Slot:
    """The ghost steps due before one Exit, Loop or Fork leaf of a thread's
    proof, and a Fork's split and child plan."""

    __slots__ = ("ops", "split", "child")

    def __init__(self, ops: list[str], split: ForkSplit | None = None, child: _Plan | None = None):
        self.ops = ops
        self.split = split
        self.child = child


class _Plan:
    __slots__ = ("slots", "final_ops")

    def __init__(self) -> None:
        self.slots: list[_Slot] = []
        self.final_ops: list[str] = []


def _chunk(f: Assertion) -> tuple[int, int] | None:
    """The (obligations, credits) state a normal form describes; None for false."""
    if isinstance(f, Bottom):
        return None
    if not (isinstance(f, Flat) and len(f.obs) == 1):
        raise AnnotationError("assertion does not describe a single-chunk state")
    return f.obs[0], f.credits


def _ops_between(src: Assertion, dst: Assertion) -> list[str]:
    a = _chunk(src)
    b = _chunk(dst)
    if a is None or b is None:
        return []  # dead code never executes
    delta = b[0] - a[0]
    if delta >= 0:
        return [GS_INTRO] * delta
    return [GS_CANCEL] * (-delta)


def _extract_plan(t: ProofTree) -> _Plan:
    """The plan of the thread `t` proves: one slot per Exit, Loop or Fork
    leaf, left to right, each with the ghost steps that the view shifts met
    since the leaf before put ahead of it; the steps met after the last leaf
    are the final ops.  A Fork's slot holds the plan of its premise.

    Iterative: `todo` holds the nodes still to visit and the post-side steps
    of the view shifts being visited, each with the plan it adds to, and
    `plan.final_ops` collects the steps ahead of the next slot.
    """
    root = _Plan()
    todo: list[tuple[ProofTree | list[str], _Plan]] = [(t, root)]
    while todo:
        node, plan = todo.pop()
        if isinstance(node, list):
            plan.final_ops += node
        elif node.rule is Rule.VIEW_SHIFT:
            c, data = node.conclusion, node.data
            plan.final_ops += _ops_between(c.pre, data.inner_pre)
            post_ops = _ops_between(data.inner_post, c.post)
            if post_ops:
                todo.append((post_ops, plan))
            todo.append((node.premises[0], plan))
        elif node.rule is Rule.FRAME:
            todo.append((node.premises[0], plan))
        elif node.rule is Rule.SEQ:
            todo += [(node.premises[1], plan), (node.premises[0], plan)]
        else:
            slot = _Slot(plan.final_ops)
            plan.final_ops = []
            plan.slots.append(slot)
            if node.rule is Rule.FORK:
                slot.split, slot.child = node.data, _Plan()
                todo.append((node.premises[0], slot.child))
    return root


class _Cursor:
    """How far a thread has run through its plan."""

    __slots__ = ("plan", "index", "loop_entered")

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.index = 0
        self.loop_entered = False


def annotate(
    c: Command, proof: ProofTree, plain_trace: list[TraceStep]
) -> AnnotatedTrace:
    """Annotate a plain run of {tid0: c} using a checked proof.

    Ghost steps land immediately before the owning thread's next real step;
    fork splits come from the proof's Fork nodes.  The non-ghost steps of the
    result project onto the input trace exactly.
    """
    violation = check_proof(proof)
    if violation is not None:
        raise AnnotationError(f"proof does not check: {violation}")
    if not same_command(proof.conclusion.cmd, c):
        raise AnnotationError("proof concludes a different command")
    ends = proof.conclusion
    if _chunk(ends.pre) != (0, 0) or _chunk(ends.post) != (0, 0):
        raise AnnotationError("annotation needs a proof of {obs(0)} c {obs(0)}")

    if plain_trace:
        start = plain_trace[0].before
    else:
        raise AnnotationError("empty trace: nothing to annotate")
    if len(start.threads) != 1:
        raise AnnotationError("trace must start from a singleton pool")
    tid0 = start.ids[0]
    start_cont = start.get(tid0)
    if not same_command(start_cont, c):
        raise AnnotationError("trace does not start with {tid0: c}")

    # the annotated run starts from the trace's own command, so the erased
    # pool, kept step by step next to the annotated one, shares its entries
    # with the plain trace's pools
    pool = initial = ThreadPool.of({tid0: AnnotatedThread(0, 0, start_cont)})
    erased = start
    cursors: dict[int, _Cursor] = {tid0: _Cursor(_extract_plan(proof))}
    steps: list[TraceStep] = []
    # the erased and plain pools last found equal: while both are still those
    # very objects (a loop step returns the pool it was given, on either
    # side), they are still equal and the comparison is skipped
    same_erased, same_plain = erased, start

    for plain in plain_trace:
        tid, rule = plain.label
        cursor = cursors.get(tid)
        if cursor is None:
            raise AnnotationError(f"trace steps unknown thread {tid}")
        slot = split = None
        if rule == ST_LOOP:
            ops: tuple[str, ...] | list[str] = ()
            if not cursor.loop_entered:
                ops = _slot_at(cursor).ops
                cursor.loop_entered = True
        elif rule == ST_FORK:
            slot = _slot_at(cursor)
            if slot.split is None or slot.child is None:
                raise AnnotationError("proof has no fork split where the trace forks")
            ops, split = slot.ops, slot.split
        elif rule == TP_EXIT:
            ops = _slot_at(cursor).ops
        elif rule == TP_THREAD_TERM:
            ops = cursor.plan.final_ops
        else:
            raise AnnotationError(f"unknown plain rule {rule!r}")
        for op in ops:  # the thread's ghost steps, right before its real step
            nxt = ghost_step(pool, tid, op)
            steps.append(TraceStep(pool, StepLabel(tid, op), nxt))
            pool = nxt
        nxt, label = real_step(pool, tid, split)
        step = TraceStep(pool, label, nxt)
        steps.append(step)
        pool = nxt
        if label.rule == RA_FORK:
            erased = erased.replace(tid, pool.get(tid).cont).extend(pool.get(step.child).cont)
        elif label.rule != RA_LOOP:  # an exit empties the pool, an ended thread leaves it
            erased = erased.remove(tid) if pool.threads else EMPTY_POOL
        if slot is not None:
            cursors[step.child] = _Cursor(slot.child)
            cursor.index += 1
        after = plain.after
        if erased is not same_erased or after is not same_plain:
            if erased != after:
                raise AnnotationError("annotated run diverged from the plain trace")
            same_erased, same_plain = erased, after

    return AnnotatedTrace(initial, tuple(steps))


def _slot_at(cursor: _Cursor) -> _Slot:
    if cursor.index >= len(cursor.plan.slots):
        raise AnnotationError("trace runs past the thread's proof")
    return cursor.plan.slots[cursor.index]


# --- serialization --------------------------------------------------------------


def serialize_annotated_trace(trace: AnnotatedTrace) -> str:
    """Plain trace format plus (obligations|credits) per thread."""
    return semantics.serialize_trace(
        trace.steps, lambda printer, e: f"({e.obligations}|{e.credits}) {printer.continuation(e.cont)}"
    )

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
onto the plain trace step for step.  It reads each thread's proof left to
right as the thread runs (`_thread_walk`), a forked child's from its Fork
premise, and no thread's past its first `exit` or `loop skip`.  It checks
the projection after every step against an erased pool kept beside the
annotated one with the same pool operations, so a step costs no Python work
per thread; after a loop step, which leaves both pools the very objects last
found equal, the check is two identity tests.  A settled thread (see
`semantics`), whose walk has ended at its `loop skip` with no ghost steps
left, takes each later loop step without `real_step`; its label and pools
are still checked.
Whatever the proof or trace, `annotate` returns or raises `AnnotationError`:
a bad split (`SplitError`), cancel (`CancelUnderflow`) or real step (`Stuck`)
is one too, and so is a step of a thread that has ended or never began.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .assertions import Assertion, Bottom, Flat

# Not called here: the proof's assertions are normal forms already.  The name
# stays importable from this module because perfbench/tracing.py wraps it.
from .assertions import normalize as normalize_assertion  # noqa: F401
from .lang import EXIT, LOOP_SKIP, Command, Continuation, Done, Fork
from .proofs import (
    ForkSplit,
    ProofTree,
    RULE_FORK,
    RULE_FRAME,
    RULE_SEQ,
    RULE_VIEW_SHIFT,
    ThreadTables,
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


class AnnotationError(ValueError):
    """`annotate` refuses its proof or trace; the only error it raises."""


class CancelUnderflow(AnnotationError):
    pass


class SplitError(AnnotationError):
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
) -> tuple[ThreadPool, str]:
    """Non-ghost step of thread `tid`, with its rule; raises Stuck naming a violated side condition.

    Looping keeps the resources untouched (the credit is held, not consumed).
    Fork splits the resources conservatively per the supplied `split`;
    omitting it passes nothing to the child.
    """
    entry = pool.get(tid)
    value, credits, cont = entry.obligations, entry.credits, entry.cont
    if isinstance(cont, Done):
        if value > 0:
            raise Stuck(TERM_HOLDS_OBLIGATION)
        return pool.remove(tid), RA_THREAD_TERM
    head = cont.head
    if head is LOOP_SKIP:
        if value > 0:
            raise Stuck(LOOP_HOLDS_OBLIGATION)
        if credits < 1:
            raise Stuck(LOOP_NEEDS_CREDIT)
        return pool, RA_LOOP
    if head is EXIT:
        return EMPTY_POOL, RA_EXIT
    assert isinstance(head, Fork)
    split = split or ForkSplit(0, 0)
    if not (0 <= split.child_obs <= value and 0 <= split.child_credits <= credits):
        raise SplitError(
            f"cannot split ({split.child_obs}|{split.child_credits}) "
            f"out of ({value}|{credits})"
        )
    keep = AnnotatedThread(value - split.child_obs, credits - split.child_credits, cont.tail)
    child = AnnotatedThread(split.child_obs, split.child_credits, head.body)
    return pool.replace(tid, keep).extend(child), RA_FORK


def check_balance(pool: ThreadPool) -> bool:
    """Obligations equal credits in the pool, as in every pool of `derive`'s proofs;
    a valid proof keeps only credits <= obligations: a view shift may drop a credit."""
    return sum(e.obligations - e.credits for _, e in pool.threads) == 0


# --- trace annotation guided by a proof tree ----------------------------------


def _chunk(f: Assertion) -> tuple[int, int] | None:
    """The (obligations, credits) state a normal form describes; None for false."""
    if isinstance(f, Bottom):
        return None
    if not (isinstance(f, Flat) and len(f.obs) == 1):
        raise AnnotationError("assertion does not describe a single-chunk state")
    return f.obs[0], f.credits


def _ops_between(src: Assertion, dst: Assertion) -> list[str]:
    delta = _chunk(dst)[0] - _chunk(src)[0]
    return [GS_INTRO] * delta + [GS_CANCEL] * -delta  # one of the two is empty


def _thread_walk(t: ProofTree) -> Iterator[tuple[list[str], ForkSplit | None, ProofTree | None]]:
    """Read the proof `t` of one thread left to right, as the thread runs.

    Yield once for each Exit, Loop or Fork leaf, with the ghost steps that
    the view shifts met since the leaf before put ahead of it, and a Fork's
    split and premise; then once for the thread's end, with the steps met
    after the last leaf.  The walk returns at the first Exit or Loop leaf,
    the thread's first stop: it runs no further, so the walk never enters
    the dead code (false precondition) that `check_proof` accepts after it,
    and meets no false assertion: none holds before the stop, and a view
    shift's post side is read only once its premise has run stop-free.
    Iterative: `todo` holds the nodes still to visit and the (inner post,
    post) pairs of the view shifts being visited.
    """
    ops: list[str] = []
    todo: list[ProofTree | tuple[Assertion, Assertion]] = [t]
    while todo:
        node = todo.pop()
        if type(node) is tuple:  # a view shift's post side
            ops += _ops_between(*node)
            continue
        rule = node.rule
        if rule is RULE_VIEW_SHIFT:
            c, data = node.conclusion, node.data
            ops += _ops_between(c.pre, data.inner_pre)
            todo += [(data.inner_post, c.post), node.premises[0]]
        elif rule is RULE_FRAME:
            todo.append(node.premises[0])
        elif rule is RULE_SEQ:
            todo += [node.premises[1], node.premises[0]]
        elif rule is RULE_FORK:
            yield ops, node.data, node.premises[0]
            ops = []
        else:
            yield ops, None, None
            return
    yield ops, None, None


# the real step that each plain step's label names
_REAL_RULES = {ST_LOOP: RA_LOOP, ST_FORK: RA_FORK, TP_EXIT: RA_EXIT, TP_THREAD_TERM: RA_THREAD_TERM}
_SETTLED = ((), None, None)  # what a settled thread's step reads: no ghost steps are left


def annotate(
    c: Command, proof: ProofTree, plain_trace: list[TraceStep], tables: ThreadTables | None = None
) -> AnnotatedTrace:
    """Annotate a plain run of {tid0: c} using a checked proof.

    Ghost steps land immediately before the owning thread's next real step;
    fork splits come from the proof's Fork nodes.  The non-ghost steps of the
    result project onto the input trace exactly, and a plain label that is
    not the counterpart of the real step its thread takes is refused, as is a
    step of a thread not in the pool or one that starts from another pool
    than the steps before it reached: it raises only `AnnotationError`.
    `proof` is checked first, always; `tables`, when given, lets the check
    skip the Fork premise objects that passed in earlier calls (`check_proof`).

    Each thread in the pool has a walk of its proof (`_thread_walk`), whose
    next leaf each real step of the thread takes; a forked child walks its
    Fork premise, and a settled thread's walk is None.  A walk cannot run
    out: in a checked proof the leaves are the spine's atoms in order, and
    the thread steps once per atom to its first stop, or per atom and once
    to end, then never again (settled, or the pool is empty).
    """
    violation = check_proof(proof, tables)
    if violation is not None:
        raise AnnotationError(f"proof does not check: {violation}")
    if proof.conclusion.cmd is not c:
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
    if start_cont is not c:
        raise AnnotationError("trace does not start with {tid0: c}")

    # the annotated run starts from the trace's own command, so the erased
    # pool, kept step by step next to the annotated one, shares its entries
    # with the plain trace's pools
    pool = initial = start.replace(tid0, AnnotatedThread(0, 0, start_cont))
    erased = start
    walks: dict[int, Iterator | None] = {tid0: _thread_walk(proof)}  # one per thread in the pool
    steps: list[TraceStep] = []
    # the erased and plain pools last found equal: while both are still those
    # very objects (a loop step returns the pool it was given, on either
    # side), they are still equal and the comparison is skipped; the next
    # step starts from `same_plain`, the pool the steps before it reached
    same_erased, same_plain = erased, start

    for index, (before, tid, label, after) in enumerate(plain_trace):
        if before is not same_plain and before != same_plain:
            raise AnnotationError(f"trace step {index} starts from a pool the steps before it do not reach")
        if tid not in walks:
            raise AnnotationError(f"trace step {index} steps thread {tid}, which is not in the pool")
        real = _REAL_RULES.get(label)
        if real is None:
            raise AnnotationError(f"unknown plain rule {label!r}")
        walk = walks[tid]
        ops, split, premise = _SETTLED if walk is None else next(walk)
        for op in ops:  # the thread's ghost steps, right before its real step
            nxt = ghost_step(pool, tid, op)
            steps.append(TraceStep(pool, tid, op, nxt))
            pool = nxt
        if walk is None:  # settled: its entry is as its last loop step left it
            nxt, rule = pool, RA_LOOP
        else:
            nxt, rule = real_step(pool, tid, split)
        if rule != real:
            raise AnnotationError(f"trace step {index} is labelled {label}, but thread {tid} takes {rule}")
        step = TraceStep(pool, tid, rule, nxt)
        steps.append(step)
        pool = nxt
        if rule == RA_FORK:
            erased = erased.replace(tid, pool.get(tid).cont).extend(pool.get(step.child).cont)
            walks[step.child] = _thread_walk(premise)
        elif rule == RA_LOOP:
            walks[tid] = None
        elif rule == RA_EXIT:
            erased = EMPTY_POOL
            walks.clear()
        elif rule == RA_THREAD_TERM:
            erased = erased.remove(tid)
            del walks[tid]
        if erased is not same_erased or after is not same_plain:
            if erased != after:
                raise AnnotationError("annotated run diverged from the plain trace")
            same_erased, same_plain = erased, after

    return AnnotatedTrace(initial, tuple(steps))


# --- serialization --------------------------------------------------------------


def serialize_annotated_trace(trace: AnnotatedTrace) -> str:
    """Plain trace format plus (obligations|credits) per thread."""
    return semantics.serialize_trace(
        trace.steps, lambda printer, e: f"({e.obligations}|{e.credits}) {printer.continuation(e.cont)}"
    )

"""Annotated executions: thread pools carrying ghost resources.

An annotated pool is a `semantics.ThreadPool` whose entries are
`AnnotatedThread`s, and an annotated trace is made of `semantics.TraceStep`s
labelled with the rules below.  Each thread carries a complete resource
bundle (exactly one obligations chunk plus credits).  Ghost steps spawn or
cancel an obligation-credit pair and touch nothing else.  Real steps mirror
the plain semantics but can get stuck: looping demands an empty chunk and a
credit, and a thread may only terminate without obligations.  `exit` clears
the pool regardless.

`annotate` implements the constructive direction of the soundness argument:
given a checked proof of {obs(0)} c {obs(0)} and a plain trace, it inserts
the proof's ghost moves and fork splits to produce an annotated trace whose
non-ghost steps project back onto the plain trace step for step.  It checks
this after every step against an erased pool kept beside the annotated one
with the same pool operations, so a step costs no Python work per thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .assertions import ResourceBundle, Bottom, Flat, normalize as normalize_assertion
from .lang import (
    Command,
    Continuation,
    Done,
    Exit,
    Fork,
    LoopSkip,
    Printer,
    normalize,
    spells,
    to_continuation,
)
from .proofs import (
    ForkSplit,
    ProofTree,
    Rule,
    check_proof,
)
from . import semantics
from .semantics import (
    TraceStep,
    StepLabel,
    ThreadPool,
    outcome_of,
)

GS_INTRO = "GS-Intro"
GS_CANCEL = "GS-Cancel"
RA_LOOP = "RA-Loop"
RA_FORK = "RA-Fork"
RA_EXIT = "RA-Exit"
RA_THREAD_TERM = "RA-ThreadTerm"

GHOST_KINDS = frozenset({GS_INTRO, GS_CANCEL})

LOOP_NEEDS_CREDIT = "LoopNeedsCredit"
LOOP_HOLDS_OBLIGATION = "LoopHoldsObligation"
TERM_HOLDS_OBLIGATION = "TermHoldsObligation"


class CancelUnderflow(ValueError):
    pass


class SplitError(ValueError):
    pass


class AnnotationError(ValueError):
    pass


@dataclass(frozen=True)
class AnnotatedThread:
    bundle: ResourceBundle  # complete: exactly one chunk
    cont: Continuation

    def __post_init__(self) -> None:
        if not self.bundle.complete:
            raise ValueError("annotated threads hold exactly one obligations chunk")


def erase(pool: ThreadPool) -> ThreadPool:
    """Forget bundles, keeping the plain pool."""
    return ThreadPool(tuple((t, e.cont) for t, e in pool.threads))


@dataclass(frozen=True)
class Stuck:
    reason: str


@dataclass(frozen=True)
class StuckAt:
    step_index: int
    reason: str


@dataclass(frozen=True)
class AnnotatedTrace:
    initial: ThreadPool
    steps: tuple[TraceStep, ...]


def initial_annotated_pool(c: Command, tid0: int = 0, obligations: int = 0) -> ThreadPool:
    entry = AnnotatedThread(ResourceBundle((obligations,), 0), to_continuation(normalize(c)))
    return ThreadPool.of({tid0: entry})


def ghost_step(pool: ThreadPool, tid: int, kind: str) -> ThreadPool:
    """Spawn (GS-Intro) or cancel (GS-Cancel) an obligation-credit pair of one thread."""
    entry = pool.get(tid)
    value = entry.bundle.chunks[0]
    credits = entry.bundle.credits
    if kind == GS_INTRO:
        new = ResourceBundle((value + 1,), credits + 1)
    elif kind == GS_CANCEL:
        if value < 1 or credits < 1:
            raise CancelUnderflow(f"thread {tid} holds ({value}|{credits}); nothing to cancel")
        new = ResourceBundle((value - 1,), credits - 1)
    else:
        raise ValueError(f"not a ghost step kind: {kind!r}")
    return pool.replace(tid, AnnotatedThread(new, entry.cont))


def real_step(
    pool: ThreadPool, tid: int, split: ForkSplit | None = None
) -> tuple[ThreadPool, StepLabel] | Stuck:
    """Non-ghost step of thread `tid`; Stuck names the violated side condition.

    Looping keeps the bundle untouched (the credit is held, not consumed).
    Fork splits the bundle conservatively per the supplied `split`; omitting
    it passes nothing to the child.
    """
    entry = pool.get(tid)
    value = entry.bundle.chunks[0]
    credits = entry.bundle.credits
    cont = entry.cont
    if isinstance(cont, Done):
        if value > 0:
            return Stuck(TERM_HOLDS_OBLIGATION)
        return pool.remove(tid), StepLabel(tid, RA_THREAD_TERM)
    head = cont.head
    if isinstance(head, LoopSkip):
        if value > 0:
            return Stuck(LOOP_HOLDS_OBLIGATION)
        if credits < 1:
            return Stuck(LOOP_NEEDS_CREDIT)
        return pool, StepLabel(tid, RA_LOOP)
    if isinstance(head, Exit):
        return semantics.EMPTY_POOL, StepLabel(tid, RA_EXIT)
    assert isinstance(head, Fork)
    split = split or ForkSplit(0, 0)
    if split.child_obs > value or split.child_credits > credits:
        raise SplitError(
            f"cannot split ({split.child_obs}|{split.child_credits}) "
            f"out of ({value}|{credits})"
        )
    keep = ResourceBundle((value - split.child_obs,), credits - split.child_credits)
    child = AnnotatedThread(
        ResourceBundle((split.child_obs,), split.child_credits),
        head.thread,
    )
    pool2 = pool.replace(tid, AnnotatedThread(keep, cont.tail))
    pool2, _ = pool2.extend(child)
    return pool2, StepLabel(tid, RA_FORK)


@dataclass(frozen=True)
class StepRequest:
    tid: int
    kind: str  # "intro", "cancel", or "real"
    split: ForkSplit | None = None


def run_annotated(
    pool: ThreadPool, requests: list[StepRequest], fuel: int
) -> tuple[object, AnnotatedTrace]:
    """Execute the requested steps, at most `fuel` of them."""
    steps: list[TraceStep] = []
    current = pool
    for idx, req in enumerate(requests[:fuel]):
        if current.is_empty():
            break
        if req.kind == "intro":
            nxt = ghost_step(current, req.tid, GS_INTRO)
            label = StepLabel(req.tid, GS_INTRO)
        elif req.kind == "cancel":
            nxt = ghost_step(current, req.tid, GS_CANCEL)
            label = StepLabel(req.tid, GS_CANCEL)
        elif req.kind == "real":
            result = real_step(current, req.tid, req.split)
            if isinstance(result, Stuck):
                return StuckAt(idx, result.reason), AnnotatedTrace(pool, tuple(steps))
            nxt, label = result
        else:
            raise ValueError(f"unknown request kind {req.kind!r}")
        steps.append(TraceStep(current, label, nxt))
        current = nxt
    return outcome_of(current, steps, RA_EXIT), AnnotatedTrace(pool, tuple(steps))


def check_balance(pool: ThreadPool) -> bool:
    """Obligations and credits in the system stay equal (spawned in pairs)."""
    obligations = sum(e.bundle.chunks[0] for _, e in pool.threads)
    credits = sum(e.bundle.credits for _, e in pool.threads)
    return obligations == credits


# --- trace annotation guided by a proof tree ----------------------------------


@dataclass
class _Slot:
    ops: list[str] = field(default_factory=list)
    split: ForkSplit | None = None
    child: "_Plan | None" = None


@dataclass
class _Plan:
    slots: list[_Slot]
    final_ops: list[str]


def _flat_state(a) -> tuple[int, int] | None:
    f = normalize_assertion(a)
    if isinstance(f, Bottom):
        return None
    if not (isinstance(f, Flat) and len(f.obs) == 1):
        raise AnnotationError("assertion does not describe a single-chunk state")
    return f.obs[0], f.credits


def _ops_between(src, dst) -> list[str]:
    a = _flat_state(src)
    b = _flat_state(dst)
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
    root = _Plan([], [])
    todo: list[tuple[ProofTree | list[str], _Plan]] = [(t, root)]
    while todo:
        node, plan = todo.pop()
        if isinstance(node, list):
            plan.final_ops += node
        elif node.rule is Rule.VIEW_SHIFT:
            plan.final_ops += _ops_between(node.conclusion.pre, node.data.inner_pre)
            todo.append((_ops_between(node.data.inner_post, node.conclusion.post), plan))
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
                slot.split, slot.child = node.data, _Plan([], [])
                todo.append((node.premises[0], slot.child))
    return root


@dataclass
class _Cursor:
    plan: _Plan
    index: int = 0
    loop_entered: bool = False


def annotate(
    c: Command, proof: ProofTree, plain_trace: list[TraceStep]
) -> AnnotatedTrace:
    """Annotate a plain run of {tid0: c;done} using a checked proof.

    Ghost steps land immediately before the owning thread's next real step;
    fork splits come from the proof's Fork nodes.  The non-ghost steps of the
    result project onto the input trace exactly.
    """
    cmd = normalize(c)
    violation = check_proof(proof)
    if violation is not None:
        raise AnnotationError(f"proof does not check: {violation}")
    if proof.conclusion.cmd != cmd:
        raise AnnotationError("proof concludes a different command")
    if _flat_state(proof.conclusion.pre) != (0, 0) or _flat_state(proof.conclusion.post) != (0, 0):
        raise AnnotationError("annotation needs a proof of {obs(0)} c {obs(0)}")

    if plain_trace:
        start = plain_trace[0].before
    else:
        raise AnnotationError("empty trace: nothing to annotate")
    if len(start.threads) != 1:
        raise AnnotationError("trace must start from a singleton pool")
    tid0 = start.tids()[0]
    start_cont = start.get(tid0)
    if not spells(start_cont, cmd):
        raise AnnotationError("trace does not start with {tid0: c;done}")

    # the annotated run starts from the trace's own continuation, so the
    # erased pool, kept step by step next to the annotated one, shares its
    # continuations with the plain trace's pools
    pool = initial = ThreadPool.of({tid0: AnnotatedThread(ResourceBundle((0,), 0), start_cont)})
    erased = start
    cursors: dict[int, _Cursor] = {tid0: _Cursor(_extract_plan(proof))}
    steps: list[TraceStep] = []

    def emit_ghost(tid: int, ops: list[str]) -> None:
        nonlocal pool
        for op in ops:
            nxt = ghost_step(pool, tid, op)
            steps.append(TraceStep(pool, StepLabel(tid, op), nxt))
            pool = nxt

    def emit_real(tid: int, split: ForkSplit | None = None) -> None:
        nonlocal pool, erased
        result = real_step(pool, tid, split)
        if isinstance(result, Stuck):
            raise AnnotationError(f"annotated run got stuck: {result.reason}")
        nxt, label = result
        steps.append(TraceStep(pool, label, nxt))
        pool = nxt
        if label.rule == RA_FORK:
            erased, _ = erased.replace(tid, pool.get(tid).cont).extend(pool.threads[-1][1].cont)
        elif label.rule != RA_LOOP:  # an exit empties the pool, an ended thread leaves it
            erased = erased.remove(tid) if pool.threads else semantics.EMPTY_POOL

    for plain in plain_trace:
        tid = plain.label.tid
        rule = plain.label.rule
        cursor = cursors.get(tid)
        if cursor is None:
            raise AnnotationError(f"trace steps unknown thread {tid}")
        if rule == semantics.TP_THREAD_TERM:
            emit_ghost(tid, cursor.plan.final_ops)
            emit_real(tid)
        elif rule == semantics.ST_LOOP:
            slot = _slot_at(cursor)
            if not cursor.loop_entered:
                emit_ghost(tid, slot.ops)
                cursor.loop_entered = True
            emit_real(tid)
        elif rule == semantics.ST_FORK:
            slot = _slot_at(cursor)
            if slot.split is None or slot.child is None:
                raise AnnotationError("proof has no fork split where the trace forks")
            emit_ghost(tid, slot.ops)
            emit_real(tid, slot.split)
            cursors[pool.tids()[-1]] = _Cursor(slot.child)  # the child has the new last id
            cursor.index += 1
        elif rule == semantics.TP_EXIT:
            slot = _slot_at(cursor)
            emit_ghost(tid, slot.ops)
            emit_real(tid)
        else:
            raise AnnotationError(f"unknown plain rule {rule!r}")
        if erased != plain.after:
            raise AnnotationError("annotated run diverged from the plain trace")

    return AnnotatedTrace(initial, tuple(steps))


def _slot_at(cursor: _Cursor) -> _Slot:
    if cursor.index >= len(cursor.plan.slots):
        raise AnnotationError("trace runs past the thread's proof")
    return cursor.plan.slots[cursor.index]


def project(trace: AnnotatedTrace) -> list[TraceStep]:
    """Erase bundles and ghost steps, recovering the plain trace."""
    plain_rule = {
        RA_LOOP: semantics.ST_LOOP,
        RA_FORK: semantics.ST_FORK,
        RA_EXIT: semantics.TP_EXIT,
        RA_THREAD_TERM: semantics.TP_THREAD_TERM,
    }
    out = []
    for step in trace.steps:
        if step.label.rule in GHOST_KINDS:
            continue
        out.append(
            TraceStep(
                erase(step.before),
                StepLabel(step.label.tid, plain_rule[step.label.rule]),
                erase(step.after),
            )
        )
    return out


# --- serialization --------------------------------------------------------------


def annotated_pool_str(pool: ThreadPool, printer: Printer) -> str:
    def entry(pair: tuple[int, AnnotatedThread]) -> str:
        e = pair[1]
        return f"{pair[0]}:({e.bundle.chunks[0]}|{e.bundle.credits}) {printer.continuation(e.cont)}"

    return "{%s}" % ",".join(printer.each(pool.threads, entry))


def serialize_annotated_trace(trace: AnnotatedTrace) -> str:
    """Plain trace format plus a (obligations|credits) bundle per thread."""
    printer = Printer()
    lines = [
        f"{i}\t{s.label.tid}\t{s.label.rule}\t{annotated_pool_str(s.before, printer)}"
        for i, s in enumerate(trace.steps)
    ]
    return "\n".join(lines)

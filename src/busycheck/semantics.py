"""Plain (unannotated) small-step semantics, schedulers, and divergence oracle.

A thread pool maps thread ids to entries: continuations here, continuations
with ghost resources in `ghost`, which reuses the same pool, step record and
outcome classification.  Single-thread steps are lifted to pool steps;
`exit` clears the whole pool, a thread at `done` is removed.  Every pool step
is labeled with the name of the underlying rule.

Fairness follows the usual definition: every thread alive at any point is
eventually scheduled.  On finite prefixes this is approximated by a sliding
window check (`is_fair_prefix`).  Divergence, by contrast, is decided
exactly: the reachable state space of a program is finite (loop bodies are
`skip`, so forks cannot multiply), and a fair infinite run exists iff some
reachable non-empty pool has every thread busy-waiting (`explore`).

How long a run needs is a matter of size alone: `fuel_bound` gives the steps
within which every run under the shipped schedulers reaches an empty or
all-waiting pool, so picking a step budget needs no state-space search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from .lang import (
    Command,
    Continuation,
    Done,
    Exit,
    Fork,
    LoopSkip,
    Printer,
    Seq,
    SeqCont,
    normalize,
    to_continuation,
)

ST_LOOP = "ST-Loop"
ST_FORK = "ST-Fork"
TP_EXIT = "TP-Exit"
TP_THREAD_TERM = "TP-ThreadTerm"


class UnknownThreadError(KeyError):
    pass


@dataclass(frozen=True)
class ThreadPool:
    """Finite map from thread id to entry, stored sorted by id.

    An entry is a continuation, or a `ghost.AnnotatedThread` in annotated runs.
    """

    threads: tuple[tuple[int, Any], ...]

    @staticmethod
    def of(mapping: dict[int, Any]) -> "ThreadPool":
        return ThreadPool(tuple(sorted(mapping.items())))

    def tids(self) -> tuple[int, ...]:
        return tuple(tid for tid, _ in self.threads)

    def get(self, tid: int) -> Any:
        for t, entry in self.threads:
            if t == tid:
                return entry
        raise UnknownThreadError(tid)

    def is_empty(self) -> bool:
        return not self.threads

    def replace(self, tid: int, entry: Any) -> "ThreadPool":
        return ThreadPool(tuple((t, entry if t == tid else e) for t, e in self.threads))

    def remove(self, tid: int) -> "ThreadPool":
        return ThreadPool(tuple((t, e) for t, e in self.threads if t != tid))

    def extend(self, entry: Any) -> tuple["ThreadPool", int]:
        """Add a thread under the fresh id max(dom)+1."""
        new_tid = max((t for t, _ in self.threads), default=-1) + 1
        return ThreadPool(self.threads + ((new_tid, entry),)), new_tid


EMPTY_POOL = ThreadPool(())


@dataclass(frozen=True)
class StepLabel:
    tid: int
    rule: str


@dataclass(frozen=True)
class TraceStep:
    before: ThreadPool
    label: StepLabel
    after: ThreadPool


@dataclass(frozen=True)
class Terminated:
    steps: int


@dataclass(frozen=True)
class AbruptExit:
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    last_pool: object


RunOutcome = Terminated | AbruptExit | FuelExhausted


def outcome_of(pool: ThreadPool, trace: Sequence[TraceStep], exit_rule: str) -> RunOutcome:
    """Classify a run that stopped at `pool`; `exit_rule` labels an exit step."""
    if pool.is_empty():
        if trace and trace[-1].label.rule == exit_rule:
            return AbruptExit(len(trace))
        return Terminated(len(trace))
    return FuelExhausted(pool)


def step_thread(k: Continuation) -> tuple[Continuation, tuple[Continuation, ...]] | None:
    """Single-thread step; None when no such step exists (done or exit head).

    A loop head self-steps; a fork head continues with its tail and spawns
    the body as a fresh continuation.  At most one thread is forked per step.
    """
    if isinstance(k, Done):
        return None
    head = k.head
    if isinstance(head, LoopSkip):
        return k, ()
    if isinstance(head, Fork):
        return k.tail, (to_continuation(head.body),)
    return None  # Exit is a pool-level step


def step_pool(tp: ThreadPool, tid: int) -> tuple[ThreadPool, StepLabel]:
    """Pool step by thread `tid`; total for every tid in the pool's domain."""
    cont = tp.get(tid)
    if isinstance(cont, Done):
        return tp.remove(tid), StepLabel(tid, TP_THREAD_TERM)
    if isinstance(cont.head, Exit):
        return EMPTY_POOL, StepLabel(tid, TP_EXIT)
    stepped = step_thread(cont)
    assert stepped is not None
    cont2, forked = stepped
    tp2 = tp.replace(tid, cont2)
    for child in forked:
        tp2, _ = tp2.extend(child)
    rule = ST_LOOP if isinstance(cont.head, LoopSkip) else ST_FORK
    return tp2, StepLabel(tid, rule)


class Scheduler(Protocol):
    def pick(self, trace: list[TraceStep], pool: ThreadPool) -> int: ...


class RoundRobinScheduler:
    """Cyclic over live ids in increasing order; `offset` rotates the start."""

    def __init__(self, offset: int = 0):
        self.offset = offset

    def pick(self, trace: list[TraceStep], pool: ThreadPool) -> int:
        tids = pool.tids()
        if not trace:
            return tids[self.offset % len(tids)]
        last = trace[-1].label.tid
        for t in tids:
            if t > last:
                return t
        return tids[0]


class RandomFairScheduler:
    """Random choice with a forced pick once a thread nears its deadline.

    Stateless: each decision is a pure function of (seed, trace, pool), so a
    run is reproducible from the seed alone.
    """

    def __init__(self, seed: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.seed = seed
        self.window = window

    @staticmethod
    def ages(trace: list[TraceStep], tids: tuple[int, ...]) -> dict[int, int]:
        """Steps since each of `tids` last stepped (or was born).

        One backward pass over the trace, which stops once every age is known.
        """
        ages: dict[int, int] = {}
        pending = set(tids)
        for depth, step in enumerate(reversed(trace)):
            if not pending:
                break
            present = set(step.before.tids())
            for tid in [t for t in pending if t == step.label.tid or t not in present]:
                ages[tid] = depth
                pending.remove(tid)
        ages.update(dict.fromkeys(pending, len(trace)))
        return ages

    def pick(self, trace: list[TraceStep], pool: ThreadPool) -> int:
        tids = pool.tids()
        deadline = max(1, self.window - len(tids))
        ages = self.ages(trace, tids)
        oldest_age, neg_tid = max((ages[t], -t) for t in tids)
        if oldest_age >= deadline:
            return -neg_tid
        rng = random.Random(self.seed * 1_000_003 + len(trace))
        return rng.choice(tids)


class FixedScheduler:
    """Replays an explicit tid sequence; used for scripted runs and goldens."""

    def __init__(self, tids: list[int]):
        self.tids = list(tids)

    def pick(self, trace: list[TraceStep], pool: ThreadPool) -> int:
        return self.tids[len(trace)]


def round_robin() -> RoundRobinScheduler:
    return RoundRobinScheduler(0)


def rotated_round_robin(offset: int) -> RoundRobinScheduler:
    return RoundRobinScheduler(offset)


def random_fair(seed: int, window: int) -> RandomFairScheduler:
    return RandomFairScheduler(seed, window)


def run(tp: ThreadPool, scheduler: Scheduler, fuel: int) -> tuple[RunOutcome, list[TraceStep]]:
    """Drive up to `fuel` steps.  FuelExhausted is a cut-off, not divergence."""
    trace: list[TraceStep] = []
    pool = tp
    for _ in range(fuel):
        if pool.is_empty():
            break
        tid = scheduler.pick(trace, pool)
        pool2, label = step_pool(pool, tid)
        trace.append(TraceStep(pool, label, pool2))
        pool = pool2
    return outcome_of(pool, trace, TP_EXIT), trace


def run_schedule(tp: ThreadPool, tids: list[int]) -> tuple[RunOutcome, list[TraceStep]]:
    return run(tp, FixedScheduler(tids), len(tids))


def initial_pool(c: Command, tid0: int = 0) -> ThreadPool:
    return ThreadPool.of({tid0: to_continuation(normalize(c))})


def is_fair_prefix(trace: list[TraceStep], window: int) -> bool:
    """Window approximation of fairness on a finite trace.

    Every thread alive at step k must step at some j in [k, k+window); windows
    that extend past the end of the trace cannot be judged and pass vacuously.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(trace)
    for k in range(n):
        if k + window > n:
            break
        scheduled = {trace[j].label.tid for j in range(k, k + window)}
        for tid in trace[k].before.tids():
            if tid not in scheduled:
                return False
    return True


# --- exact divergence oracle -------------------------------------------------


@dataclass(frozen=True)
class ReachabilityInfo:
    diverges: bool
    state_count: int
    max_threads: int


def _all_waiting(pool: ThreadPool) -> bool:
    if pool.is_empty():
        return False
    return all(
        isinstance(k, SeqCont) and isinstance(k.head, LoopSkip) for _, k in pool.threads
    )


def explore(c: Command, tid0: int = 0) -> ReachabilityInfo:
    """Exhaustive reachable-state search from the singleton initial pool.

    A fair infinite run exists iff some reachable non-empty pool has every
    thread loop-headed: such a pool self-loops fairly forever, while any
    other non-empty pool is forced to make progress under fairness and the
    (finite) state graph strictly consumes atoms on non-loop steps.
    """
    start = initial_pool(c, tid0)
    seen = {start}
    queue = [start]
    diverges = False
    max_threads = len(start.threads)
    while queue:
        pool = queue.pop()
        if _all_waiting(pool):
            diverges = True
        for tid in pool.tids():
            pool2, _ = step_pool(pool, tid)
            if pool2 not in seen:
                seen.add(pool2)
                max_threads = max(max_threads, len(pool2.threads))
                queue.append(pool2)
    return ReachabilityInfo(diverges, len(seen), max_threads)


def oracle_diverges(c: Command) -> bool:
    """True iff a fair infinite reduction sequence from {0: c;done} exists."""
    return explore(c).diverges


def fuel_bound(c: Command, window: int = 0) -> int:
    """Steps within which every run of `c` reaches an empty or all-waiting pool.

    The bound is ``(atoms + T) * (window + T + 1)`` with ``T = forks + 1``;
    `window` is the random scheduler's fairness window and 0 for round-robin
    (rotated or not).  It holds for every scheduler built by `round_robin`,
    `rotated_round_robin` and `random_fair(seed, window)`.

    Proof.  Every atom of `c` runs at most once (loop bodies are `skip`), so
    at most ``forks`` threads are ever spawned and at most ``T`` are alive at
    once.  Call a step *progress* unless it is an ST-Loop step.  A progress
    step runs a fork or exit atom or ends a thread, so a run has at most
    ``atoms + T`` of them.  Loop steps leave the pool's domain unchanged.
    While the pool is neither empty nor all-waiting, some thread `u` is not
    loop-headed, and stepping it is progress.  Round-robin cycles over the
    n <= T live ids, so it steps `u` within n steps.  The random scheduler
    forces the oldest thread once some age reaches
    ``max(1, window - n) <= window``.  After at most `window` steps without
    `u`, its age has reached that deadline, so every later step is forced
    until `u` steps; each forced pick other than `u` takes a thread at least
    as old and resets it to age 0, which happens to at most n - 1 threads.
    So `u` steps within ``window + n <= window + T`` steps.  Hence each
    progress step comes within ``window + T`` steps of the one before, and
    after the last one the pool is empty or all-waiting; an all-waiting pool
    only loops from then on.

    Consequently a run of a program with no fair infinite run never ends in
    FuelExhausted under this budget, and a run that does ends at the same
    all-waiting pool as under any larger budget.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    atoms = forks = 0
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.first)
            stack.append(node.second)
            continue
        atoms += 1
        if isinstance(node, Fork):
            forks += 1
            stack.append(node.body)
    threads = forks + 1
    return (atoms + threads) * (window + threads + 1)


# --- serialization -----------------------------------------------------------


def pool_str(pool: ThreadPool, printer: Printer) -> str:
    inner = ",".join(f"{tid}:{printer.continuation(k)}" for tid, k in pool.threads)
    return "{%s}" % inner


def serialize_trace(trace: list[TraceStep]) -> str:
    """One line per step: index, tid, rule, pool before the step (tab-separated)."""
    printer = Printer()
    lines = [
        f"{i}\t{s.label.tid}\t{s.label.rule}\t{pool_str(s.before, printer)}"
        for i, s in enumerate(trace)
    ]
    return "\n".join(lines)

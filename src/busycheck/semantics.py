"""Plain (unannotated) small-step semantics, schedulers, and divergence oracle.

A thread pool maps thread ids to entries: here what each thread has left to
run (a spine suffix of the program or of a fork body, or `DONE`), in `ghost`
that plus ghost resources; `ghost` reuses the same pool, step record and
trace printer, not the outcome classification.  A pool step branches once on
the thread's head: a loop self-steps, returning the very pool it was given,
a fork spawns its body under a fresh id (the step's `child`), `exit` clears
the whole pool, and a thread at `done` is removed.  A trace step is one
flat record of the pools around it, the stepped thread and the name of the
underlying rule, and the trace printer renders a pool once for each run of
steps that share it.
Pool operations bisect and slice a sorted tuple, so a step shares every
untouched entry with the pool before it and costs no Python work per thread.
A scheduler is told each step taken: the random one ages threads from it and
draws from one generator per run, so a run is reproducible from seed and window.

A thread is *settled* once it has taken a loop step.  Its entry then never
changes: only its own steps change it, a loop step returns the pool it was
given, and `exit` empties the pool, ending the run.  So each later step of
it is the loop step from the pool it is picked in back to that very pool,
and `run` and `ghost.annotate` take it without applying the step rule.
A run from a program never ends `Terminated`: a leaf of its spawn tree forks
nothing, so that thread's first atom is `exit` or `loop skip`, and the run
either exits or keeps it alive (only a hand-built pool can empty quietly).

Fairness follows the usual definition: every thread alive at any point is
eventually scheduled.  The tests hold the schedulers to a sliding-window
check of it on finite prefixes (`is_fair_prefix` in `tests/reference.py`).
Divergence, by contrast, is decided exactly, and always by a pool the
semantics reaches: a fair infinite run exists iff some reachable pool is
*all-waiting* (non-empty, every thread loop-headed; `all_waiting`).
`thread_alone_schedule` runs each thread alone to its first `exit` or
`loop skip`; the pool its schedule reaches through `step_pool` is
all-waiting iff a fair infinite run exists, and the walk is linear in the
program.  `explore` is the reference: the reachable state space is finite
(loop bodies are `skip`, so forks cannot multiply), and it searches every
reachable pool; its cost grows with the number of interleavings.

How long a run needs is a matter of size alone: `fuel_bound` gives the steps
within which every run under the shipped schedulers reaches an empty or
all-waiting pool, so picking a step budget needs no state-space search.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from .lang import (
    EXIT,
    LOOP_SKIP,
    Command,
    Done,
    Fork,
    LoopSkip,
    Printer,
    spine,
)

ST_LOOP = "ST-Loop"
ST_FORK = "ST-Fork"
TP_EXIT = "TP-Exit"
TP_THREAD_TERM = "TP-ThreadTerm"


class UnknownThreadError(KeyError):
    pass


class ThreadPool:
    """Finite map from thread id to entry, stored sorted by id.

    An entry is what a thread has left to run, or a `ghost.AnnotatedThread`
    in annotated runs.
    `ids` caches the ids in order and takes no part in equality, hashing or
    `repr`.  A pool is immutable: `__init__` sets its two slots through the
    slots' own setters, and `__setattr__` refuses every later write; built
    once per step, it costs less than a frozen dataclass.
    """

    __slots__ = ("threads", "ids")
    threads: tuple[tuple[int, Any], ...]
    ids: tuple[int, ...]

    def __init__(self, threads: tuple[tuple[int, Any], ...], ids: tuple[int, ...] | None = None):
        _set_threads(self, threads)
        _set_ids(self, tuple(t for t, _ in threads) if ids is None else ids)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"a ThreadPool is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a ThreadPool is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not ThreadPool:
            return NotImplemented
        return self.threads == other.threads

    def __hash__(self) -> int:
        return hash(self.threads)

    def __repr__(self) -> str:
        return f"ThreadPool(threads={self.threads!r})"

    @staticmethod
    def of(mapping: dict[int, Any]) -> "ThreadPool":
        return ThreadPool(tuple(sorted(mapping.items())))

    def _index(self, tid: int) -> int:
        i = bisect_left(self.ids, tid)
        if i == len(self.ids) or self.ids[i] != tid:
            raise UnknownThreadError(tid)
        return i

    def get(self, tid: int) -> Any:
        return self.threads[self._index(tid)][1]

    def is_empty(self) -> bool:
        return not self.threads

    def replace(self, tid: int, entry: Any) -> "ThreadPool":
        i = self._index(tid)
        return ThreadPool(self.threads[:i] + ((tid, entry),) + self.threads[i + 1 :], self.ids)

    def remove(self, tid: int) -> "ThreadPool":
        i = self._index(tid)
        return ThreadPool(self.threads[:i] + self.threads[i + 1 :], self.ids[:i] + self.ids[i + 1 :])

    def extend(self, entry: Any) -> "ThreadPool":
        """Add a thread under the fresh id max(dom)+1."""
        new_tid = self.ids[-1] + 1 if self.ids else 0
        return ThreadPool(self.threads + ((new_tid, entry),), self.ids + (new_tid,))


# the slots' own setters, which the immutable class's `__setattr__` would refuse
_set_threads = ThreadPool.threads.__set__  # type: ignore[attr-defined]
_set_ids = ThreadPool.ids.__set__  # type: ignore[attr-defined]

EMPTY_POOL = ThreadPool(())


# Records built per step or proof node are NamedTuples, built in about half the
# time of a frozen dataclass; a class whose `==` must tell types apart stays one.
class TraceStep(NamedTuple):
    """Thread `tid` steps by `rule` from pool `before` to pool `after`."""

    before: ThreadPool
    tid: int
    rule: str
    after: ThreadPool

    @property
    def child(self) -> int | None:
        """The id of the thread this step added to the pool (a fork's), or None."""
        ids = self.after.ids
        return ids[-1] if len(ids) > len(self.before.ids) else None


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


def step_pool(tp: ThreadPool, tid: int) -> tuple[ThreadPool, str]:
    """Pool step by thread `tid` and its rule; total for every tid in the pool's domain."""
    cont = tp.get(tid)
    if isinstance(cont, Done):
        return tp.remove(tid), TP_THREAD_TERM
    head = cont.head
    if head is EXIT:
        return EMPTY_POOL, TP_EXIT
    if head is LOOP_SKIP:
        return tp, ST_LOOP
    return tp.replace(tid, cont.tail).extend(head.body), ST_FORK


class Scheduler(Protocol):
    """`run` calls `pick` once per step with the step just taken, or None for a
    run's first pick, where the scheduler starts its run state afresh."""

    def pick(self, pool: ThreadPool, last: TraceStep | None) -> int: ...


class RoundRobinScheduler:
    """Cyclic over live ids in increasing order.

    `offset` picks only the first step's thread, as the `offset`-th live id
    modulo the pool's size; every later pick follows the last stepped id.  A
    run from `initial_pool` starts with one thread, so there every offset
    gives the plain round-robin schedule.
    """

    def __init__(self, offset: int = 0):
        self.offset = offset

    def pick(self, pool: ThreadPool, last: TraceStep | None) -> int:
        tids = pool.ids
        if last is None:
            return tids[self.offset % len(tids)]
        i = bisect_right(tids, last.tid)
        return tids[i] if i < len(tids) else tids[0]


class RandomFairScheduler:
    """Random choice with a forced pick once a thread nears its deadline.

    Each run draws from its own `random.Random(seed)`, once per unforced
    pick, so a run is reproducible from its seed and window.  The live
    threads are kept in the order they last stepped or were born, each with
    the steps taken by then, so the oldest thread, lowest id first among
    equals, is the first.
    """

    _rng: random.Random  # the current run's state, started by its first pick
    _steps: int
    _live: OrderedDict[int, int]  # live tid -> steps taken when it last stepped or was born

    def __init__(self, seed: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.seed = seed
        self.window = window

    def pick(self, pool: ThreadPool, last: TraceStep | None) -> int:
        if last is None:
            self._rng, steps = random.Random(self.seed), 0
            live = self._live = OrderedDict.fromkeys(pool.ids, 0)
        else:
            live, steps, tid = self._live, self._steps + 1, last.tid
            if last.rule == TP_THREAD_TERM:
                del live[tid]
            else:  # a loop or fork step; no pick follows an exit step
                live[tid] = steps
                live.move_to_end(tid)
                if last.rule == ST_FORK:
                    live[last.child] = steps  # born at this step
        self._steps = steps
        tids = pool.ids
        oldest, since = next(iter(live.items()))
        if steps - since >= max(1, self.window - len(tids)):
            return oldest  # the oldest thread, lowest id first
        return self._rng.choice(tids)


def run(tp: ThreadPool, scheduler: Scheduler, fuel: int) -> tuple[RunOutcome, list[TraceStep]]:
    """Drive up to `fuel` steps.  FuelExhausted is a cut-off, not divergence.

    A settled thread's steps (see the module docstring) are taken as
    `(pool, ST_LOOP)`, so `step_pool` runs once per progress step and once
    per thread that loops; each step is still picked, recorded and counted
    against `fuel`.
    """
    trace: list[TraceStep] = []
    pool, last = tp, None
    settled: set[int] = set()
    for _ in range(fuel):
        if pool.is_empty():
            break
        tid = scheduler.pick(pool, last)
        if tid in settled:
            after, rule = pool, ST_LOOP
        else:
            after, rule = step_pool(pool, tid)
            if rule is ST_LOOP:
                settled.add(tid)
        last = TraceStep(pool, tid, rule, after)
        trace.append(last)
        pool = after
    if not pool.is_empty():
        return FuelExhausted(pool), trace
    if trace and trace[-1].rule == TP_EXIT:
        return AbruptExit(len(trace)), trace
    return Terminated(len(trace)), trace


def initial_pool(c: Command) -> ThreadPool:
    return ThreadPool.of({0: c})


# --- exact divergence oracle -------------------------------------------------


@dataclass(frozen=True)
class ReachabilityInfo:
    diverges: bool
    state_count: int
    max_threads: int


def all_waiting(pool: ThreadPool) -> bool:
    """Whether `pool` is non-empty and every thread in it is loop-headed."""
    if pool.is_empty():
        return False
    return all(
        not isinstance(k, Done) and isinstance(k.head, LoopSkip) for _, k in pool.threads
    )


def explore(c: Command) -> ReachabilityInfo:
    """Exhaustive reachable-state search from the singleton initial pool.

    A fair infinite run exists iff some reachable non-empty pool has every
    thread loop-headed: such a pool self-loops fairly forever, while any
    other non-empty pool is forced to make progress under fairness and the
    (finite) state graph strictly consumes atoms on non-loop steps.
    """
    start = initial_pool(c)
    seen = {start}
    queue = [start]
    diverges = False
    max_threads = len(start.threads)
    while queue:
        pool = queue.pop()
        if all_waiting(pool):
            diverges = True
        for tid in pool.ids:
            pool2, _ = step_pool(pool, tid)
            if pool2 not in seen:
                seen.add(pool2)
                max_threads = max(max_threads, len(pool2.threads))
                queue.append(pool2)
    return ReachabilityInfo(diverges, len(seen), max_threads)


def thread_alone_schedule(c: Command) -> list[int]:
    """The schedule that runs each thread of `c` alone to its first stop.

    Each thread, the main one (tid 0) first, takes its fork steps up to its
    first `exit` or `loop skip`, where it stops unstepped, or to its end,
    where it takes the step that removes it; a child runs before the rest of
    its parent.  So the last thread forked forks next or stops at its first
    atom: it is alive at the next fork, and `step_pool` numbers the children
    1, 2, ... in the order they are forked.  The walk is linear and reads
    only `head`, `tail` and `DONE`, none of `lang`'s feasibility fields.

    Replayed from `initial_pool(c)` through `step_pool`, the schedule
    reaches the pool of exactly those threads of the spawn tree (one node per
    thread any run starts) that stop at `exit` or `loop skip`, each at its
    stop; a fair infinite run exists iff that pool is all-waiting.

    Proof.  A thread's own steps do not depend on other threads, except that
    an `exit` step empties the pool; so in every run each thread ever alive
    is a node of the tree and walks a prefix of that node's path.  (If)
    Stepping the pool's threads in turn forever is a fair infinite run:
    every other thread started on the way has ended.  (Only if) A fair
    infinite run takes no `exit` step.  By fairness every thread alive in it
    is scheduled again and again, so it runs its path to its stop and spawns
    its children: every node of the tree is spawned, and none stops at
    `exit`, or the run would take that step.  Every atom runs at most once,
    so from some point on every step is a loop step; the pool is then
    non-empty and, by fairness, every live thread is loop-headed, so some
    node stops at `loop skip`.  So the replayed pool is all-waiting.
    """
    schedule: list[int] = []
    forks = 0
    threads = [(0, c)]  # (tid, what it has left); a child above the rest of its parent
    while threads:
        tid, k = threads.pop()
        if isinstance(k, Done):
            schedule.append(tid)  # the thread ends
        elif type(k.head) is Fork:
            schedule.append(tid)
            forks += 1
            threads += ((tid, k.tail), (forks, k.head.body))
    return schedule


def fuel_bound(c: Command, window: int = 0) -> int:
    """Steps within which every run of `c` reaches an empty or all-waiting pool.

    The bound is ``(atoms + T) * (window + T + 1)`` with ``T = forks + 1``;
    `window` is the random scheduler's fairness window and 0 for round-robin
    (rotated or not).  It holds for every `RoundRobinScheduler(offset)` and
    every `RandomFairScheduler(seed, window)`.

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
    bodies = [c]
    while bodies:
        for atom in spine(bodies.pop()):
            atoms += 1
            if isinstance(atom, Fork):
                forks += 1
                bodies.append(atom.body)
    threads = forks + 1
    return (atoms + threads) * (window + threads + 1)


# --- serialization -----------------------------------------------------------


def serialize_trace(
    trace: Sequence[TraceStep], entry: Callable[[Printer, Any], str] = Printer.continuation
) -> str:
    """One line per step: index, tid, rule, pool before the step (tab-separated).

    `entry(printer, e)` renders a thread's entry `e`; by default `e` is what
    the thread has left to run.  A run of steps whose `before` is one pool
    object (a loop step returns the pool it was given) renders it once.
    """
    printer = Printer()

    def thread(pair: tuple[int, Any]) -> str:
        return f"{pair[0]}:{entry(printer, pair[1])}"

    lines, pool, text = [], None, ""
    for i, s in enumerate(trace):
        if s.before is not pool:
            pool = s.before
            text = ",".join(printer.each(pool.threads, thread))
        lines.append(f"{i}\t{s.tid}\t{s.rule}\t{{{text}}}")
    return "\n".join(lines)

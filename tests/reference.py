"""References the tests hold busycheck to, kept out of the package.

- The resource-bundle model of assertions: `satisfies` is the
  separating-conjunction model that `assertions.normalize` and
  `assertions.view_shift` are closed forms of.
- `is_fair_prefix`, the sliding-window fairness check on finite traces that
  the schedulers must pass.
- `FixedScheduler` and `run_schedule`, which replay a scripted tid sequence.
- `tree_size`, the node count of a proof tree.
- `initial_annotated_pool`, a singleton annotated pool with chosen
  obligations.
"""

from __future__ import annotations

from dataclasses import dataclass

from busycheck.assertions import (
    Assertion,
    Bottom,
    Credit,
    FalseA,
    NormalizedAssertion,
    Obs,
    Star,
    TrueA,
)
from busycheck.ghost import AnnotatedThread
from busycheck.lang import Command
from busycheck.proofs import ProofTree
from busycheck.semantics import RunOutcome, ThreadPool, TraceStep, run

# --- the bundle model of assertions --------------------------------------------


@dataclass(frozen=True)
class ResourceBundle:
    """Multiset of obligations-chunk values plus a credit count."""

    chunks: tuple[int, ...]
    credits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(sorted(self.chunks)))
        if self.credits < 0 or any(v < 0 for v in self.chunks):
            raise ValueError("bundle components must be naturals")

    def union(self, other: "ResourceBundle") -> "ResourceBundle":
        return ResourceBundle(self.chunks + other.chunks, self.credits + other.credits)


def _splits(b: ResourceBundle):
    n = len(b.chunks)
    for mask in range(1 << n):
        left = tuple(v for i, v in enumerate(b.chunks) if mask >> i & 1)
        right = tuple(v for i, v in enumerate(b.chunks) if not mask >> i & 1)
        for c in range(b.credits + 1):
            yield ResourceBundle(left, c), ResourceBundle(right, b.credits - c)


def satisfies(b: ResourceBundle, a: Assertion) -> bool:
    """Model relation: `true` always; `a1 * a2` by existence of a bundle split;
    `obs(n)` iff some chunk holds exactly n; `credit` iff credits >= 1."""
    if isinstance(a, TrueA):
        return True
    if isinstance(a, FalseA):
        return False
    if isinstance(a, Obs):
        return a.count in b.chunks
    if isinstance(a, Credit):
        return b.credits >= 1
    if isinstance(a, Star):
        return any(
            satisfies(b1, a.left) and satisfies(b2, a.right) for b1, b2 in _splits(b)
        )
    raise TypeError(f"not an assertion: {a!r}")


def satisfies_flat(b: ResourceBundle, f: NormalizedAssertion) -> bool:
    if isinstance(f, Bottom):
        return False
    return _multiset_leq(f.obs, b.chunks) and b.credits >= f.credits


def _multiset_leq(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    remaining = list(big)
    for v in small:
        if v not in remaining:
            return False
        remaining.remove(v)
    return True


# --- fairness and scripted runs --------------------------------------------------


def is_fair_prefix(trace: list[TraceStep], window: int) -> bool:
    """Window approximation of fairness on a finite trace.

    Every thread alive at step k must step at some j in [k, k+window); windows
    that extend past the end of the trace cannot be judged and pass vacuously.
    One pass over a trace whose steps chain: per live thread, the first step
    at which it has been waiting since it last stepped or was born.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    waiting = dict.fromkeys(trace[0].before.ids, 0) if trace else {}
    for j, step in enumerate(trace):
        tid = step.label.tid
        if j - waiting.pop(tid, j) >= window:
            return False
        if len(step.after.ids) >= len(step.before.ids):
            waiting[tid] = j + 1  # the thread outlives its step (no exit, no end)
        child = step.child
        if child is not None:
            waiting[child] = j + 1
    return all(k + window > len(trace) for k in waiting.values())


class FixedScheduler:
    """Replays an explicit tid sequence; used for scripted runs and goldens."""

    def __init__(self, tids: list[int]):
        self.tids = list(tids)

    def pick(self, trace: list[TraceStep], pool: ThreadPool) -> int:
        return self.tids[len(trace)]


def run_schedule(tp: ThreadPool, tids: list[int]) -> tuple[RunOutcome, list[TraceStep]]:
    """`run` from `tp` that steps the threads `tids` in order, or fewer if the pool empties."""
    return run(tp, FixedScheduler(tids), len(tids))


# --- proofs and annotated pools --------------------------------------------------


def tree_size(t: ProofTree) -> int:
    """Nodes of `t`, a premise shared by two nodes counted twice; iterative."""
    count, todo = 0, [t]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.premises)
    return count


def initial_annotated_pool(c: Command, obligations: int = 0) -> ThreadPool:
    if obligations < 0:
        raise ValueError("obligations must be a natural")
    return ThreadPool.of({0: AnnotatedThread(obligations, 0, c)})

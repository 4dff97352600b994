"""Program order graphs over annotated trace prefixes.

Node i is the i-th step of the trace.  Each node is linked to the next step
of the same thread and, for fork steps, to the forked thread's first step;
edges carry the rule name of their source step.  Node 0 is the root.

A prefix (downward-closed node set) is sibling-closed when, for every fork
node, either both successor steps are included or neither is.  Leaves of a
sibling-closed prefix satisfy the obligation/credit sum equality when the
run starts from a complete, balanced bundle.

Built over finite prefixes only: a node whose successors lie beyond the
trace is a leaf, and a fork node missing one of its two successors must stay
a leaf (expanding only the surviving side would leak the forked-away
resources out of the leaf sums).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ghost import (
    AnnotatedTrace,
    RA_FORK,
    RA_LOOP,
)
from .lang import Continuation, pretty_continuation


class PrefixError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    src: int
    tid: int  # thread performing the target step
    rule: str  # rule name of the source step
    dst: int


@dataclass(frozen=True)
class NodeInfo:
    tid: int
    rule: str
    obligations: int
    credits: int
    cont: Continuation


class ProgramOrderGraph:
    root = 0

    def __init__(self, info: list[NodeInfo], edges: list[Edge], initial_bundle: tuple[int, int]):
        self.info = tuple(info)
        self.edges = tuple(edges)
        self.initial_bundle = initial_bundle
        self.out: dict[int, tuple[Edge, ...]] = {}
        self.pred: dict[int, int] = {}
        grouped: dict[int, list[Edge]] = {}
        for e in self.edges:
            grouped.setdefault(e.src, []).append(e)
            self.pred[e.dst] = e.src
        self.out = {src: tuple(es) for src, es in grouped.items()}

    @property
    def nodes(self) -> range:
        return range(len(self.info))

    def successors(self, n: int) -> tuple[int, ...]:
        return tuple(e.dst for e in self.out.get(n, ()))


def build_pog(trace: AnnotatedTrace) -> ProgramOrderGraph:
    """Graph over the steps of a finite annotated trace prefix."""
    steps = trace.steps
    if len(trace.initial.threads) != 1:
        raise PrefixError("trace must start from a singleton pool")
    b0 = trace.initial.threads[0][1].bundle
    info: list[NodeInfo] = []
    for s in steps:
        entry = s.before.get(s.label.tid)
        info.append(
            NodeInfo(
                s.label.tid,
                s.label.rule,
                entry.bundle.chunks[0],
                entry.bundle.credits,
                entry.cont,
            )
        )
    # ids are never reused: a terminating thread forked a strictly higher id
    # first, so the largest id stays live until an exit clears the pool, and
    # grouping steps by tid groups them by thread
    occurrences: dict[int, list[int]] = {}
    for i, s in enumerate(steps):
        occurrences.setdefault(s.label.tid, []).append(i)
    edges: list[Edge] = []
    for i, s in enumerate(steps):
        tid = s.label.tid
        own = occurrences[tid]
        pos = own.index(i)
        if pos + 1 < len(own):
            j = own[pos + 1]
            edges.append(Edge(i, tid, info[i].rule, j))
        born = set(s.after.tids()) - set(s.before.tids())
        if born:
            (child,) = born
            child_steps = [l for l in occurrences.get(child, []) if l > i]
            if child_steps:
                j = min(child_steps)
                edges.append(Edge(i, child, info[i].rule, j))
    edges.sort(key=lambda e: (e.src, e.dst))
    return ProgramOrderGraph(info, edges, (b0.chunks[0], b0.credits))


def downward_closed(prefix: set[int] | frozenset[int], g: ProgramOrderGraph) -> bool:
    return all(n == g.root or g.pred.get(n) in prefix for n in prefix)


def _truncated_fork(g: ProgramOrderGraph, n: int) -> bool:
    return g.info[n].rule == RA_FORK and len(g.out.get(n, ())) < 2


def sibling_closed(prefix: set[int] | frozenset[int], g: ProgramOrderGraph) -> bool:
    """All siblings of every prefix node are in the prefix; at the trace
    boundary, a fork node with a missing successor must have none inside."""
    pset = set(prefix)
    for n in pset:
        if n == g.root:
            continue
        p = g.pred.get(n)
        if p is None:
            continue
        if not {e.dst for e in g.out.get(p, ())} <= pset:
            return False
    for n in pset:
        if _truncated_fork(g, n) and any(d in pset for d in g.successors(n)):
            return False
    return True


def _expandable(g: ProgramOrderGraph, n: int) -> bool:
    if g.info[n].rule == RA_LOOP:
        return False  # expanding a loop step makes a loop-labeled edge internal
    if _truncated_fork(g, n):
        return False
    return bool(g.out.get(n))


def max_loopfree_sc_prefix(g: ProgramOrderGraph) -> frozenset[int]:
    """The unique maximal sibling-closed downward-closed prefix whose internal
    edges carry no loop rule."""
    if not len(g.info):
        return frozenset()
    admitted = {g.root}
    frontier = [g.root]
    while frontier:
        n = frontier.pop()
        if not _expandable(g, n):
            continue
        for d in g.successors(n):
            if d not in admitted:
                admitted.add(d)
                frontier.append(d)
    return frozenset(admitted)


def random_sc_loopfree_prefix(g: ProgramOrderGraph, rng: random.Random) -> frozenset[int]:
    """A random sibling-closed downward-closed loop-edge-free prefix."""
    if not len(g.info):
        return frozenset()
    admitted = {g.root}
    while True:
        candidates = [
            n
            for n in admitted
            if _expandable(g, n) and any(d not in admitted for d in g.successors(n))
        ]
        if not candidates or rng.random() < 0.25:
            break
        n = rng.choice(candidates)
        admitted.update(g.successors(n))
    return frozenset(admitted)


def leaves(g: ProgramOrderGraph, prefix: set[int] | frozenset[int]) -> frozenset[int]:
    """Nodes of the prefix with no outgoing edge inside the prefix."""
    pset = set(prefix)
    return frozenset(n for n in pset if not any(d in pset for d in g.successors(n)))


@dataclass(frozen=True)
class LeafBalance:
    obligations: int
    credits: int
    equal: bool
    leaves: tuple[int, ...]
    leaf_data: tuple[tuple[int, int, int, int], ...]  # (node, tid, obligations, credits)


def check_leaf_balance(g: ProgramOrderGraph, prefix: set[int] | frozenset[int]) -> LeafBalance:
    """Sum obligations and credits over the threads stepped at the prefix leaves.

    Preconditions are reported, not silently computed: the prefix must be a
    sibling-closed downward-closed subset and the run must start from a
    complete bundle with obligations matching credits (runs of verified
    programs start from (0|0)).
    """
    pset = set(prefix)
    if not pset <= set(g.nodes):
        raise PrefixError("prefix contains unknown nodes")
    if not downward_closed(pset, g):
        raise PrefixError("prefix is not downward-closed")
    if not sibling_closed(pset, g):
        raise PrefixError("prefix is not sibling-closed")
    o0, c0 = g.initial_bundle
    if o0 != c0:
        raise PrefixError("initial bundle is not balanced")
    leaf_nodes = tuple(sorted(leaves(g, pset)))
    data = tuple(
        (n, g.info[n].tid, g.info[n].obligations, g.info[n].credits) for n in leaf_nodes
    )
    total_o = sum(d[2] for d in data)
    total_c = sum(d[3] for d in data)
    return LeafBalance(total_o, total_c, total_o == total_c, leaf_nodes, data)


def to_dot(g: ProgramOrderGraph, prefix: set[int] | frozenset[int] | None = None) -> str:
    """DOT rendering: nodes "i: tid/rule", loop-rule edges dashed, optional
    shaded cluster for a prefix."""
    lines = ["digraph pog {", "  node [shape=box];"]
    if prefix:
        lines.append("  subgraph cluster_prefix {")
        lines.append("    style=filled;")
        lines.append("    color=lightgrey;")
        for n in sorted(prefix):
            lines.append(f"    n{n};")
        lines.append("  }")
    for n in g.nodes:
        info = g.info[n]
        lines.append(f'  n{n} [label="{n}: {info.tid}/{info.rule}"];')
    for e in g.edges:
        style = ' [style=dashed, label="%s"]' if e.rule == RA_LOOP else ' [label="%s"]'
        lines.append(f"  n{e.src} -> n{e.dst}" + style % e.rule + ";")
    lines.append("}")
    return "\n".join(lines)


def describe_leaf(g: ProgramOrderGraph, n: int) -> str:
    info = g.info[n]
    return (
        f"step {n}: thread {info.tid} ({info.obligations}|{info.credits}) "
        f"{pretty_continuation(info.cont)}"
    )

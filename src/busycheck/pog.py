"""Program order graphs over annotated trace prefixes.

Node i is the i-th step of the trace.  Each node is linked to the next step
of the same thread and, for fork steps, to the forked thread's first step;
an edge is labelled with the rule of its source step.  Node 0 is the root.

A prefix (downward-closed node set) is sibling-closed when, for every fork
node, either both successor steps are included or neither is.  Leaves of a
sibling-closed prefix satisfy the obligation/credit sum equality when the
run starts with as many obligations as credits.  `check_leaf_balance`
validates a prefix and sums its leaves in one pass over its nodes; it
refuses an unknown node first, then a prefix not downward-closed, then one
not sibling-closed, then an unbalanced initial bundle.

One walk grows loop-edge-free sibling-closed prefixes from the root:
`max_loopfree_sc_prefix` expands every node it may (`graph --prefix` shades
that prefix), and `random_sc_loopfree_prefix` stops at random (the campaign
checks three such prefixes per run).

Built over finite prefixes only: a node whose successors lie beyond the
trace is a leaf, and a fork node missing one of its two successors must stay
a leaf (expanding only the surviving side would leak the forked-away
resources out of the leaf sums).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .ghost import (
    AnnotatedThread,
    AnnotatedTrace,
    RA_FORK,
    RA_LOOP,
)
from .lang import Printer
from .semantics import TraceStep


class PrefixError(ValueError):
    pass


class ProgramOrderGraph:
    """`info[n]` is annotated step n; `out[n]` holds node n's successors in
    increasing order, so `edges`, the (src, dst) pairs read node by node, is
    sorted; `pred` maps a node to its predecessor."""

    root = 0

    def __init__(self, info: tuple[TraceStep, ...], out: list[tuple[int, ...]], pred: dict[int, int],
                 initial_bundle: tuple[int, int]):
        self.info = info
        self.out = tuple(out)
        self.pred = pred
        self.edges = tuple((src, dst) for src, dsts in enumerate(self.out) for dst in dsts)
        self.initial_bundle = initial_bundle

    @property
    def nodes(self) -> range:
        return range(len(self.info))

    def entry(self, n: int) -> AnnotatedThread:
        """The thread that step n steps, as it stands before the step."""
        step = self.info[n]
        return step.before.get(step.tid)


def build_pog(trace: AnnotatedTrace) -> ProgramOrderGraph:
    """Graph over the steps of a finite annotated trace prefix."""
    steps = trace.steps
    if len(trace.initial.threads) != 1:
        raise PrefixError("trace must start from a singleton pool")
    start = trace.initial.threads[0][1]
    # ids are never reused: a terminating thread forked a strictly higher id
    # first, so the largest id stays live until an exit clears the pool, and
    # a thread's steps are the steps with its tid.  One pass links each step
    # to the thread's previous step, or to the fork that made the thread, so
    # a step's successors are met in increasing order.
    out: list[tuple[int, ...]] = [()] * len(steps)
    pred: dict[int, int] = {}
    last: dict[int, int] = {}  # tid -> its latest step, or the fork step before its first
    for i, s in enumerate(steps):
        tid = s.tid
        j = last.get(tid)
        if j is not None:
            out[j] += (i,)
            pred[i] = j
        last[tid] = i
        child = s.child
        if child is not None:
            last[child] = i
    return ProgramOrderGraph(steps, out, pred, (start.obligations, start.credits))


def _truncated_fork(g: ProgramOrderGraph, n: int) -> bool:
    return g.info[n].rule == RA_FORK and len(g.out[n]) < 2


def _expandable(g: ProgramOrderGraph, n: int) -> bool:
    # expanding a loop step makes a loop-labeled edge internal
    return g.info[n].rule != RA_LOOP and not _truncated_fork(g, n) and bool(g.out[n])


def _loopfree_sc_prefix(g: ProgramOrderGraph, rng: random.Random | None) -> frozenset[int]:
    """Every node but the root has one predecessor, so a node's successors
    enter the prefix only when it is expanded.  `frontier` holds the admitted
    nodes that are expandable and not yet expanded.  Without an `rng` each
    round expands the last of them; with one, it stops with probability 1/4,
    or else expands one drawn uniformly."""
    if not len(g.info):
        return frozenset()
    admitted = [g.root]
    frontier = [g.root] if _expandable(g, g.root) else []
    while frontier:
        if rng is not None:
            if rng.random() < 0.25:
                break
            i = rng.randrange(len(frontier))
            frontier[i], frontier[-1] = frontier[-1], frontier[i]
        for d in g.out[frontier.pop()]:
            admitted.append(d)
            if _expandable(g, d):
                frontier.append(d)
    return frozenset(admitted)


def max_loopfree_sc_prefix(g: ProgramOrderGraph) -> frozenset[int]:
    """The unique maximal loop-edge-free sibling-closed prefix: every expandable node expanded."""
    return _loopfree_sc_prefix(g, None)


def random_sc_loopfree_prefix(g: ProgramOrderGraph, rng: random.Random) -> frozenset[int]:
    """A random loop-edge-free sibling-closed prefix, drawn from `rng`."""
    return _loopfree_sc_prefix(g, rng)


class LeafBalance(NamedTuple):
    obligations: int
    credits: int
    equal: bool
    leaves: tuple[int, ...]


def check_leaf_balance(g: ProgramOrderGraph, prefix: set[int] | frozenset[int]) -> LeafBalance:
    """Sum obligations and credits over the threads stepped at the prefix leaves.

    Preconditions are reported, not silently computed: the prefix must be a
    sibling-closed downward-closed subset and the run must start with
    obligations matching credits (runs of verified programs start from
    (0|0)).  A refusal names the first of the module docstring's failures
    that any node shows.

    Sibling closure is asked of each node's successors: all or none inside,
    and none for a fork whose other successor lies beyond the trace.  On a
    downward-closed prefix that is closure under siblings.
    """
    pset = frozenset(prefix)  # a frozenset is not copied
    nodes, out, pred, root = g.nodes, g.out, g.pred, g.root
    disjoint, superset = pset.isdisjoint, pset.issuperset
    downward = sibling = True
    leaf_nodes = []
    total_o = total_c = 0
    for n in pset:
        # membership in the range answers as membership in a set of its values
        # would, without building one per call
        if n not in nodes:
            raise PrefixError("prefix contains unknown nodes")
        if n != root and pred.get(n) not in pset:
            downward = False
        if disjoint(out[n]):
            e = g.entry(n)
            total_o += e.obligations
            total_c += e.credits
            leaf_nodes.append(n)
        elif not superset(out[n]) or _truncated_fork(g, n):
            sibling = False
    if not downward:
        raise PrefixError("prefix is not downward-closed")
    if not sibling:
        raise PrefixError("prefix is not sibling-closed")
    o0, c0 = g.initial_bundle
    if o0 != c0:
        raise PrefixError("initial bundle is not balanced")
    leaf_nodes.sort()
    return LeafBalance(total_o, total_c, total_o == total_c, tuple(leaf_nodes))


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
    for n, step in enumerate(g.info):
        lines.append(f'  n{n} [label="{n}: {step.tid}/{step.rule}"];')
    for src, dst in g.edges:
        rule = g.info[src].rule
        style = ' [style=dashed, label="%s"]' if rule == RA_LOOP else ' [label="%s"]'
        lines.append(f"  n{src} -> n{dst}" + style % rule + ";")
    lines.append("}")
    return "\n".join(lines)


def describe_leaf(g: ProgramOrderGraph, n: int) -> str:
    e = g.entry(n)
    return (
        f"step {n}: thread {g.info[n].tid} ({e.obligations}|{e.credits}) "
        f"{Printer().continuation(e.cont)}"
    )

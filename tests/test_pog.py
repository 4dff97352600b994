import random

import pytest

from busycheck.ghost import (
    GS_INTRO,
    RA_FORK,
    RA_LOOP,
    StepRequest,
    annotate,
    initial_annotated_pool,
    run_annotated,
)
from busycheck.harness import GenConfig, gen_program
from busycheck.lang import parse
from busycheck.pog import (
    Edge,
    PrefixError,
    build_pog,
    check_leaf_balance,
    downward_closed,
    leaves,
    max_loopfree_sc_prefix,
    random_sc_loopfree_prefix,
    sibling_closed,
    to_dot,
)
from busycheck.proofs import verify
from busycheck.semantics import fuel_bound, initial_pool, round_robin, run, run_schedule


@pytest.fixture
def worked_graph(two_level_fork):
    proof = verify(two_level_fork)
    _, trace = run_schedule(initial_pool(two_level_fork), [0, 1, 2, 0, 0, 0])
    return build_pog(annotate(two_level_fork, proof, trace))


def test_worked_trace_edges(worked_graph):
    g = worked_graph
    assert set(g.edges) == {
        Edge(0, 0, GS_INTRO, 1),
        Edge(1, 1, RA_FORK, 2),  # forked thread's first step is its ghost intro
        Edge(1, 0, RA_FORK, 5),
        Edge(2, 1, GS_INTRO, 3),
        Edge(3, 2, RA_FORK, 4),
        Edge(5, 0, RA_LOOP, 6),
        Edge(6, 0, RA_LOOP, 7),
    }
    assert list(g.nodes) == list(range(8))
    assert g.root == 0


def test_single_thread_trace_is_a_path():
    c = parse("exit")
    proof = verify(c)
    _, trace = run_schedule(initial_pool(c), [0])
    g = build_pog(annotate(c, proof, trace))
    # ghost-free single step: one node, no edges
    assert len(g.info) == 1 and g.edges == ()

    c2 = parse("fork { exit }")
    proof2 = verify(c2)
    _, trace2 = run_schedule(initial_pool(c2), [0, 0])
    g2 = build_pog(annotate(c2, proof2, trace2))
    assert [e.dst for e in g2.out.get(0, ())] == [1]


def test_edge_minimality(worked_graph):
    g = worked_graph
    for e in g.edges:
        for k in range(e.src + 1, e.dst):
            assert g.info[k].tid != e.tid


def test_sibling_closed_examples(worked_graph):
    g = worked_graph
    # node 1 forks: its successor group is {2, 5}; taking one without the
    # other breaks closure
    assert not sibling_closed({0, 1, 2, 3, 4}, g)
    assert sibling_closed({0, 1, 2, 5}, g)
    assert sibling_closed({0, 1}, g)  # no successor of the fork included
    assert sibling_closed({0}, g)


def test_max_loopfree_prefix_on_worked_trace(worked_graph):
    g = worked_graph
    prefix = max_loopfree_sc_prefix(g)
    assert prefix == frozenset({0, 1, 2, 3, 5})
    assert sibling_closed(prefix, g) and downward_closed(prefix, g)
    # no internal edge comes off a loop step
    for e in g.edges:
        if e.src in prefix and e.dst in prefix:
            assert e.rule != RA_LOOP
    # maximality: adding any single admissible node breaks a requirement
    for extra in set(g.nodes) - prefix:
        bigger = prefix | {extra}
        ok = (
            downward_closed(bigger, g)
            and sibling_closed(bigger, g)
            and all(
                g.info[e.src].rule != RA_LOOP
                for e in g.edges
                if e.src in bigger and e.dst in bigger
            )
        )
        assert not ok


def test_max_loopfree_prefix_loop_free_trace_is_everything():
    c = parse("fork { exit }")
    proof = verify(c)
    _, trace = run_schedule(initial_pool(c), [0, 0, 1])
    g = build_pog(annotate(c, proof, trace))
    assert max_loopfree_sc_prefix(g) == frozenset(g.nodes)


def test_max_loopfree_prefix_boundary_first_step_loop():
    # a trace whose first step is already a loop step keeps only the root
    from busycheck.ghost import AnnotatedThread
    from busycheck.semantics import ThreadPool
    from busycheck.assertions import bundle
    from busycheck.lang import DONE, LOOP_SKIP, SeqCont

    pool = ThreadPool.of({0: AnnotatedThread(bundle((0,), 1), SeqCont(LOOP_SKIP, DONE))})
    requests = [StepRequest(0, "real")] * 3
    _, trace = run_annotated(pool, requests, 10)
    g = build_pog(trace)
    assert max_loopfree_sc_prefix(g) == frozenset({0})


def test_leaf_balance_on_worked_prefixes(worked_graph):
    g = worked_graph
    result = check_leaf_balance(g, max_loopfree_sc_prefix(g))
    assert result.equal and result.obligations == result.credits == 2
    assert result.leaves == (3, 5)
    small = check_leaf_balance(g, {0, 1, 2, 5})
    assert small.equal and small.obligations == 1
    assert check_leaf_balance(g, {0}).equal  # leaf holds (0|0)
    assert check_leaf_balance(g, set()).equal


def test_leaf_balance_preconditions(worked_graph):
    g = worked_graph
    with pytest.raises(PrefixError):
        check_leaf_balance(g, {0, 5})  # not downward closed
    with pytest.raises(PrefixError):
        check_leaf_balance(g, {0, 1, 2})  # not sibling closed
    with pytest.raises(PrefixError):
        check_leaf_balance(g, {99})


def test_leaf_balance_requires_balanced_start():
    pool = initial_annotated_pool(parse("exit"), obligations=1)
    _, trace = run_annotated(pool, [StepRequest(0, "real")], 10)
    g = build_pog(trace)
    with pytest.raises(PrefixError):
        check_leaf_balance(g, {0})


def test_leaf_balance_random_prefixes_on_generated_programs():
    rng = random.Random(99)
    checked = 0
    for c in gen_program(GenConfig(max_atoms=9, seed=47, count=220)):
        proof = verify(c)
        if proof is None:
            continue
        outcome, trace = run(initial_pool(c), round_robin(), fuel_bound(c))
        g = build_pog(annotate(c, proof, trace))
        for _ in range(3):
            prefix = random_sc_loopfree_prefix(g, rng)
            result = check_leaf_balance(g, prefix)
            assert result.equal, (c, sorted(prefix))
            checked += 1
        if checked >= 200:
            break
    assert checked >= 200


def test_loop_leaf_has_an_exit_witness():
    # in the max loop-free prefix of a verified busy-waiter, some other leaf
    # carries the obligation that justifies the waiting
    for c in gen_program(GenConfig(max_atoms=8, seed=53, count=80)):
        proof = verify(c)
        if proof is None:
            continue
        _, trace = run(initial_pool(c), round_robin(), fuel_bound(c))
        g = build_pog(annotate(c, proof, trace))
        prefix = max_loopfree_sc_prefix(g)
        loop_leaves = [n for n in leaves(g, prefix) if g.info[n].rule == RA_LOOP]
        if not loop_leaves:
            continue
        others = [
            n
            for n in leaves(g, prefix)
            if n not in loop_leaves and g.info[n].obligations >= 1
        ]
        assert others, c


def test_dot_output_counts(worked_graph):
    g = worked_graph
    dot = to_dot(g, max_loopfree_sc_prefix(g))
    lines = dot.splitlines()
    node_lines = [l for l in lines if "[label=" in l and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == len(g.info)
    assert len(edge_lines) == len(g.edges)
    assert any("style=dashed" in l for l in edge_lines)  # loop edges dashed
    assert "cluster_prefix" in dot

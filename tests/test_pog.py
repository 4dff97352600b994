import random
from collections import Counter

import pytest

from busycheck.ghost import (
    GS_INTRO,
    RA_FORK,
    RA_LOOP,
    AnnotatedThread,
    AnnotatedTrace,
    annotate,
    real_step,
)
from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import DONE, LOOP_SKIP, parse
from busycheck.pog import (
    PrefixError,
    ProgramOrderGraph,
    build_pog,
    check_leaf_balance,
    max_loopfree_sc_prefix,
    random_sc_loopfree_prefix,
    to_dot,
)
from busycheck.proofs import verify
from busycheck.semantics import (
    RandomFairScheduler,
    RoundRobinScheduler,
    ThreadPool,
    TraceStep,
    fuel_bound,
    initial_pool,
    run,
)
from reference import (
    NeverStops,
    downward_closed,
    initial_annotated_pool,
    leaves,
    loopfree_sc_prefixes,
    prefix_distribution,
    reference_check_leaf_balance,
    run_schedule,
    sibling_closed,
)


@pytest.fixture
def worked_graph(two_level_fork):
    proof = verify(two_level_fork)
    _, trace = run_schedule(initial_pool(two_level_fork), [0, 1, 2, 0, 0, 0])
    return build_pog(annotate(two_level_fork, proof, trace))


def test_worked_trace_edges(worked_graph):
    g = worked_graph
    assert g.edges == ((0, 1), (1, 2), (1, 5), (2, 3), (3, 4), (5, 6), (6, 7))
    # (src, thread of the target step, rule of the source step, dst)
    assert {(src, g.info[dst].tid, g.info[src].rule, dst) for src, dst in g.edges} == {
        (0, 0, GS_INTRO, 1),
        (1, 1, RA_FORK, 2),  # forked thread's first step is its ghost intro
        (1, 0, RA_FORK, 5),
        (2, 1, GS_INTRO, 3),
        (3, 2, RA_FORK, 4),
        (5, 0, RA_LOOP, 6),
        (6, 0, RA_LOOP, 7),
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
    assert g2.out[0] == (1,)


def test_edge_minimality(worked_graph):
    g = worked_graph
    for src, dst in g.edges:
        for k in range(src + 1, dst):
            assert g.info[k].tid != g.info[dst].tid


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
    for src, dst in g.edges:
        if src in prefix and dst in prefix:
            assert g.info[src].rule != RA_LOOP
    # maximality: adding any single admissible node breaks a requirement
    for extra in set(g.nodes) - prefix:
        bigger = prefix | {extra}
        ok = (
            downward_closed(bigger, g)
            and sibling_closed(bigger, g)
            and all(
                g.info[src].rule != RA_LOOP
                for src, dst in g.edges
                if src in bigger and dst in bigger
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
    pool = ThreadPool.of({0: AnnotatedThread(0, 1, LOOP_SKIP)})
    after, rule = real_step(pool, 0)
    g = build_pog(AnnotatedTrace(pool, (TraceStep(pool, 0, rule, after),) * 3))
    assert max_loopfree_sc_prefix(g) == frozenset({0})


def test_random_prefixes_are_the_enumerated_ones(worked_graph):
    g = worked_graph
    drawn = {random_sc_loopfree_prefix(g, random.Random(seed)) for seed in range(2000)}
    assert drawn == loopfree_sc_prefixes(g) == {
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2, 5}),
        frozenset({0, 1, 2, 3, 5}),
    }


def test_random_prefixes_follow_the_walks_distribution():
    # two levels of forks: the walk often has several nodes to draw from
    c = parse("fork { fork { loop skip }; fork { loop skip }; exit }; fork { loop skip }; loop skip")
    _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
    g = build_pog(annotate(c, verify(c), trace))
    chances = prefix_distribution(g)
    assert len(g.info) == 14 and len(chances) == 13
    draws = 4000
    counts = Counter(random_sc_loopfree_prefix(g, random.Random(seed)) for seed in range(draws))
    assert set(counts) == set(chances)
    for prefix, p in chances.items():
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(counts[prefix] - draws * p) <= 4 * sigma, (sorted(prefix), counts[prefix], draws * p)


def test_a_walk_that_never_stops_is_the_maximal_prefix():
    checked = 0
    for c in enumerate_programs(6):
        proof = verify(c)
        if proof is None:
            continue
        _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
        g = build_pog(annotate(c, proof, trace))
        assert random_sc_loopfree_prefix(g, NeverStops(checked)) == max_loopfree_sc_prefix(g), c
        checked += 1
    assert checked > 1000


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
    # membership is tested in the range of node ids, for any kind of value
    for unknown in (-1, len(g.info), "x"):
        with pytest.raises(PrefixError, match="prefix contains unknown nodes"):
            check_leaf_balance(g, {0, unknown})


def test_build_pog_refuses_a_trace_from_two_threads():
    pool = ThreadPool.of({0: AnnotatedThread(0, 1, LOOP_SKIP), 1: AnnotatedThread(0, 0, DONE)})
    after, rule = real_step(pool, 1)
    with pytest.raises(PrefixError) as refused:
        build_pog(AnnotatedTrace(pool, (TraceStep(pool, 1, rule, after),)))
    assert str(refused.value) == "trace must start from a singleton pool"


def test_leaf_balance_requires_balanced_start():
    pool = initial_annotated_pool(parse("exit"), obligations=1)
    after, rule = real_step(pool, 0)
    g = build_pog(AnnotatedTrace(pool, (TraceStep(pool, 0, rule, after),)))
    with pytest.raises(PrefixError):
        check_leaf_balance(g, {0})


def test_leaf_balance_random_prefixes_on_generated_programs():
    rng = random.Random(99)
    checked = 0
    for c in gen_program(GenConfig(max_atoms=9, seed=47, count=220)):
        proof = verify(c)
        if proof is None:
            continue
        outcome, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
        g = build_pog(annotate(c, proof, trace))
        # `edges`, `out` and `pred` describe one relation
        assert g.edges == tuple((src, dst) for src in g.nodes for dst in g.out[src])
        assert list(g.edges) == sorted((src, dst) for dst, src in g.pred.items())
        for _ in range(3):
            prefix = random_sc_loopfree_prefix(g, rng)
            result = check_leaf_balance(g, prefix)
            assert result.equal, (c, sorted(prefix))
            checked += 1
        if checked >= 200:
            break
    assert checked >= 200


def _outcome(check, g, prefix):
    """What `check` answers on `prefix`: its LeafBalance, or its refusal's message."""
    try:
        return check(g, prefix)
    except PrefixError as exc:
        return str(exc)


def _sweep_graphs():
    """The graphs of every Verified program of up to 5 atoms, run round-robin
    and under two seeded random schedulers."""
    for c in enumerate_programs(5):
        proof = verify(c)
        if proof is None:
            continue
        for scheduler in (RoundRobinScheduler(), RandomFairScheduler(3, 4), RandomFairScheduler(8, 4)):
            _, trace = run(initial_pool(c), scheduler, fuel_bound(c, 4))
            yield build_pog(annotate(c, proof, trace))


def _prefixes_to_check(g, rng):
    """Every node subset of a graph of up to 10 nodes; 300 seeded random
    subsets of a larger one, each also with a node added and with one dropped.
    Half of the random subsets grow from the root, so most are downward-closed."""
    nodes = list(g.nodes)
    if len(nodes) <= 10:
        yield from (frozenset(n for n in nodes if mask >> n & 1) for mask in range(1 << len(nodes)))
        return
    for i in range(300):
        if i % 2:
            prefix = {n for n in nodes if rng.random() < 0.5}
        else:
            prefix, frontier = {g.root}, [g.root]
            while frontier and rng.random() < 0.9:
                prefix.update(g.out[frontier.pop(rng.randrange(len(frontier)))])
                frontier = [n for n in prefix if not prefix.issuperset(g.out[n])]
        yield frozenset(prefix)
        yield frozenset(prefix) | {rng.choice(nodes)}
        yield frozenset(prefix) - {rng.choice(nodes)}


def test_one_pass_leaf_balance_matches_the_multi_pass_reference():
    rng = random.Random(20)
    graphs = large = 0
    answers = Counter()
    for balanced in _sweep_graphs():
        graphs += 1
        large += len(balanced.info) > 10
        # the same graph with a run that starts owing an obligation
        unbalanced = ProgramOrderGraph(balanced.info, balanced.out, balanced.pred, (1, 0))
        for i, prefix in enumerate(_prefixes_to_check(balanced, rng)):
            for g in (balanced, unbalanced):
                want = _outcome(reference_check_leaf_balance, g, prefix)
                assert _outcome(check_leaf_balance, g, prefix) == want, (g.info, sorted(prefix))
                answers[want if isinstance(want, str) else "answered"] += 1
            # a node outside the graph is refused first, whatever else is wrong
            unknown = prefix | {(-1, len(balanced.info), "x")[i % 3]}
            for check in (check_leaf_balance, reference_check_leaf_balance):
                assert _outcome(check, balanced, unknown) == "prefix contains unknown nodes"
    assert graphs > 500 and large > 0
    assert set(answers) == {
        "answered",
        "prefix is not downward-closed",
        "prefix is not sibling-closed",
        "initial bundle is not balanced",
    }


def test_loop_leaf_has_an_exit_witness():
    # in the max loop-free prefix of a verified busy-waiter, some other leaf
    # carries the obligation that justifies the waiting
    for c in gen_program(GenConfig(max_atoms=8, seed=53, count=80)):
        proof = verify(c)
        if proof is None:
            continue
        _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
        g = build_pog(annotate(c, proof, trace))
        prefix = max_loopfree_sc_prefix(g)
        loop_leaves = [n for n in leaves(g, prefix) if g.info[n].rule == RA_LOOP]
        if not loop_leaves:
            continue
        others = [
            n
            for n in leaves(g, prefix)
            if n not in loop_leaves and g.entry(n).obligations >= 1
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

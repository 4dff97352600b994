import random

import pytest

from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import (
    DONE,
    EXIT,
    LOOP_SKIP,
    Fork,
    Seq,
    SeqCont,
    parse,
    pretty,
    seq_of,
    size,
)
from busycheck.semantics import (
    AbruptExit,
    FixedScheduler,
    FuelExhausted,
    RandomFairScheduler,
    ST_FORK,
    ST_LOOP,
    TP_EXIT,
    TP_THREAD_TERM,
    Terminated,
    ThreadPool,
    UnknownThreadError,
    _all_waiting,
    explore,
    fuel_bound,
    initial_pool,
    is_fair_prefix,
    oracle_diverges,
    random_fair,
    rotated_round_robin,
    round_robin,
    run,
    SpawnTree,
    serialize_trace,
    spawn_tree,
    step_pool,
    step_thread,
)

LOOP_CONT = SeqCont(LOOP_SKIP, DONE)
EXIT_CONT = SeqCont(EXIT, DONE)


def test_step_thread_loop_self_steps():
    assert step_thread(LOOP_CONT) == (LOOP_CONT, ())


def test_step_thread_fork_spawns_body():
    k = SeqCont(Fork(EXIT), LOOP_CONT)
    assert step_thread(k) == (LOOP_CONT, (EXIT_CONT,))


def test_step_thread_done_has_no_step():
    assert step_thread(DONE) is None
    assert step_thread(EXIT_CONT) is None  # exit is a pool-level step


def test_step_pool_exit_clears_everything():
    pool = ThreadPool.of({0: EXIT_CONT, 3: LOOP_CONT})
    pool2, label = step_pool(pool, 0)
    assert pool2.is_empty()
    assert label.rule == TP_EXIT


def test_step_pool_removes_finished_thread():
    pool = ThreadPool.of({0: DONE})
    pool2, label = step_pool(pool, 0)
    assert pool2.is_empty()
    assert label.rule == TP_THREAD_TERM


def test_step_pool_fork_assigns_fresh_id():
    pool = initial_pool(parse("fork { exit }; loop skip"))
    pool2, label = step_pool(pool, 0)
    assert label.rule == ST_FORK
    assert pool2 == ThreadPool.of({0: LOOP_CONT, 1: EXIT_CONT})


def test_step_pool_fresh_id_is_max_plus_one():
    pool = ThreadPool.of({2: SeqCont(Fork(EXIT), DONE), 7: LOOP_CONT})
    pool2, _ = step_pool(pool, 2)
    assert pool2.tids() == (2, 7, 8)


def test_step_pool_unknown_tid():
    with pytest.raises(UnknownThreadError):
        step_pool(ThreadPool.of({0: DONE}), 1)


def test_run_waiting_pair_exits_abruptly():
    c = parse("fork { exit }; loop skip")
    assert not oracle_diverges(c)  # round-robin is fair, so the run must settle
    outcome, _ = run(initial_pool(c), round_robin(), 1000)
    assert isinstance(outcome, AbruptExit)


def test_run_bare_loop_exhausts_fuel():
    outcome, trace = run(initial_pool(LOOP_SKIP), round_robin(), 50)
    assert isinstance(outcome, FuelExhausted)
    assert len(trace) == 50
    assert all(s.label.rule == ST_LOOP for s in trace)


def test_run_exit_is_one_step():
    outcome, _ = run(initial_pool(EXIT), round_robin(), 10)
    assert outcome == AbruptExit(1)


def test_run_empty_pool_terminates_immediately():
    outcome, trace = run(ThreadPool.of({}), round_robin(), 10)
    assert outcome == Terminated(0)
    assert trace == []


TWO_LOOPERS = ThreadPool.of({0: LOOP_CONT, 1: LOOP_CONT})


def test_fair_prefix_round_robin_window_two():
    _, trace = run(TWO_LOOPERS, round_robin(), 20)
    assert is_fair_prefix(trace, 2)


def test_fair_prefix_detects_starvation():
    _, trace = run(TWO_LOOPERS, FixedScheduler([0] * 10), 10)
    assert not is_fair_prefix(trace, 2)
    assert not is_fair_prefix(trace, 5)


def test_fair_prefix_vacuous_past_the_end():
    _, trace = run(initial_pool(EXIT), round_robin(), 10)
    assert is_fair_prefix(trace, 10)


def test_round_robin_order():
    pool = ThreadPool.of({0: LOOP_CONT, 1: LOOP_CONT, 2: LOOP_CONT})
    _, trace = run(pool, round_robin(), 6)
    assert [s.label.tid for s in trace] == [0, 1, 2, 0, 1, 2]


def test_rotated_round_robin_order():
    _, trace = run(TWO_LOOPERS, rotated_round_robin(1), 4)
    assert [s.label.tid for s in trace] == [1, 0, 1, 0]


def test_random_fair_never_starves():
    pool = ThreadPool.of({0: LOOP_CONT, 1: LOOP_CONT, 2: LOOP_CONT, 3: LOOP_CONT})
    for seed in range(10):
        _, trace = run(pool, random_fair(seed, 8), 120)
        assert is_fair_prefix(trace, 8)


def test_random_fair_is_deterministic_in_seed():
    c = parse("fork { fork { loop skip }; exit }; loop skip")
    runs = [run(initial_pool(c), random_fair(11, 8), 60) for _ in range(2)]
    assert serialize_trace(runs[0][1]) == serialize_trace(runs[1][1])
    assert runs[0][0] == runs[1][0]


def _age_by_scan(trace, tid):
    # steps since `tid` last stepped (or was born), one thread at a time
    age = 0
    for step in reversed(trace):
        if step.label.tid == tid or tid not in step.before.tids():
            break
        age += 1
    return age


class _UniformScheduler:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def pick(self, trace, pool):
        return self.rng.choice(pool.tids())


def test_random_fair_ages_match_per_thread_scan():
    cfg = GenConfig(max_atoms=14, exit_prob=0.2, seed=31, count=60)
    checked = 0
    for i, c in enumerate(gen_program(cfg)):
        _, trace = run(initial_pool(c), _UniformScheduler(i), 80)
        pools = [s.before for s in trace] + [trace[-1].after]
        for n, pool in enumerate(pools):
            ages = RandomFairScheduler.ages(trace[:n], pool.tids())
            assert ages == {t: _age_by_scan(trace[:n], t) for t in pool.tids()}
            checked += len(ages)
    assert checked > 1000


def test_oracle_examples():
    assert not oracle_diverges(parse("fork { exit }; loop skip"))
    assert oracle_diverges(parse("loop skip"))
    assert not oracle_diverges(parse("fork { loop skip }; exit"))


def test_oracle_loop_then_dead_exit_diverges():
    assert oracle_diverges(parse("loop skip; exit"))


def test_spawn_tree_examples():
    assert spawn_tree(parse("fork { exit }; loop skip")) == SpawnTree(2, 1, 1)
    assert spawn_tree(parse("loop skip; exit")) == SpawnTree(1, 0, 1)
    assert spawn_tree(parse("exit; fork { loop skip }")) == SpawnTree(1, 1, 0)
    assert spawn_tree(parse("fork { fork { loop skip } }")) == SpawnTree(3, 0, 1)
    assert spawn_tree(parse("fork { fork { loop skip } }")).diverges
    assert not spawn_tree(parse("fork { exit }")).diverges  # an exit stop wins
    assert not spawn_tree(parse("fork { fork { exit } }; loop skip")).diverges
    assert spawn_tree(parse("fork { loop skip; fork { exit } }; loop skip")).diverges


def test_spawn_tree_agrees_with_explore_on_every_program_of_up_to_7_atoms():
    programs = 0
    for c in enumerate_programs(7):
        assert spawn_tree(c).diverges == explore(c).diverges, pretty(c)
        programs += 1
    assert programs == 10_878


def _km_program(k, m, end):
    """k x fork{ (fork{loop skip})^m; end }; loop skip."""
    thread = "fork { " + "fork { loop skip }; " * m + end + " }"
    return "; ".join([thread] * k) + "; loop skip"


def _nest_program(depth, end):
    body = end
    for _ in range(depth):
        body = "fork { " + body + " }"
    return body + "; loop skip"


def test_spawn_tree_agrees_with_explore_on_the_interleaving_families():
    # the families whose state spaces grow fastest, and their twins whose
    # `exit` becomes `loop skip`, so every thread ends up busy-waiting
    cases = [(_km_program(k, m, end), end) for k in (1, 2, 3) for m in range(5) for end in ("exit", "loop skip")]
    cases += [(_nest_program(d, end), end) for d in range(1, 13) for end in ("exit", "loop skip")]
    for text, end in cases:
        c = parse(text)
        tree, info = spawn_tree(c), explore(c)
        assert tree.diverges == info.diverges == (end == "loop skip"), text
        assert tree.threads >= info.max_threads, text


def test_spawn_tree_takes_deep_and_long_programs():
    c = LOOP_SKIP
    for _ in range(10_000):
        c = Fork(c)
    assert spawn_tree(c) == SpawnTree(10_001, 0, 1)
    flat = seq_of([Fork(EXIT)] * 10_000 + [LOOP_SKIP])
    assert spawn_tree(flat) == SpawnTree(10_001, 10_000, 1)


def _generated(seed, count=120, max_atoms=8):
    return gen_program(GenConfig(max_atoms=max_atoms, seed=seed, count=count))


def test_totality_property():
    # every tid in a reachable pool can step
    for c in _generated(seed=21, count=40):
        pool = initial_pool(c)
        seen = {pool}
        stack = [pool]
        while stack:
            p = stack.pop()
            for tid in p.tids():
                p2, _ = step_pool(p, tid)
                if p2 not in seen:
                    seen.add(p2)
                    stack.append(p2)


def test_pool_growth_property():
    for c in _generated(seed=22, count=60):
        _, trace = run(initial_pool(c), random_fair(5, 12), 80)
        for s in trace:
            delta = len(s.after.threads) - len(s.before.threads)
            if s.label.rule == TP_EXIT:
                assert delta == -len(s.before.threads)
            else:
                assert delta in (-1, 0, 1)


def test_oracle_vs_simulation_property():
    programs = [c for c in _generated(seed=23, count=25, max_atoms=7)]
    for c in programs:
        info = explore(c)
        if info.diverges:
            continue
        window = 4 * info.max_threads
        runs = [(rotated_round_robin(k), fuel_bound(c)) for k in range(info.max_threads)]
        runs += [(random_fair(seed, window), fuel_bound(c, window)) for seed in range(100)]
        for sched, fuel in runs:
            outcome, _ = run(initial_pool(c), sched, fuel)
            assert isinstance(outcome, (Terminated, AbruptExit)), (
                f"non-diverging program did not settle: {c}"
            )


def test_fuel_bound_is_atoms_plus_threads_times_window_plus_threads_plus_one():
    assert fuel_bound(parse("loop skip")) == (1 + 1) * (0 + 1 + 1)
    c = parse("fork { fork { exit } }; loop skip")  # 4 atoms, 2 forks
    assert fuel_bound(c) == (4 + 3) * (0 + 3 + 1)
    assert fuel_bound(c, 5) == (4 + 3) * (5 + 3 + 1)
    with pytest.raises(ValueError):
        fuel_bound(c, -1)


def test_fuel_bound_takes_deep_nesting_without_recursion():
    c = LOOP_SKIP
    for _ in range(5000):
        c = Fork(c)
    assert fuel_bound(c) == (5001 + 5001) * (5001 + 1)


def seq_atoms(c):
    """Top-level atoms of a command, in execution order."""
    out, stack = [], [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.second, node.first]
        else:
            out.append(node)
    return out


def _forks(c):
    return sum(1 + _forks(a.body) for a in seq_atoms(c) if isinstance(a, Fork))


def test_fuel_bound_settles_every_small_program_exhaustively():
    # the two halves of fuel_bound's proof, run by run: at most atoms + T
    # progress (non-loop) steps, and at most window + T - 1 loop steps in a
    # row while the pool is not all-waiting; and the outcome the oracle implies
    for c in enumerate_programs(5):
        info = explore(c)
        threads = _forks(c) + 1
        runs = [(rotated_round_robin(k), 0) for k in range(info.max_threads)]
        runs += [(random_fair(seed, window), window) for window in (1, 3, 8) for seed in range(2)]
        for sched, window in runs:
            start = initial_pool(c)
            outcome, trace = run(start, sched, fuel_bound(c, window))
            progress = stalled = 0
            waiting = _all_waiting(start)  # a loop step leaves the pool as it was
            for step in trace:
                if step.label.rule != ST_LOOP:
                    progress, stalled = progress + 1, 0
                    waiting = _all_waiting(step.after)
                elif not waiting:
                    stalled += 1
                    assert stalled <= window + threads - 1, (c, window)
            assert progress <= size(c) + threads, c
            if not info.diverges:
                assert isinstance(outcome, (Terminated, AbruptExit)), c
            else:
                assert isinstance(outcome, FuelExhausted), c
                assert _all_waiting(outcome.last_pool), c


def test_trace_serialization_format():
    c = parse("fork { exit }; loop skip")
    _, trace = run(initial_pool(c), round_robin(), 2)
    lines = serialize_trace(trace).splitlines()
    assert lines[0] == "0\t0\tST-Fork\t{0:fork { exit };loop skip;done}"
    assert lines[1] == "1\t1\tTP-Exit\t{0:loop skip;done,1:exit;done}"

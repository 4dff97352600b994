import random
from types import SimpleNamespace

import pytest

from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import (
    DONE,
    EXIT,
    LOOP_SKIP,
    Fork,
    Printer,
    Seq,
    parse,
    pretty,
    seq_of,
)
from busycheck import semantics
from busycheck.proofs import verify
from busycheck.semantics import (
    AbruptExit,
    FuelExhausted,
    RandomFairScheduler,
    RoundRobinScheduler,
    ST_FORK,
    ST_LOOP,
    TP_EXIT,
    TP_THREAD_TERM,
    Terminated,
    ThreadPool,
    UnknownThreadError,
    all_waiting,
    explore,
    fuel_bound,
    initial_pool,
    run,
    serialize_trace,
    step_pool,
    thread_alone_schedule,
)
from reference import (
    FixedScheduler,
    ReferenceRandomFairScheduler,
    fair_run_exists,
    is_fair_prefix,
    reference_run,
    replay,
    witness_distance,
)


def test_step_pool_loop_returns_the_same_pool():
    pool, rule = step_pool(TWO_LOOPERS, 1)
    assert pool is TWO_LOOPERS and rule == ST_LOOP


def test_step_pool_fork_keeps_the_tail_and_spawns_the_body():
    k = Seq(Fork(Seq(EXIT, LOOP_SKIP)), LOOP_SKIP)
    pool, rule = step_pool(ThreadPool.of({0: k, 1: LOOP_SKIP}), 0)
    assert rule == ST_FORK and pool.ids == (0, 1, 2)
    assert pool.get(0) is k.tail and pool.get(2) is k.head.body


def test_step_pool_done_removes_the_thread_and_exit_empties_the_pool():
    pool = ThreadPool.of({0: EXIT, 2: DONE, 5: LOOP_SKIP})
    after, rule = step_pool(pool, 2)
    assert rule == TP_THREAD_TERM and after == ThreadPool.of({0: EXIT, 5: LOOP_SKIP})
    after, rule = step_pool(pool, 0)
    assert rule == TP_EXIT and after.is_empty()


def test_step_pool_exit_clears_everything():
    pool = ThreadPool.of({0: EXIT, 3: LOOP_SKIP})
    pool2, rule = step_pool(pool, 0)
    assert pool2.is_empty()
    assert rule == TP_EXIT


def test_step_pool_removes_finished_thread():
    pool = ThreadPool.of({0: DONE})
    pool2, rule = step_pool(pool, 0)
    assert pool2.is_empty()
    assert rule == TP_THREAD_TERM


def test_step_pool_fork_assigns_fresh_id():
    pool = initial_pool(parse("fork { exit }; loop skip"))
    pool2, rule = step_pool(pool, 0)
    assert rule == ST_FORK
    assert pool2 == ThreadPool.of({0: LOOP_SKIP, 1: EXIT})


def test_step_pool_fresh_id_is_max_plus_one():
    pool = ThreadPool.of({2: Fork(EXIT), 7: LOOP_SKIP})
    pool2, _ = step_pool(pool, 2)
    assert pool2.ids == (2, 7, 8)


def test_step_pool_unknown_tid():
    with pytest.raises(UnknownThreadError):
        step_pool(ThreadPool.of({0: DONE}), 1)


def test_run_waiting_pair_exits_abruptly():
    c = parse("fork { exit }; loop skip")
    assert not explore(c).diverges  # round-robin is fair, so the run must settle
    outcome, _ = run(initial_pool(c), RoundRobinScheduler(), 1000)
    assert isinstance(outcome, AbruptExit)


def test_run_bare_loop_exhausts_fuel():
    outcome, trace = run(initial_pool(LOOP_SKIP), RoundRobinScheduler(), 50)
    assert isinstance(outcome, FuelExhausted)
    assert len(trace) == 50
    assert all(s.rule == ST_LOOP for s in trace)


def test_run_exit_is_one_step():
    outcome, _ = run(initial_pool(EXIT), RoundRobinScheduler(), 10)
    assert outcome == AbruptExit(1)


def test_run_empty_pool_terminates_immediately():
    outcome, trace = run(ThreadPool.of({}), RoundRobinScheduler(), 10)
    assert outcome == Terminated(0)
    assert trace == []


TWO_LOOPERS = ThreadPool.of({0: LOOP_SKIP, 1: LOOP_SKIP})


def test_fair_prefix_round_robin_window_two():
    _, trace = run(TWO_LOOPERS, RoundRobinScheduler(), 20)
    assert is_fair_prefix(trace, 2)


def test_fair_prefix_detects_starvation():
    _, trace = run(TWO_LOOPERS, FixedScheduler([0] * 10), 10)
    assert not is_fair_prefix(trace, 2)
    assert not is_fair_prefix(trace, 5)


def test_fair_prefix_vacuous_past_the_end():
    _, trace = run(initial_pool(EXIT), RoundRobinScheduler(), 10)
    assert is_fair_prefix(trace, 10)


def test_round_robin_order():
    pool = ThreadPool.of({0: LOOP_SKIP, 1: LOOP_SKIP, 2: LOOP_SKIP})
    _, trace = run(pool, RoundRobinScheduler(), 6)
    assert [s.tid for s in trace] == [0, 1, 2, 0, 1, 2]


def test_rotated_round_robin_order():
    _, trace = run(TWO_LOOPERS, RoundRobinScheduler(1), 4)
    assert [s.tid for s in trace] == [1, 0, 1, 0]


def test_random_fair_never_starves():
    pool = ThreadPool.of({0: LOOP_SKIP, 1: LOOP_SKIP, 2: LOOP_SKIP, 3: LOOP_SKIP})
    for seed in range(10):
        _, trace = run(pool, RandomFairScheduler(seed, 8), 120)
        assert is_fair_prefix(trace, 8)


def test_random_fair_is_deterministic_in_seed():
    c = parse("fork { fork { loop skip }; exit }; loop skip")
    runs = [run(initial_pool(c), RandomFairScheduler(11, 8), 60) for _ in range(2)]
    assert serialize_trace(runs[0][1]) == serialize_trace(runs[1][1])
    assert runs[0][0] == runs[1][0]


def _age_by_scan(trace, tid):
    # steps since `tid` last stepped (or was born), one thread at a time
    age = 0
    for step in reversed(trace):
        if step.tid == tid or tid not in step.before.ids:
            break
        age += 1
    return age


def _reference_ages(trace, tids):
    """Steps since each of `tids` last stepped (or was born).

    The random scheduler's ages before it kept a run history: one backward
    pass over the trace, which stops once every age is known.
    """
    ages = {}
    pending = set(tids)
    for depth, step in enumerate(reversed(trace)):
        if not pending:
            break
        present = set(step.before.ids)
        for tid in [t for t in pending if t == step.tid or t not in present]:
            ages[tid] = depth
            pending.remove(tid)
    ages.update(dict.fromkeys(pending, len(trace)))
    return ages


class _ReferenceRandomFair:
    """`RandomFairScheduler.pick` computed from `_reference_ages` over the
    run's steps so far, drawing from one `random.Random(seed)` per run."""

    def __init__(self, seed, window):
        self.seed, self.window = seed, window

    def pick(self, pool, last):
        if last is None:
            self.trace, self.rng = [], random.Random(self.seed)
        else:
            self.trace.append(last)
        tids = pool.ids
        deadline = max(1, self.window - len(tids))
        ages = _reference_ages(self.trace, tids)
        oldest_age, neg_tid = max((ages[t], -t) for t in tids)
        if oldest_age >= deadline:
            return -neg_tid
        return self.rng.choice(tids)


class _UniformScheduler:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def pick(self, pool, last):
        return self.rng.choice(pool.ids)


def test_random_fair_ages_match_per_thread_scan():
    cfg = GenConfig(max_atoms=14, exit_prob=0.2, seed=31, count=60)
    checked = 0
    for i, c in enumerate(gen_program(cfg)):
        _, trace = run(initial_pool(c), _UniformScheduler(i), 80)
        pools = [s.before for s in trace] + [trace[-1].after]
        for n, pool in enumerate(pools):
            ages = _reference_ages(trace[:n], pool.ids)
            assert ages == {t: _age_by_scan(trace[:n], t) for t in pool.ids}
            checked += len(ages)
    assert checked > 1000


def _schedule(pool, scheduler, fuel):
    return [s.tid for s in run(pool, scheduler, fuel)[1]]


@pytest.mark.parametrize("window", [1, 3, 16])
def test_random_fair_schedules_match_the_reference_on_every_program_of_up_to_5_atoms(window):
    forced = 0
    for c in enumerate_programs(5):
        fuel = fuel_bound(c, window)
        for seed in range(4):
            got = _schedule(initial_pool(c), RandomFairScheduler(seed, window), fuel)
            assert got == _schedule(initial_pool(c), _ReferenceRandomFair(seed, window), fuel), c
            assert got == _schedule(initial_pool(c), ReferenceRandomFairScheduler(seed, window), fuel), c
            forced += len(got)
    assert forced > 1000


@pytest.mark.parametrize("window", [1, 3, 16])
def test_random_fair_schedules_match_the_reference_on_waiters(window):
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        c = parse("; ".join(["fork { loop skip }"] * n) + "; exit")
        for seed in range(4):
            got = _schedule(initial_pool(c), RandomFairScheduler(seed, window), fuel_bound(c, window))
            want = _schedule(initial_pool(c), _ReferenceRandomFair(seed, window), fuel_bound(c, window))
            assert got == want, (n, seed)


@pytest.mark.parametrize("window", [1, 3, 16])
def test_random_fair_schedules_match_the_scanning_scheduler_on_waiters_up_to_240(window):
    for n in (60, 120, 240):
        c = parse("; ".join(["fork { loop skip }"] * n) + "; exit")
        for seed in range(3):
            got = _schedule(initial_pool(c), RandomFairScheduler(seed, window), fuel_bound(c, window))
            want = _schedule(initial_pool(c), ReferenceRandomFairScheduler(seed, window), fuel_bound(c, window))
            assert got == want, (n, seed)


@pytest.mark.parametrize("window", [1, 5])
def test_one_random_fair_scheduler_drives_runs_in_turn_as_fresh_ones_do(window):
    # a run's first pick starts the run state afresh, also after a run that
    # fuel cut short
    sched = RandomFairScheduler(2, window)
    for i, c in enumerate(_generated(seed=25, count=30)):
        for fuel in (fuel_bound(c, window), i % 5):
            got = _schedule(initial_pool(c), sched, fuel)
            assert got == _schedule(initial_pool(c), RandomFairScheduler(2, window), fuel), c
            assert got == _schedule(initial_pool(c), _ReferenceRandomFair(2, window), fuel), c


def test_a_random_run_builds_one_generator(monkeypatch):
    # a cost count: a run seeds one generator, not one per unforced pick
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(semantics, "random", SimpleNamespace(Random=Counting))
    three = parse("fork { loop skip }; fork { loop skip }; loop skip")
    waiters = parse("fork { loop skip }; " * 60 + "exit")
    for c, fuel in ((three, 50_000), (waiters, fuel_bound(waiters, 16))):
        built.clear()
        _, trace = run(initial_pool(c), RandomFairScheduler(3, 16), fuel)
        assert built == [(3,)] and len(trace) > 1000


def test_pool_operations_match_a_dict_reference():
    rng = random.Random(7)
    for _ in range(150):
        pool, ref = ThreadPool.of({}), {}
        for step in range(40):
            op = rng.choice("ggrrex")
            tid = rng.randrange(-1, max(ref, default=0) + 3)
            entry = ("entry", step)
            if op == "x":
                pool = pool.extend(entry)
                ref[max(ref, default=-1) + 1] = entry
            elif tid not in ref:
                call = {"g": pool.get, "r": lambda t: pool.replace(t, 0), "e": pool.remove}[op]
                with pytest.raises(UnknownThreadError):
                    call(tid)
            elif op == "g":
                assert pool.get(tid) is ref[tid]
            else:
                old = pool
                if op == "r":
                    pool = pool.replace(tid, entry)
                    ref[tid] = entry
                else:
                    pool = pool.remove(tid)
                    del ref[tid]
                # every untouched pair object is shared with the old pool
                kept = {t: pair for t, pair in zip(old.ids, old.threads) if t != tid}
                assert all(pair is kept[t] for t, pair in zip(pool.ids, pool.threads) if t != tid)
            fresh = ThreadPool.of(ref)
            assert pool == fresh and hash(pool) == hash(fresh)
            assert pool.ids == fresh.ids == tuple(sorted(ref))
            assert [pool.get(t) for t in ref] == list(ref.values())


def test_pool_equality_and_hash_ignore_the_carried_ids():
    threads = ((0, LOOP_SKIP), (3, EXIT))
    plain, odd = ThreadPool(threads), ThreadPool(threads, (5, 9))
    assert plain.ids == (0, 3)
    assert plain == odd and hash(plain) == hash(odd) and repr(plain) == repr(odd)
    assert {plain: "found"}[odd] == "found"
    assert ThreadPool(threads[:1], (0, 3)) != plain
    # pools carrying wrong ids are still one key, whichever came first
    wrong = ThreadPool(threads, (1, 2))
    assert len({plain, odd, wrong}) == 1 and {odd: 1, wrong: 2} == {plain: 2}
    assert plain != threads and plain != (threads, (0, 3))
    # and a pool is immutable
    for name in ("threads", "ids", "other"):
        with pytest.raises(AttributeError):
            setattr(plain, name, ())
        with pytest.raises(AttributeError):
            delattr(plain, name)
    assert plain.threads == threads and plain.ids == (0, 3)


def _fair_by_windows(trace, window):
    """`is_fair_prefix` as one window per step: the definition it implements."""
    n = len(trace)
    for k in range(n):
        if k + window > n:
            break
        scheduled = {trace[j].tid for j in range(k, k + window)}
        for tid in trace[k].before.ids:
            if tid not in scheduled:
                return False
    return True


def test_is_fair_prefix_agrees_with_the_windowed_definition():
    verdicts = set()
    for i, c in enumerate(_generated(seed=24, count=80, max_atoms=10)):
        for sched in (RoundRobinScheduler(), RoundRobinScheduler(i), RandomFairScheduler(i, 6), _UniformScheduler(i)):
            _, trace = run(initial_pool(c), sched, 50)
            for n in {len(trace), len(trace) // 2, 7}:
                for window in range(1, 12):
                    got = is_fair_prefix(trace[:n], window)
                    assert got == _fair_by_windows(trace[:n], window), (c, i, n, window)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_trace_printing_renders_each_pool_entry_once(monkeypatch):
    # a cost count: rendered entries grow with the steps, not with the steps
    # times the threads (which every step's pool would cost printed afresh)
    rendered = []
    continuation = Printer.continuation
    monkeypatch.setattr(Printer, "continuation", lambda self, k: rendered.append(k) or continuation(self, k))
    for n in (10, 40):
        c = parse("; ".join(["fork { loop skip }"] * n) + "; exit")
        _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
        rendered.clear()
        text = serialize_trace(trace)
        assert len(rendered) <= len(trace) + 1
        assert sum(len(s.before.threads) for s in trace) > 10 * len(rendered)
        assert text.count("\n") + 1 == len(trace)


def test_oracle_examples():
    assert not explore(parse("fork { exit }; loop skip")).diverges
    assert explore(parse("loop skip")).diverges
    assert not explore(parse("fork { loop skip }; exit")).diverges


def test_oracle_loop_then_dead_exit_diverges():
    assert explore(parse("loop skip; exit")).diverges


def _stops(c):
    """The thread-alone schedule of `c` and the pool it replays to."""
    schedule = thread_alone_schedule(c)
    return schedule, replay(c, schedule)


def test_thread_alone_schedule_examples():
    # each schedule replays to the threads stopped at `exit` or `loop skip`
    examples = {
        "fork { exit }; loop skip": ([0], {0: "loop skip", 1: "exit"}),
        "loop skip; exit": ([], {0: "loop skip; exit"}),
        "exit; fork { loop skip }": ([], {0: "exit; fork { loop skip }"}),
        "fork { fork { loop skip } }": ([0, 1, 1, 0], {2: "loop skip"}),
        "fork { exit }": ([0, 0], {1: "exit"}),
        "fork { fork { exit } }; loop skip": ([0, 1, 1], {0: "loop skip", 2: "exit"}),
        "fork { loop skip; fork { exit } }; loop skip": ([0], {0: "loop skip", 1: "loop skip; fork { exit }"}),
        "fork { fork { loop skip }; exit }; fork { loop skip }": (
            [0, 1, 0, 0],
            {1: "exit", 2: "loop skip", 3: "loop skip"},
        ),
    }
    for text, (schedule, stops) in examples.items():
        assert _stops(parse(text)) == (schedule, ThreadPool.of({t: parse(k) for t, k in stops.items()})), text
    diverging = [text for text in examples if all_waiting(_stops(parse(text))[1])]
    assert diverging == ["loop skip; exit", "fork { fork { loop skip } }", "fork { loop skip; fork { exit } }; loop skip"]


def test_thread_alone_schedule_agrees_with_explore_on_every_program_of_up_to_7_atoms():
    # and `explore`'s lemma, that a fair infinite run exists iff some reachable
    # non-empty pool is all-waiting, agrees with a fair-cycle search, which
    # decides it from the definition of fairness
    programs = pools = 0
    for c in enumerate_programs(7):
        info = explore(c)
        diverges, reachable = fair_run_exists(c)
        _, pool = _stops(c)
        assert all(k.head in (EXIT, LOOP_SKIP) for _, k in pool.threads), pretty(c)
        assert all_waiting(pool) == info.diverges == diverges, pretty(c)
        assert reachable == info.state_count, pretty(c)
        programs += 1
        pools += reachable
    assert (programs, pools) == (10_878, 48_345)


def test_thread_alone_schedule_is_a_shortest_witness():
    # a Rejected program's schedule takes as few steps as any that reaches an
    # all-waiting pool, and a Verified program reaches none
    rejected = 0
    for c in enumerate_programs(7):
        schedule, pool = _stops(c)
        distance = witness_distance(c)
        if verify(c) is None:
            assert all_waiting(pool) and len(schedule) == distance, pretty(c)
            rejected += 1
        else:
            assert distance is None, pretty(c)
    assert rejected == 4031
    for n in (0, 1, 5, 40):
        assert thread_alone_schedule(parse("fork { loop skip }; " * n + "loop skip")) == [0] * n
def test_fair_cycle_search_examples():
    assert fair_run_exists(parse("loop skip")) == (True, 1)
    # the main thread's self-loop is a cycle, but not a fair one while the
    # forked thread, live in its pool, never steps on it
    assert fair_run_exists(parse("fork { exit }; loop skip"))[0] is False
    assert fair_run_exists(parse("fork { fork { exit } }; loop skip"))[0] is False
    assert fair_run_exists(parse("fork { loop skip }; loop skip"))[0] is True


def _km_program(k, m, end):
    """k x fork{ (fork{loop skip})^m; end }; loop skip."""
    thread = "fork { " + "fork { loop skip }; " * m + end + " }"
    return "; ".join([thread] * k) + "; loop skip"


def _nest_program(depth, end):
    body = end
    for _ in range(depth):
        body = "fork { " + body + " }"
    return body + "; loop skip"


def test_thread_alone_schedule_agrees_with_explore_on_the_interleaving_families():
    # the families whose state spaces grow fastest, and their twins whose
    # `exit` becomes `loop skip`, so every thread ends up busy-waiting
    cases = [(_km_program(k, m, end), end) for k in (1, 2, 3) for m in range(5) for end in ("exit", "loop skip")]
    cases += [(_nest_program(d, end), end) for d in range(1, 13) for end in ("exit", "loop skip")]
    for text, end in cases:
        c = parse(text)
        (_, pool), info = _stops(c), explore(c)
        assert all_waiting(pool) == info.diverges == (end == "loop skip"), text
        assert len(pool.ids) <= info.max_threads, text


def _same_run(got, want):
    """Whether two runs have the same outcome and steps: the same thread and
    rule, and pools that are equal, and one object wherever `want`'s are."""
    (outcome, trace), (want_outcome, want_trace) = got, want
    if outcome != want_outcome or len(trace) != len(want_trace):
        return False
    pools = {}  # id of a pool of `want` -> the pool of `got` in its place
    for step, want_step in zip(trace, want_trace):
        if (step.tid, step.rule) != (want_step.tid, want_step.rule):
            return False
        for pool, want_pool in ((step.before, want_step.before), (step.after, want_step.after)):
            if pool is not pools.setdefault(id(want_pool), pool) or pool != want_pool:
                return False
    return True


def test_settled_threads_run_as_the_reference_loop_does():
    # every program of up to 6 atoms and the interleaving families with their
    # twins, whose waiting threads settle, at the fuel bound and cut short
    programs = list(enumerate_programs(6))
    programs += [parse(_km_program(k, m, end)) for k in (1, 2, 3) for m in range(5) for end in ("exit", "loop skip")]
    programs += [parse(_nest_program(d, end)) for d in range(1, 13) for end in ("exit", "loop skip")]
    schedulers = [(RoundRobinScheduler(k), 0) for k in range(3)]
    schedulers += [(RandomFairScheduler(seed, window), window) for window in (1, 4, 16) for seed in range(2)]
    loops = 0
    for c in programs:
        for scheduler, window in schedulers:
            bound = fuel_bound(c, window)
            _, full = reference_run(initial_pool(c), scheduler, bound)
            for fuel in (bound, len(full) // 2):
                want = reference_run(initial_pool(c), scheduler, fuel)
                assert _same_run(run(initial_pool(c), scheduler, fuel), want), (pretty(c), scheduler, fuel)
            loops += sum(s.rule == ST_LOOP for s in full)
    assert loops > 500_000


def test_thread_alone_schedule_takes_deep_and_long_programs():
    c = LOOP_SKIP
    for _ in range(10_000):
        c = Fork(c)
    schedule, pool = _stops(c)
    assert schedule == [*range(10_000), *reversed(range(10_000))]
    assert pool == ThreadPool.of({10_000: LOOP_SKIP}) and all_waiting(pool)
    flat = seq_of([Fork(EXIT)] * 10_000 + [LOOP_SKIP])
    schedule, pool = _stops(flat)
    assert schedule == [0] * 10_000
    assert pool == ThreadPool.of({0: LOOP_SKIP, **dict.fromkeys(range(1, 10_001), EXIT)})


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
            for tid in p.ids:
                p2, _ = step_pool(p, tid)
                if p2 not in seen:
                    seen.add(p2)
                    stack.append(p2)


def test_pool_growth_property():
    for c in _generated(seed=22, count=60):
        _, trace = run(initial_pool(c), RandomFairScheduler(5, 12), 80)
        for s in trace:
            delta = len(s.after.threads) - len(s.before.threads)
            if s.rule == TP_EXIT:
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
        runs = [(RoundRobinScheduler(k), fuel_bound(c)) for k in range(info.max_threads)]
        runs += [(RandomFairScheduler(seed, window), fuel_bound(c, window)) for seed in range(100)]
        for sched, fuel in runs:
            outcome, _ = run(initial_pool(c), sched, fuel)
            assert isinstance(outcome, AbruptExit), (
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


def _atoms(c):
    """Atoms of `c`, counting inside fork bodies."""
    return sum(1 + (_atoms(a.body) if isinstance(a, Fork) else 0) for a in seq_atoms(c))


def test_fuel_bound_settles_every_small_program_exhaustively():
    # the two halves of fuel_bound's proof, run by run: at most atoms + T
    # progress (non-loop) steps, and at most window + T - 1 loop steps in a
    # row while the pool is not all-waiting; and the outcome the oracle implies
    for c in enumerate_programs(5):
        info = explore(c)
        threads = _forks(c) + 1
        runs = [(RoundRobinScheduler(k), 0) for k in range(info.max_threads)]
        runs += [(RandomFairScheduler(seed, window), window) for window in (1, 3, 8) for seed in range(2)]
        for sched, window in runs:
            start = initial_pool(c)
            outcome, trace = run(start, sched, fuel_bound(c, window))
            progress = stalled = 0
            waiting = all_waiting(start)  # a loop step leaves the pool as it was
            for step in trace:
                if step.rule != ST_LOOP:
                    progress, stalled = progress + 1, 0
                    waiting = all_waiting(step.after)
                elif not waiting:
                    stalled += 1
                    assert stalled <= window + threads - 1, (c, window)
            assert progress <= _atoms(c) + threads, c
            if not info.diverges:
                assert isinstance(outcome, AbruptExit), c
            else:
                assert isinstance(outcome, FuelExhausted), c
                assert all_waiting(outcome.last_pool), c


def test_trace_serialization_format():
    c = parse("fork { exit }; loop skip")
    _, trace = run(initial_pool(c), RoundRobinScheduler(), 2)
    lines = serialize_trace(trace).splitlines()
    assert lines[0] == "0\t0\tST-Fork\t{0:fork { exit };loop skip;done}"
    assert lines[1] == "1\t1\tTP-Exit\t{0:loop skip;done,1:exit;done}"

import pytest

from busycheck.ghost import (
    AnnotatedThread,
    AnnotationError,
    CancelUnderflow,
    GS_CANCEL,
    GS_INTRO,
    LOOP_HOLDS_OBLIGATION,
    LOOP_NEEDS_CREDIT,
    RA_EXIT,
    RA_FORK,
    RA_LOOP,
    RA_THREAD_TERM,
    SplitError,
    Stuck,
    TERM_HOLDS_OBLIGATION,
    annotate,
    check_balance,
    ghost_step,
    real_step,
    serialize_annotated_trace,
)
from busycheck.harness import enumerate_programs
from busycheck.lang import DONE, LOOP_SKIP, Done, Fork, Printer, Seq, parse
from busycheck.proofs import ForkSplit, verify
from busycheck.semantics import (
    ST_FORK,
    ST_LOOP,
    TP_EXIT,
    TP_THREAD_TERM,
    FuelExhausted,
    RandomFairScheduler,
    RoundRobinScheduler,
    ThreadPool,
    TraceStep,
    fuel_bound,
    UnknownThreadError,
    initial_pool,
    run,
)
from reference import initial_annotated_pool, run_schedule, tree_size


def _single(chunk, credits, cont=LOOP_SKIP):
    return ThreadPool.of({0: AnnotatedThread(chunk, credits, cont)})


def _counts(entry):
    return entry.obligations, entry.credits


def test_ghost_intro_spawns_a_pair():
    pool = _single(0, 0)
    after = ghost_step(pool, 0, GS_INTRO)
    assert _counts(after.get(0)) == (1, 1)
    after2 = ghost_step(_single(1, 0), 0, GS_INTRO)
    assert _counts(after2.get(0)) == (2, 1)


def test_ghost_cancel_requires_a_pair():
    pool = _single(2, 1)
    after = ghost_step(pool, 0, GS_CANCEL)
    assert _counts(after.get(0)) == (1, 0)
    with pytest.raises(CancelUnderflow):
        ghost_step(_single(0, 0), 0, GS_CANCEL)
    with pytest.raises(CancelUnderflow):
        ghost_step(_single(0, 3), 0, GS_CANCEL)


def test_ghost_steps_touch_only_the_stepped_thread():
    pool = ThreadPool.of(
        {
            0: AnnotatedThread(0, 0, LOOP_SKIP),
            1: AnnotatedThread(1, 2, LOOP_SKIP),
        }
    )
    after = ghost_step(pool, 0, GS_INTRO)
    assert after.get(1) == pool.get(1)
    assert after.get(0).cont == pool.get(0).cont


def _stuck_reason(pool):
    with pytest.raises(Stuck) as stuck:
        real_step(pool, 0)
    assert str(stuck.value) == f"annotated run got stuck: {stuck.value.reason}"
    return stuck.value.reason


def test_stuckness_triad():
    assert _stuck_reason(_single(0, 0)) == LOOP_NEEDS_CREDIT
    assert _stuck_reason(_single(1, 1)) == LOOP_HOLDS_OBLIGATION
    pool = _single(0, 1)
    pool2, step = real_step(pool, 0)
    assert step.rule == RA_LOOP
    assert pool2 is pool  # the credit is held, not consumed


def test_term_requires_empty_chunk():
    pool = ThreadPool.of({0: AnnotatedThread(1, 1, DONE)})
    assert _stuck_reason(pool) == TERM_HOLDS_OBLIGATION
    clean = ThreadPool.of({0: AnnotatedThread(0, 2, DONE)})
    pool2, step = real_step(clean, 0)
    assert step.rule == RA_THREAD_TERM and pool2.is_empty()


def test_fork_splits_the_bundle():
    c = parse("fork { fork { loop skip }; exit }; loop skip")
    pool = ThreadPool.of({0: AnnotatedThread(1, 1, c)})
    pool2, step = real_step(pool, 0, ForkSplit(1, 0))
    assert step.rule == RA_FORK
    assert _counts(pool2.get(0)) == (0, 1)
    assert pool2.get(0).cont is c.second
    assert _counts(pool2.get(1)) == (1, 0)
    assert pool2.get(1).cont is c.first.body
    assert c.first.body == parse("fork { loop skip }; exit")
    with pytest.raises(SplitError):
        real_step(pool, 0, ForkSplit(2, 0))
    with pytest.raises(SplitError):
        real_step(pool, 0, ForkSplit(-1, 0))


def test_exit_clears_the_annotated_pool():
    pool = ThreadPool.of(
        {
            0: AnnotatedThread(2, 0, parse("exit")),
            1: AnnotatedThread(0, 1, LOOP_SKIP),
        }
    )
    pool2, step = real_step(pool, 0)
    assert step.rule == RA_EXIT and pool2.is_empty()


def _annotated(c, tids=None, scheduler=None, fuel=2000):
    proof = verify(c)
    assert proof is not None
    if tids is not None:
        _, trace = run_schedule(initial_pool(c), tids)
    else:
        _, trace = run(initial_pool(c), scheduler or RoundRobinScheduler(), fuel)
    return proof, trace, annotate(c, proof, trace)


PLAIN_RULE = {RA_LOOP: ST_LOOP, RA_FORK: ST_FORK, RA_EXIT: TP_EXIT, RA_THREAD_TERM: TP_THREAD_TERM}


def _projects_onto(atrace, trace):
    """The non-ghost steps of `atrace` are the steps of `trace`, thread and rule."""
    real = [(s.label.tid, PLAIN_RULE[s.label.rule]) for s in atrace.steps if s.label.rule in PLAIN_RULE]
    return real == [(s.label.tid, s.label.rule) for s in trace]


def _worked_trace(c):
    """The annotation of the worked schedule of `two_level_fork`."""
    return annotate(c, verify(c), run_schedule(initial_pool(c), [0, 1, 2, 0, 0, 0])[1])


def test_annotate_reproduces_worked_trace_bundles(two_level_fork):
    trace = _worked_trace(two_level_fork)
    assert [(s.label.tid, s.label.rule) for s in trace.steps] == [
        (0, GS_INTRO), (0, RA_FORK), (1, GS_INTRO), (1, RA_FORK),
        (2, RA_LOOP), (0, RA_LOOP), (0, RA_LOOP), (0, RA_LOOP),
    ]
    assert all(check_balance(s.after) for s in trace.steps)


def test_run_annotated_replays_the_worked_trace(two_level_fork):
    """The bundles of each step of the worked trace, as `annotate` replays it."""
    trace = _worked_trace(two_level_fork)
    bundles = [
        {tid: _counts(e) for tid, e in s.after.threads}
        for s in trace.steps
    ]
    assert bundles[0] == {0: (1, 1)}
    assert bundles[1] == {0: (0, 1), 1: (1, 0)}
    assert bundles[2] == {0: (0, 1), 1: (2, 1)}
    assert bundles[3] == {0: (0, 1), 1: (2, 0), 2: (0, 1)}
    assert bundles[4] == bundles[5] == bundles[6] == bundles[7] == bundles[3]


def test_check_balance_examples(two_level_fork):
    row4 = _worked_trace(two_level_fork).steps[4].before
    assert check_balance(row4)  # obligations 0+2+0 match credits 1+0+1
    assert check_balance(ThreadPool.of({}))
    assert not check_balance(_single(1, 0))


def test_annotate_waiting_pair_bundles(waiting_pair):
    # let the waiter spin a few times before the exiting thread runs
    proof, trace, atrace = _annotated(waiting_pair, tids=[0, 0, 0, 0, 1])
    for step in atrace.steps:
        if step.label.rule == RA_LOOP:
            assert _counts(step.before.get(0)) == (0, 1)
        if step.label.rule == RA_EXIT:
            assert _counts(step.before.get(1)) == (1, 0)


def test_annotate_exit_alone_needs_no_ghost_steps():
    c = parse("exit")
    _, trace, atrace = _annotated(c, tids=[0])
    assert [s.label.rule for s in atrace.steps] == [RA_EXIT]
    assert _counts(atrace.steps[0].before.get(0)) == (0, 0)


def test_annotate_projection(two_level_fork):
    for tids in ([0, 1, 2, 0, 0, 0], [0, 0, 1, 0, 2, 1]):
        _, trace, atrace = _annotated(two_level_fork, tids=tids)
        assert _projects_onto(atrace, trace)


def test_annotate_balance_and_ghost_progress(two_level_fork, waiting_pair):
    for c in (two_level_fork, waiting_pair, parse("fork { loop skip }; exit")):
        proof, trace, atrace = _annotated(c, scheduler=RoundRobinScheduler(1))
        assert check_balance(atrace.initial)
        for step in atrace.steps:
            assert check_balance(step.after)
        # a thread performs at most proof-size ghost steps between real steps
        bound = tree_size(proof)
        streak: dict[int, int] = {}
        for step in atrace.steps:
            if step.label.rule in (GS_INTRO, GS_CANCEL):
                streak[step.label.tid] = streak.get(step.label.tid, 0) + 1
                assert streak[step.label.tid] <= bound
            else:
                streak[step.label.tid] = 0


def test_annotate_split_conservation(two_level_fork):
    _, _, atrace = _annotated(two_level_fork, tids=[0, 1, 2, 0, 0, 0])
    for step in atrace.steps:
        if step.label.rule != RA_FORK:
            continue
        tid = step.label.tid
        before = step.before.get(tid)
        child_tid = step.child
        kept = step.after.get(tid)
        child = step.after.get(child_tid)
        assert kept.obligations + child.obligations == before.obligations
        assert kept.credits + child.credits == before.credits


def test_annotate_stuck_freedom_over_fair_schedulers(two_level_fork):
    # bounded stand-in for the coinductive safety property
    for seed in range(6):
        proof, trace, atrace = _annotated(
            two_level_fork, scheduler=RandomFairScheduler(seed, 8), fuel=60
        )
        assert atrace is not None


def test_annotate_under_randomized_fair_schedules():
    # the constructive annotation works for whatever fair interleaving the
    # plain semantics produced, not just round-robin
    from busycheck.harness import GenConfig, gen_program
    from busycheck.semantics import explore, fuel_bound

    annotated = 0
    for index, c in enumerate(gen_program(GenConfig(max_atoms=9, seed=71, count=120))):
        proof = verify(c)
        if proof is None:
            continue
        window = 4 * max(explore(c).max_threads, 1)
        sched = RandomFairScheduler(index, window)
        outcome, trace = run(initial_pool(c), sched, fuel_bound(c, window))
        assert not isinstance(outcome, FuelExhausted)
        atrace = annotate(c, proof, trace)
        assert _projects_onto(atrace, trace)
        assert all(check_balance(s.after) for s in atrace.steps)
        annotated += 1
    assert annotated >= 40


def test_annotate_supports_nonzero_initial_tid(waiting_pair):
    proof = verify(waiting_pair)
    _, trace = run(initial_pool(waiting_pair, tid0=5), RoundRobinScheduler(), 100)
    atrace = annotate(waiting_pair, proof, trace)
    assert atrace.initial.ids == (5,)
    assert _projects_onto(atrace, trace)


def test_annotate_rejects_mismatched_trace(waiting_pair, two_level_fork):
    proof = verify(waiting_pair)
    _, trace = run_schedule(initial_pool(two_level_fork), [0, 1])
    with pytest.raises(AnnotationError):
        annotate(waiting_pair, proof, trace)


def test_annotate_starts_from_the_traces_own_continuation(waiting_pair):
    twin = parse("fork { exit }; loop skip")  # equal to waiting_pair, not the same object
    _, trace = run(initial_pool(twin), RoundRobinScheduler(), 100)
    atrace = annotate(waiting_pair, verify(waiting_pair), trace)
    assert atrace.initial.get(0).cont is trace[0].before.get(0)
    assert _projects_onto(atrace, trace)


@pytest.mark.parametrize("index", range(6))
def test_annotate_checks_every_step_against_the_plain_pool(two_level_fork, index):
    # the erased pool annotate keeps next to the annotated one must meet the
    # plain trace's pool after every step: tamper with one `after` pool
    proof, trace, _ = _annotated(two_level_fork, tids=[0, 1, 2, 0, 0, 0])
    step = trace[index]
    if step.after.is_empty():
        wrong = ThreadPool.of({0: LOOP_SKIP})
    else:
        tid = step.after.ids[-1]
        left = step.after.get(tid)
        wrong = step.after.replace(tid, LOOP_SKIP if left is DONE else Seq(LOOP_SKIP, left))
    trace[index] = TraceStep(step.before, step.label, wrong)
    with pytest.raises(AnnotationError, match="diverged from the plain trace"):
        annotate(two_level_fork, proof, trace)

    # on waiters most steps are loop steps, after which both pools are the
    # very objects last found equal and the comparison is skipped; a loop
    # step deep in the run whose `after` is another pool is compared again
    waiters = parse("; ".join(["fork { loop skip }"] * 6) + "; exit")
    proof, trace, _ = _annotated(waiters, fuel=fuel_bound(waiters))
    loops = [i for i, s in enumerate(trace) if s.label.rule == ST_LOOP]
    deep = loops[-1 - index]
    assert deep > len(trace) // 2
    step = trace[deep]
    assert step.after is step.before
    differs = step.after.replace(step.label.tid, Seq(LOOP_SKIP, LOOP_SKIP))
    equal = ThreadPool(step.after.threads)
    assert equal == step.after and equal is not step.after
    for after, accepted in ((differs, False), (equal, True)):
        tampered = list(trace)
        tampered[deep] = TraceStep(step.before, step.label, after)
        if accepted:
            assert _projects_onto(annotate(waiters, proof, tampered), trace)
        else:
            with pytest.raises(AnnotationError, match="diverged from the plain trace"):
                annotate(waiters, proof, tampered)
    # a fork step whose `after` is the very pool last found equal, while the
    # erased pool has moved on, is compared too
    forks = [i for i, s in enumerate(trace) if s.label.rule == ST_FORK and i > 0]
    fork = forks[index % len(forks)]
    tampered = list(trace)
    tampered[fork] = TraceStep(trace[fork].before, trace[fork].label, trace[fork - 1].after)
    with pytest.raises(AnnotationError, match="diverged from the plain trace"):
        annotate(waiters, proof, tampered)


def test_annotated_trace_printing_renders_each_pool_entry_once(monkeypatch):
    # a cost count: rendered entries grow with the steps, not with the steps
    # times the threads
    rendered = []
    continuation = Printer.continuation
    monkeypatch.setattr(Printer, "continuation", lambda self, k: rendered.append(k) or continuation(self, k))
    for n in (10, 40):
        c = parse("; ".join(["fork { loop skip }"] * n) + "; exit")
        _, _, atrace = _annotated(c, fuel=fuel_bound(c))
        rendered.clear()
        text = serialize_annotated_trace(atrace)
        assert len(rendered) <= len(atrace.steps) + 1
        assert sum(len(s.before.threads) for s in atrace.steps) > 10 * len(rendered)
        assert text.count("\n") + 1 == len(atrace.steps)


def test_annotate_rejects_a_trace_of_another_program(waiting_pair):
    _, trace = run(initial_pool(parse("fork { exit }; exit")), RoundRobinScheduler(), 100)
    with pytest.raises(AnnotationError, match="does not start with"):
        annotate(waiting_pair, verify(waiting_pair), trace)


def test_annotate_rejects_unchecked_proof(waiting_pair):
    from busycheck.proofs import HoareTriple, ProofTree, Rule
    from busycheck.assertions import BOTTOM, Flat

    bogus = ProofTree(HoareTriple(Flat((1,), 1), LOOP_SKIP, BOTTOM), Rule.LOOP)
    _, trace = run_schedule(initial_pool(waiting_pair), [0, 1])
    with pytest.raises(AnnotationError):
        annotate(waiting_pair, bogus, trace)


def test_ghost_and_real_steps_reject_unknown_tid(bare_loop):
    pool = initial_annotated_pool(bare_loop)
    with pytest.raises(UnknownThreadError):
        ghost_step(pool, 7, GS_INTRO)
    with pytest.raises(UnknownThreadError):
        real_step(pool, 7)


def test_ghost_step_rejects_unknown_kind(bare_loop):
    pool = initial_annotated_pool(bare_loop)
    with pytest.raises(ValueError):
        ghost_step(pool, 0, "GS-Borrow")


def test_initial_annotated_pool_refuses_negative_obligations(bare_loop):
    assert _counts(initial_annotated_pool(bare_loop, 2).get(0)) == (2, 0)
    with pytest.raises(ValueError, match="natural"):
        initial_annotated_pool(bare_loop, -1)


def test_annotate_compares_long_commands_without_recursion():
    # the program and the proof come from separate parses, so the command
    # check meets equal commands that share no spine cell
    text = "fork { exit }; " * 3000 + "loop skip"
    c = parse(text)
    proof = verify(parse(text))
    _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
    atrace = annotate(c, proof, trace)
    assert _projects_onto(atrace, trace)


def _suffix_ids(c):
    """Ids of every spine suffix of `c` and of its fork bodies."""
    ids, bodies = set(), [c]
    while bodies:
        k = bodies.pop()
        while not isinstance(k, Done):
            ids.add(id(k))
            if isinstance(k.head, Fork):
                bodies.append(k.head.body)
            k = k.tail
    return ids


def test_threads_run_suffixes_of_the_program():
    # a pool entry is what its thread has left: DONE, or one of the
    # program's own spine suffix objects; a forked child starts its body
    runs = 0
    for index, c in enumerate(enumerate_programs(6)):
        suffixes = _suffix_ids(c)
        proof = verify(c)
        _, plain = run(initial_pool(c), RandomFairScheduler(index, 4), fuel_bound(c, 4))
        traces = [(plain, lambda e: e)]
        if proof is not None:
            traces.append((annotate(c, proof, plain).steps, lambda e: e.cont))
        for steps, left in traces:
            assert left(steps[0].before.get(0)) is c
            for s in steps:
                for _, e in s.after.threads:
                    assert left(e) is DONE or id(left(e)) in suffixes
                if s.label.rule in (ST_FORK, RA_FORK):
                    head = left(s.before.get(s.label.tid)).head
                    assert left(s.after.get(s.child)) is head.body
            runs += 1
    assert runs > 3000


def test_child_is_the_fresh_id_of_exactly_the_fork_steps():
    forks = 0
    for c in enumerate_programs(5):
        proof = verify(c)
        for scheduler, window in ((RoundRobinScheduler(), 0), (RandomFairScheduler(1, 4), 4)):
            _, plain = run(initial_pool(c), scheduler, fuel_bound(c, window))
            traces = [plain] + ([annotate(c, proof, plain).steps] if proof is not None else [])
            for steps in traces:
                for s in steps:
                    if s.label.rule in (ST_FORK, RA_FORK):
                        assert s.child == s.before.ids[-1] + 1
                        forks += 1
                    else:
                        assert s.child is None
    assert forks > 1000

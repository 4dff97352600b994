import pytest

from busycheck.assertions import ResourceBundle, bundle
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
    StepRequest,
    Stuck,
    StuckAt,
    TERM_HOLDS_OBLIGATION,
    annotate,
    check_balance,
    ghost_step,
    initial_annotated_pool,
    project,
    real_step,
    run_annotated,
    serialize_annotated_trace,
)
from busycheck.lang import DONE, LOOP_SKIP, Printer, SeqCont, parse, to_continuation
from busycheck.proofs import ForkSplit, tree_size, verify
from busycheck.semantics import (
    FuelExhausted,
    ThreadPool,
    TraceStep,
    fuel_bound,
    UnknownThreadError,
    Terminated,
    initial_pool,
    random_fair,
    rotated_round_robin,
    round_robin,
    run,
    run_schedule,
    serialize_trace,
)

LOOP_CONT = SeqCont(LOOP_SKIP, DONE)


def _single(chunk, credits, cont=LOOP_CONT):
    return ThreadPool.of({0: AnnotatedThread(bundle((chunk,), credits), cont)})


def test_ghost_intro_spawns_a_pair():
    pool = _single(0, 0)
    after = ghost_step(pool, 0, GS_INTRO)
    assert after.get(0).bundle == bundle((1,), 1)
    after2 = ghost_step(_single(1, 0), 0, GS_INTRO)
    assert after2.get(0).bundle == bundle((2,), 1)


def test_ghost_cancel_requires_a_pair():
    pool = _single(2, 1)
    after = ghost_step(pool, 0, GS_CANCEL)
    assert after.get(0).bundle == bundle((1,), 0)
    with pytest.raises(CancelUnderflow):
        ghost_step(_single(0, 0), 0, GS_CANCEL)
    with pytest.raises(CancelUnderflow):
        ghost_step(_single(0, 3), 0, GS_CANCEL)


def test_ghost_steps_touch_only_the_stepped_thread():
    pool = ThreadPool.of(
        {
            0: AnnotatedThread(bundle((0,), 0), LOOP_CONT),
            1: AnnotatedThread(bundle((1,), 2), LOOP_CONT),
        }
    )
    after = ghost_step(pool, 0, GS_INTRO)
    assert after.get(1) == pool.get(1)
    assert after.get(0).cont == pool.get(0).cont


def test_stuckness_triad():
    assert real_step(_single(0, 0), 0) == Stuck(LOOP_NEEDS_CREDIT)
    assert real_step(_single(1, 1), 0) == Stuck(LOOP_HOLDS_OBLIGATION)
    result = real_step(_single(0, 1), 0)
    assert not isinstance(result, Stuck)
    pool2, step = result
    assert step.rule == RA_LOOP
    assert pool2 == _single(0, 1)  # the credit is held, not consumed


def test_term_requires_empty_chunk():
    pool = ThreadPool.of({0: AnnotatedThread(bundle((1,), 1), DONE)})
    assert real_step(pool, 0) == Stuck(TERM_HOLDS_OBLIGATION)
    clean = ThreadPool.of({0: AnnotatedThread(bundle((0,), 2), DONE)})
    pool2, step = real_step(clean, 0)
    assert step.rule == RA_THREAD_TERM and pool2.is_empty()


def test_fork_splits_the_bundle():
    c = parse("fork { fork { loop skip }; exit }; loop skip")
    pool = ThreadPool.of({0: AnnotatedThread(bundle((1,), 1), to_continuation(c))})
    pool2, step = real_step(pool, 0, ForkSplit(1, 0))
    assert step.rule == RA_FORK
    assert pool2.get(0).bundle == bundle((0,), 1)
    assert pool2.get(0).cont == LOOP_CONT
    assert pool2.get(1).bundle == bundle((1,), 0)
    assert pool2.get(1).cont == to_continuation(parse("fork { loop skip }; exit"))


def test_exit_clears_the_annotated_pool():
    pool = ThreadPool.of(
        {
            0: AnnotatedThread(bundle((2,), 0), to_continuation(parse("exit"))),
            1: AnnotatedThread(bundle((0,), 1), LOOP_CONT),
        }
    )
    pool2, step = real_step(pool, 0)
    assert step.rule == RA_EXIT and pool2.is_empty()


WORKED_SCHEDULE = [
    StepRequest(0, "intro"),
    StepRequest(0, "real", ForkSplit(1, 0)),
    StepRequest(1, "intro"),
    StepRequest(1, "real", ForkSplit(0, 1)),
    StepRequest(2, "real"),
    StepRequest(0, "real"),
    StepRequest(0, "real"),
    StepRequest(0, "real"),
]


def test_run_annotated_replays_the_worked_trace(two_level_fork):
    pool = initial_annotated_pool(two_level_fork)
    outcome, trace = run_annotated(pool, WORKED_SCHEDULE, 100)
    assert isinstance(outcome, FuelExhausted)
    bundles = [
        {tid: (e.bundle.chunks[0], e.bundle.credits) for tid, e in s.after.threads}
        for s in trace.steps
    ]
    assert bundles[0] == {0: (1, 1)}
    assert bundles[1] == {0: (0, 1), 1: (1, 0)}
    assert bundles[2] == {0: (0, 1), 1: (2, 1)}
    assert bundles[3] == {0: (0, 1), 1: (2, 0), 2: (0, 1)}
    assert bundles[4] == bundles[5] == bundles[6] == bundles[7] == bundles[3]


def test_run_annotated_empty_pool_terminates():
    outcome, trace = run_annotated(ThreadPool.of({}), WORKED_SCHEDULE, 10)
    assert outcome == Terminated(0)
    assert trace.steps == ()


def test_run_annotated_reports_stuck_step_index(bare_loop):
    pool = initial_annotated_pool(bare_loop)
    outcome, trace = run_annotated(pool, [StepRequest(0, "real")], 10)
    assert outcome == StuckAt(0, LOOP_NEEDS_CREDIT)
    assert trace.steps == ()


def test_check_balance_examples(two_level_fork):
    pool = initial_annotated_pool(two_level_fork)
    _, trace = run_annotated(pool, WORKED_SCHEDULE, 100)
    row4 = trace.steps[4].before
    assert check_balance(row4)  # obligations 0+2+0 match credits 1+0+1
    assert check_balance(ThreadPool.of({}))
    assert not check_balance(_single(1, 0))


def _annotated(c, tids=None, scheduler=None, fuel=2000):
    proof = verify(c)
    assert proof is not None
    if tids is not None:
        _, trace = run_schedule(initial_pool(c), tids)
    else:
        _, trace = run(initial_pool(c), scheduler or round_robin(), fuel)
    return proof, trace, annotate(c, proof, trace)


def test_annotate_waiting_pair_bundles(waiting_pair):
    # let the waiter spin a few times before the exiting thread runs
    proof, trace, atrace = _annotated(waiting_pair, tids=[0, 0, 0, 0, 1])
    for step in atrace.steps:
        if step.label.rule == RA_LOOP:
            assert step.before.get(0).bundle == bundle((0,), 1)
        if step.label.rule == RA_EXIT:
            assert step.before.get(1).bundle == bundle((1,), 0)


def test_annotate_reproduces_worked_trace_bundles(two_level_fork):
    _, _, atrace = _annotated(two_level_fork, tids=[0, 1, 2, 0, 0, 0])
    pool = initial_annotated_pool(two_level_fork)
    _, replayed = run_annotated(pool, WORKED_SCHEDULE, 100)
    assert serialize_annotated_trace(atrace) == serialize_annotated_trace(replayed)


def test_annotate_exit_alone_needs_no_ghost_steps():
    c = parse("exit")
    _, trace, atrace = _annotated(c, tids=[0])
    assert [s.label.rule for s in atrace.steps] == [RA_EXIT]
    assert atrace.steps[0].before.get(0).bundle == bundle((0,), 0)


def test_annotate_projection(two_level_fork):
    for tids in ([0, 1, 2, 0, 0, 0], [0, 0, 1, 0, 2, 1]):
        _, trace, atrace = _annotated(two_level_fork, tids=tids)
        assert serialize_trace(project(atrace)) == serialize_trace(trace)


def test_annotate_balance_and_ghost_progress(two_level_fork, waiting_pair):
    for c in (two_level_fork, waiting_pair, parse("fork { loop skip }; exit")):
        proof, trace, atrace = _annotated(c, scheduler=rotated_round_robin(1))
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
        before = step.before.get(tid).bundle
        child_tid = max(step.after.tids())
        kept = step.after.get(tid).bundle
        child = step.after.get(child_tid).bundle
        assert kept.chunks[0] + child.chunks[0] == before.chunks[0]
        assert kept.credits + child.credits == before.credits


def test_annotate_stuck_freedom_over_fair_schedulers(two_level_fork):
    # bounded stand-in for the coinductive safety property
    for seed in range(6):
        proof, trace, atrace = _annotated(
            two_level_fork, scheduler=random_fair(seed, 8), fuel=60
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
        sched = random_fair(index, window)
        outcome, trace = run(initial_pool(c), sched, fuel_bound(c, window))
        assert not isinstance(outcome, FuelExhausted)
        atrace = annotate(c, proof, trace)
        assert serialize_trace(project(atrace)) == serialize_trace(trace)
        assert all(check_balance(s.after) for s in atrace.steps)
        annotated += 1
    assert annotated >= 40


def test_annotate_supports_nonzero_initial_tid(waiting_pair):
    proof = verify(waiting_pair)
    _, trace = run(initial_pool(waiting_pair, tid0=5), round_robin(), 100)
    atrace = annotate(waiting_pair, proof, trace)
    assert atrace.initial.tids() == (5,)
    assert serialize_trace(project(atrace)) == serialize_trace(trace)


def test_annotate_rejects_mismatched_trace(waiting_pair, two_level_fork):
    proof = verify(waiting_pair)
    _, trace = run_schedule(initial_pool(two_level_fork), [0, 1])
    with pytest.raises(AnnotationError):
        annotate(waiting_pair, proof, trace)


def test_annotate_starts_from_the_traces_own_continuation(waiting_pair):
    twin = parse("fork { exit }; loop skip")  # equal to waiting_pair, not the same object
    _, trace = run(initial_pool(twin), round_robin(), 100)
    atrace = annotate(waiting_pair, verify(waiting_pair), trace)
    assert atrace.initial.get(0).cont is trace[0].before.get(0)
    assert serialize_trace(project(atrace)) == serialize_trace(trace)


@pytest.mark.parametrize("index", range(6))
def test_annotate_checks_every_step_against_the_plain_pool(two_level_fork, index):
    # the erased pool annotate keeps next to the annotated one must meet the
    # plain trace's pool after every step: tamper with one `after` pool
    proof, trace, _ = _annotated(two_level_fork, tids=[0, 1, 2, 0, 0, 0])
    step = trace[index]
    if step.after.is_empty():
        wrong = ThreadPool.of({0: LOOP_CONT})
    else:
        tid = step.after.tids()[-1]
        wrong = step.after.replace(tid, SeqCont(LOOP_SKIP, step.after.get(tid)))
    trace[index] = TraceStep(step.before, step.label, wrong)
    with pytest.raises(AnnotationError, match="diverged from the plain trace"):
        annotate(two_level_fork, proof, trace)


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
    _, trace = run(initial_pool(parse("fork { exit }; exit")), round_robin(), 100)
    with pytest.raises(AnnotationError, match="does not start with"):
        annotate(waiting_pair, verify(waiting_pair), trace)


def test_annotate_rejects_unchecked_proof(waiting_pair):
    from busycheck.proofs import HoareTriple, ProofTree, Rule
    from busycheck.assertions import FALSE, Obs, Star, CREDIT

    bogus = ProofTree(
        HoareTriple(Star(Obs(1), CREDIT), LOOP_SKIP, FALSE), Rule.LOOP
    )
    _, trace = run_schedule(initial_pool(waiting_pair), [0, 1])
    with pytest.raises(AnnotationError):
        annotate(waiting_pair, bogus, trace)


def test_run_annotated_rejects_unknown_tid(bare_loop):
    pool = initial_annotated_pool(bare_loop)
    with pytest.raises(UnknownThreadError):
        run_annotated(pool, [StepRequest(7, "intro")], 10)


def test_ghost_step_rejects_unknown_kind(bare_loop):
    pool = initial_annotated_pool(bare_loop)
    with pytest.raises(ValueError):
        ghost_step(pool, 0, "GS-Borrow")


def test_annotated_pool_requires_complete_bundles():
    with pytest.raises(ValueError):
        ThreadPool.of({0: AnnotatedThread(ResourceBundle((0, 1), 0), LOOP_CONT)})

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
    _thread_walk,
    annotate,
    check_balance,
    ghost_step,
    real_step,
    serialize_annotated_trace,
)
from busycheck.harness import enumerate_programs
from busycheck.lang import DONE, LOOP_SKIP, Done, Fork, Printer, Seq, parse, spine
from busycheck.assertions import BOTTOM, OBS_ZERO, Bottom, Flat
from busycheck.proofs import (
    RULE_FORK,
    ForkSplit,
    FrameData,
    HoareTriple,
    ProofTree,
    Rule,
    ShiftData,
    ThreadTables,
    check_proof,
    derive,
    from_json_dict,
    verify,
)
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
    step_pool,
)
from reference import initial_annotated_pool, reference_to_json_dict, run_schedule, tree_size


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
    pool2, rule = real_step(pool, 0)
    assert rule == RA_LOOP
    assert pool2 is pool  # the credit is held, not consumed


def test_term_requires_empty_chunk():
    pool = ThreadPool.of({0: AnnotatedThread(1, 1, DONE)})
    assert _stuck_reason(pool) == TERM_HOLDS_OBLIGATION
    clean = ThreadPool.of({0: AnnotatedThread(0, 2, DONE)})
    pool2, rule = real_step(clean, 0)
    assert rule == RA_THREAD_TERM and pool2.is_empty()


def test_fork_splits_the_bundle():
    c = parse("fork { fork { loop skip }; exit }; loop skip")
    pool = ThreadPool.of({0: AnnotatedThread(1, 1, c)})
    pool2, rule = real_step(pool, 0, ForkSplit(1, 0))
    assert rule == RA_FORK
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
    pool2, rule = real_step(pool, 0)
    assert rule == RA_EXIT and pool2.is_empty()


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
    real = [(s.tid, PLAIN_RULE[s.rule]) for s in atrace.steps if s.rule in PLAIN_RULE]
    return real == [(s.tid, s.rule) for s in trace]


def _worked_trace(c):
    """The annotation of the worked schedule of `two_level_fork`."""
    return annotate(c, verify(c), run_schedule(initial_pool(c), [0, 1, 2, 0, 0, 0])[1])


def test_annotate_reproduces_worked_trace_bundles(two_level_fork):
    trace = _worked_trace(two_level_fork)
    assert [(s.tid, s.rule) for s in trace.steps] == [
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


def _credit_dropping_proof(c):
    """A valid proof of {obs(0)} fork { exit } {obs(0)} that drops a credit:
    obs(0) => obs(1) * credit, the Fork hands obs(1) to the child, and
    obs(0) * credit => obs(0) drops the parent's credit."""
    exit_leaf = ProofTree(HoareTriple(Flat((1,), 0), c.body, BOTTOM), Rule.EXIT)
    child = ProofTree(
        HoareTriple(Flat((1,), 0), c.body, OBS_ZERO), Rule.VIEW_SHIFT, (exit_leaf,), ShiftData(Flat((1,), 0), BOTTOM)
    )
    fork = ProofTree(HoareTriple(Flat((1,), 1), c, Flat((0,), 1)), Rule.FORK, (child,), ForkSplit(1, 0))
    shift = ShiftData(Flat((1,), 1), Flat((0,), 1))
    return ProofTree(HoareTriple(OBS_ZERO, c, OBS_ZERO), Rule.VIEW_SHIFT, (fork,), shift)


def test_a_valid_proof_keeps_credits_at_most_obligations_not_equal():
    # the parent ends holding its credit, so the pool after its end has one
    # obligation (the child's) and no credit: `check_balance` is false there
    c = parse("fork { exit }")
    proof = _credit_dropping_proof(c)
    assert check_proof(proof) is None
    _, trace = run_schedule(initial_pool(c), [0, 0, 1])
    atrace = annotate(c, proof, trace)
    assert [(s.tid, s.rule) for s in atrace.steps] == [(0, GS_INTRO), (0, RA_FORK), (0, RA_THREAD_TERM), (1, RA_EXIT)]
    assert _credits_within_obligations(atrace)
    assert [check_balance(s.after) for s in atrace.steps] == [True, True, False, True]
    assert [_counts(e) for _, e in atrace.steps[2].after.threads] == [(1, 0)]


def _post_cancelling_proof(c):
    """A valid proof of {obs(0)} fork { exit } {obs(0)} whose root view shift
    moves obligations on its post side: obs(0) => obs(1) * credit, the Fork
    hands the child nothing, and obs(1) * credit => obs(0) cancels the pair."""
    exit_leaf = ProofTree(HoareTriple(OBS_ZERO, c.body, BOTTOM), Rule.EXIT)
    child = ProofTree(HoareTriple(OBS_ZERO, c.body, OBS_ZERO), Rule.VIEW_SHIFT, (exit_leaf,), ShiftData(OBS_ZERO, BOTTOM))
    pair = Flat((1,), 1)
    fork = ProofTree(HoareTriple(pair, c, pair), Rule.FORK, (child,), ForkSplit(0, 0))
    return ProofTree(HoareTriple(OBS_ZERO, c, OBS_ZERO), Rule.VIEW_SHIFT, (fork,), ShiftData(pair, pair))


def test_annotate_takes_the_ghost_steps_of_a_post_side_view_shift():
    # `derive` never emits such a shift: the parent cancels its pair before it ends
    c = parse("fork { exit }")
    proof = _post_cancelling_proof(c)
    assert check_proof(proof) is None
    _, trace = run_schedule(initial_pool(c), [0, 0, 1])
    atrace = annotate(c, proof, trace)
    assert [(s.tid, s.rule) for s in atrace.steps] == [
        (0, GS_INTRO), (0, RA_FORK), (0, GS_CANCEL), (0, RA_THREAD_TERM), (1, RA_EXIT)
    ]
    assert all(check_balance(s.after) for s in atrace.steps)
    assert _projects_onto(atrace, trace)


def _credits_within_obligations(atrace):
    pools = [atrace.initial] + [s.after for s in atrace.steps]
    return all(sum(e.credits for _, e in p.threads) <= sum(e.obligations for _, e in p.threads) for p in pools)


def _exit_proofs():
    """Two valid proofs of {obs(0)} exit {obs(0)} that `derive` never emits."""
    c = parse("exit")
    pair = Flat((1,), 1)  # obs(1) * credit
    # the root view shift introduces a pair, and a nested one cancels it
    leaf = ProofTree(HoareTriple(OBS_ZERO, c, BOTTOM), Rule.EXIT)
    nested = ProofTree(HoareTriple(pair, c, BOTTOM), Rule.VIEW_SHIFT, (leaf,), ShiftData(OBS_ZERO, BOTTOM))
    cancelled = ProofTree(HoareTriple(OBS_ZERO, c, OBS_ZERO), Rule.VIEW_SHIFT, (nested,), ShiftData(pair, BOTTOM))
    # the Exit leaf of obs(1) sits under a Frame of one credit
    leaf = ProofTree(HoareTriple(Flat((1,), 0), c, BOTTOM), Rule.EXIT)
    framed = ProofTree(HoareTriple(pair, c, BOTTOM), Rule.FRAME, (leaf,), FrameData(Flat((), 1)))
    framed = ProofTree(HoareTriple(OBS_ZERO, c, OBS_ZERO), Rule.VIEW_SHIFT, (framed,), ShiftData(pair, BOTTOM))
    return c, {"cancelled": cancelled, "framed": framed}


@pytest.mark.parametrize(
    "name, rules", [("cancelled", [GS_INTRO, GS_CANCEL, RA_EXIT]), ("framed", [GS_INTRO, RA_EXIT])]
)
def test_annotate_a_hand_built_proof_of_exit(name, rules):
    c, proofs = _exit_proofs()
    proof = proofs[name]
    assert check_proof(proof) is None
    _, trace = run_schedule(initial_pool(c), [0])
    atrace = annotate(c, proof, trace)
    assert [s.rule for s in atrace.steps] == rules
    assert _projects_onto(atrace, trace)
    assert _credits_within_obligations(atrace)


def _replays(trace):
    """Whether each step of `trace` starts from the pool the steps before it
    reach, from the first step's pool, and is the plain step its thread takes
    there."""
    pool = trace[0].before
    for before, tid, rule, after in trace:
        if before is not pool and before != pool:
            return False
        try:
            if step_pool(pool, tid) != (after, rule):
                return False
        except UnknownThreadError:
            return False
        pool = after
    return True


def _malformed(trace):
    """Traces made from `trace` by relabelling a step, forging its thread or
    its pool before or after, or adding a step of a thread that is not in the
    pool."""
    labels = set(PLAIN_RULE.values()) | {"ST-Skip"}
    tids = range(max(t for s in trace for t in s.after.ids + s.before.ids) + 2)
    for index, step in enumerate(trace):
        head, tail = trace[:index], trace[index + 1 :]
        for label in labels - {step.rule}:
            yield [*head, step._replace(rule=label), *tail]
        for tid in set(tids) - {step.tid}:
            yield [*head, step._replace(tid=tid), *tail]
        for other in trace:
            if other.before != step.before:
                yield [*head, step._replace(before=other.before), *tail]
            if other.after != step.after:
                yield [*head, step._replace(after=other.after), *tail]
    last = trace[-1].after
    for tid in set(tids) - set(last.ids):  # an ended thread, or one never forked
        for label in PLAIN_RULE.values():
            yield [*trace, TraceStep(last, tid, label, last)]


def test_annotate_raises_only_annotation_errors_on_malformed_traces():
    # the one-step-too-many trace of a thread that has ended raised a bare KeyError
    ended = parse("fork { fork { exit } }; loop skip")
    _, trace = run_schedule(initial_pool(ended), [0, 1, 1])
    last = trace[-1].after
    with pytest.raises(AnnotationError, match="trace step 3 steps thread 1, which is not in the pool"):
        annotate(ended, verify(ended), [*trace, TraceStep(last, 1, TP_THREAD_TERM, last)])
    refused = accepted = 0
    programs = [ended, *enumerate_programs(4), parse("fork { exit }; fork { loop skip }; loop skip")]
    # waiters loop again and again once settled, so their forged loop steps
    # are relabelled, re-threaded and moved between pools
    programs += map(parse, ["fork { loop skip }; " * n + "exit" for n in (2, 3)])
    programs.append(parse("fork { fork { loop skip }; loop skip }; fork { loop skip }; exit"))
    for index, c in enumerate(programs):
        proof = verify(c)
        if proof is None:
            continue
        for scheduler in (RoundRobinScheduler(), RandomFairScheduler(index, 4)):
            _, plain = run(initial_pool(c), scheduler, 12)
            for bad in _malformed(plain):
                try:
                    annotate(c, proof, bad)
                except AnnotationError:
                    assert not _replays(bad)
                    refused += 1
                else:  # a forged step that is a plain step too, such as another waiter's loop
                    assert _replays(bad)
                    accepted += 1
    assert refused > 10 * accepted > 0


def test_annotate_refuses_a_step_from_a_pool_the_trace_did_not_reach():
    # only the first step's pool before was read: this trace was annotated (4 steps)
    c = parse("fork { exit }; loop skip")
    _, trace = run_schedule(initial_pool(c), [0, 0, 1])
    forged = [trace[0], trace[1]._replace(before=ThreadPool.of({7: LOOP_SKIP})), trace[2]]
    assert _replays(trace) and not _replays(forged)
    with pytest.raises(AnnotationError, match="trace step 1 starts from a pool the steps before it do not reach"):
        annotate(c, verify(c), forged)


def test_annotate_waiting_pair_bundles(waiting_pair):
    # let the waiter spin a few times before the exiting thread runs
    proof, trace, atrace = _annotated(waiting_pair, tids=[0, 0, 0, 0, 1])
    for step in atrace.steps:
        if step.rule == RA_LOOP:
            assert _counts(step.before.get(0)) == (0, 1)
        if step.rule == RA_EXIT:
            assert _counts(step.before.get(1)) == (1, 0)


def test_annotate_exit_alone_needs_no_ghost_steps():
    c = parse("exit")
    _, trace, atrace = _annotated(c, tids=[0])
    assert [s.rule for s in atrace.steps] == [RA_EXIT]
    assert _counts(atrace.steps[0].before.get(0)) == (0, 0)


def _relabelled(trace, index, label):
    return [*trace[:index], trace[index]._replace(rule=label), *trace[index + 1 :]]


def test_annotate_refuses_a_fork_step_labelled_exit():
    # the label picks the proof's Fork slot, but the thread forks either way:
    # unchecked, the child got (0|0) and the parent kept (1|1), not the
    # proof's (0|1) and (1|0)
    c = parse("fork { loop skip }; exit")
    _, trace = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
    assert trace[0].rule == ST_FORK
    with pytest.raises(AnnotationError, match="trace step 0 is labelled TP-Exit, but thread 0 takes RA-Fork"):
        annotate(c, verify(c), _relabelled(trace[:1], 0, TP_EXIT))


@pytest.mark.parametrize(
    "text, tids, index, rule",
    [
        # thread 1's second loop step: it has settled, and its proof is done with
        ("fork { loop skip }; fork { exit }; loop skip", None, 3, RA_LOOP),
        # thread 1 ends once it has forked, before thread 2 exits
        ("fork { fork { exit } }; loop skip", [0, 1, 1, 2], 2, RA_THREAD_TERM),
    ],
    ids=["settled", "ending"],
)
def test_annotate_refuses_a_step_labelled_fork_where_the_thread_does_not_fork(text, tids, index, rule):
    c = parse(text)
    pool = initial_pool(c)
    trace = run(pool, RoundRobinScheduler(), fuel_bound(c))[1] if tids is None else run_schedule(pool, tids)[1]
    proof = verify(c)
    annotate(c, proof, trace)
    step = trace[index]
    assert step.tid == 1 and step.rule != ST_FORK
    with pytest.raises(AnnotationError, match=f"^trace step {index} is labelled ST-Fork, but thread 1 takes {rule}$"):
        annotate(c, proof, _relabelled(trace, index, ST_FORK))


@pytest.mark.parametrize("fixture, tids", [("two_level_fork", [0, 1, 2, 0, 0, 0]), ("waiting_pair", [0, 0, 0, 0, 1])])
def test_annotate_refuses_any_relabelled_step(request, fixture, tids):
    c = request.getfixturevalue(fixture)
    proof = verify(c)
    runs = [run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))[1], run_schedule(initial_pool(c), tids)[1]]
    for trace in runs:
        annotate(c, proof, trace)
        for index, step in enumerate(trace):
            for label in set(PLAIN_RULE.values()) - {step.rule}:
                with pytest.raises(AnnotationError):
                    annotate(c, proof, _relabelled(trace, index, label))


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
            if step.rule in (GS_INTRO, GS_CANCEL):
                streak[step.tid] = streak.get(step.tid, 0) + 1
                assert streak[step.tid] <= bound
            else:
                streak[step.tid] = 0


def test_annotate_split_conservation(two_level_fork):
    _, _, atrace = _annotated(two_level_fork, tids=[0, 1, 2, 0, 0, 0])
    for step in atrace.steps:
        if step.rule != RA_FORK:
            continue
        tid = step.tid
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
    _, trace = run(ThreadPool.of({5: waiting_pair}), RoundRobinScheduler(), 100)
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
    trace[index] = step._replace(after=wrong)
    with pytest.raises(AnnotationError, match="diverged from the plain trace"):
        annotate(two_level_fork, proof, trace)

    # on waiters most steps are loop steps, after which both pools are the
    # very objects last found equal and the comparison is skipped; a loop
    # step deep in the run whose `after` is another pool is compared again
    waiters = parse("; ".join(["fork { loop skip }"] * 6) + "; exit")
    proof, trace, _ = _annotated(waiters, fuel=fuel_bound(waiters))
    loops = [i for i, s in enumerate(trace) if s.rule == ST_LOOP]
    deep = loops[-1 - index]
    assert deep > len(trace) // 2
    step = trace[deep]
    assert step.after is step.before
    differs = step.after.replace(step.tid, Seq(LOOP_SKIP, LOOP_SKIP))
    equal = ThreadPool(step.after.threads)
    assert equal == step.after and equal is not step.after
    for after, accepted in ((differs, False), (equal, True)):
        tampered = list(trace)
        tampered[deep] = step._replace(after=after)
        if accepted:
            assert _projects_onto(annotate(waiters, proof, tampered), trace)
        else:
            with pytest.raises(AnnotationError, match="diverged from the plain trace"):
                annotate(waiters, proof, tampered)
    # a fork step whose `after` is the very pool last found equal, while the
    # erased pool has moved on, is compared too
    forks = [i for i, s in enumerate(trace) if s.rule == ST_FORK and i > 0]
    fork = forks[index % len(forks)]
    tampered = list(trace)
    tampered[fork] = trace[fork]._replace(after=trace[fork - 1].after)
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


def _refused_annotations(c):
    """Name -> (proof, trace, message): what `annotate(c, proof, trace)` refuses, and why."""
    _, trace = run_schedule(initial_pool(c), [0, 1])
    return {
        "another-command": (verify(parse("exit")), trace, "proof concludes a different command"),
        "nonzero-start": (derive(c, 1), trace, "annotation needs a proof of {obs(0)} c {obs(0)}"),
        "empty-trace": (verify(c), [], "empty trace: nothing to annotate"),
        "two-thread-start": (verify(c), trace[1:], "trace must start from a singleton pool"),
    }


@pytest.mark.parametrize("case", ["another-command", "nonzero-start", "empty-trace", "two-thread-start"])
def test_annotate_refuses_with_its_message(waiting_pair, case):
    proof, trace, message = _refused_annotations(waiting_pair)[case]
    assert check_proof(proof) is None
    with pytest.raises(AnnotationError) as refused:
        annotate(waiting_pair, proof, trace)
    assert str(refused.value) == message


def test_annotate_rejects_unchecked_proof(waiting_pair):
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
                if s.rule in (ST_FORK, RA_FORK):
                    head = left(s.before.get(s.tid)).head
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
                    if s.rule in (ST_FORK, RA_FORK):
                        assert s.child == s.before.ids[-1] + 1
                        forks += 1
                    else:
                        assert s.child is None
    assert forks > 1000


@pytest.mark.parametrize(
    "text",
    [
        "fork { loop skip }; " * 8 + "exit",
        "fork { exit }; " * 8 + "loop skip",
        "; ".join(["fork { " + "fork { loop skip }; " * 3 + "exit }"] * 2) + "; loop skip",
    ],
    ids=["waiters", "flats", "km"],
)
def test_a_shared_proof_annotates_as_its_unshared_copy_does(text):
    # `verify` gives equal threads one proof; the tree writer's certificate reads back as a tree
    c = parse(text)
    shared = verify(c)
    unshared = from_json_dict(reference_to_json_dict(shared, shared=False))
    distinct = len({id(t) for t in _nodes(unshared)})
    assert distinct == tree_size(unshared) == tree_size(shared) > len({id(t) for t in _nodes(shared)})
    for scheduler, window in ((RoundRobinScheduler(), 0), (RandomFairScheduler(1, 4), 4), (RandomFairScheduler(2, 4), 4)):
        _, plain = run(initial_pool(c), scheduler, fuel_bound(c, window))
        assert annotate(c, shared, plain).steps == annotate(c, unshared, plain).steps


def test_shared_tables_annotate_as_fresh_calls_do():
    tables = ThreadTables()
    for c in enumerate_programs(6):
        proof = verify(c, tables)
        if proof is None:
            continue
        _, plain = run(initial_pool(c), RoundRobinScheduler(), fuel_bound(c))
        assert annotate(c, proof, plain, tables).steps == annotate(c, verify(c), plain).steps


def test_a_walk_stops_at_its_threads_stop():
    # one leaf per atom a thread runs alone, up to its first exit or loop
    # skip, as the spawn tree walks it, then the end's only if it reaches no
    # stop: the walk yields nothing past the stop; a Fork leaf carries the
    # split and the proof of the child's body
    walks = 0
    for c in enumerate_programs(6):
        proof = verify(c)
        todo = [] if proof is None else [(c, proof)]
        while todo:
            body, t = todo.pop()
            path = []
            for atom in spine(body):
                path.append(atom)
                if not isinstance(atom, Fork):
                    break
            leaves = list(_thread_walk(t))
            assert len(leaves) == len(path) + isinstance(path[-1], Fork)
            for atom, (_, split, premise) in zip(path, leaves):
                forks = isinstance(atom, Fork)
                assert (split is not None) == (premise is not None) == forks
                if forks:
                    assert premise.conclusion.cmd is atom.body
                    todo.append((atom.body, premise))
            walks += 1
    assert walks > 2000


def _nodes(t):
    out, todo = [], [t]
    while todo:
        out.append(todo.pop())
        todo += out[-1].premises
    return out

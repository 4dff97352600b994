"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on success as well.
"""

import itertools
import time
from collections import deque
from contextlib import contextmanager

import pytest

from busycheck.assertions import BOTTOM, Flat, state_assertion, view_shift
from busycheck.cli import main
from busycheck.ghost import (
    LOOP_HOLDS_OBLIGATION,
    LOOP_NEEDS_CREDIT,
    RA_LOOP,
    Stuck,
    annotate,
    check_balance,
    real_step,
    serialize_annotated_trace,
)
from busycheck.harness import GenConfig, soundness_campaign
from busycheck.lang import parse
from busycheck.proofs import ForkSplit, Rule, check_proof, verify
from busycheck.semantics import (
    FuelExhausted,
    RoundRobinScheduler,
    explore,
    initial_pool,
    run,
)
from reference import run_schedule


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


WAITING_PAIR = "fork { exit }; loop skip"
TWO_LEVEL = "fork { fork { loop skip }; exit }; loop skip"

GOLDEN_TRACE = "\n".join(
    [
        "0\t0\tGS-Intro\t{0:(0|0) fork { fork { loop skip }; exit };loop skip;done}",
        "1\t0\tRA-Fork\t{0:(1|1) fork { fork { loop skip }; exit };loop skip;done}",
        "2\t1\tGS-Intro\t{0:(0|1) loop skip;done,1:(1|0) fork { loop skip };exit;done}",
        "3\t1\tRA-Fork\t{0:(0|1) loop skip;done,1:(2|1) fork { loop skip };exit;done}",
        "4\t2\tRA-Loop\t{0:(0|1) loop skip;done,1:(2|0) exit;done,2:(0|1) loop skip;done}",
        "5\t0\tRA-Loop\t{0:(0|1) loop skip;done,1:(2|0) exit;done,2:(0|1) loop skip;done}",
        "6\t0\tRA-Loop\t{0:(0|1) loop skip;done,1:(2|0) exit;done,2:(0|1) loop skip;done}",
        "7\t0\tRA-Loop\t{0:(0|1) loop skip;done,1:(2|0) exit;done,2:(0|1) loop skip;done}",
    ]
)


@pytest.fixture(scope="module")
def campaign():
    started = time.perf_counter()
    report = soundness_campaign(
        GenConfig(max_atoms=12, seed=42, count=500), exhaustive_max_atoms=6
    )
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="module")
def golden_run():
    # the proof-guided annotation of the worked schedule
    c = parse(TWO_LEVEL)
    _, plain = run_schedule(initial_pool(c), [0, 1, 2, 0, 0, 0])
    return annotate(c, verify(c), plain)


def test_criterion_1_certificate_regression(tmp_path, capsys):
    with criterion(1, "waiting-pair certificate regression"):
        started = time.perf_counter()
        tree = verify(parse(WAITING_PAIR))
        assert tree is not None, "waiting pair must verify"

        # main spine: ViewShift(intro) -> Seq -> [Fork -> [Exit, ViewShift]]
        # and a shift-free Loop with pre obs(0) * credit; the same root node
        # carries the final false-to-obs(0) shift
        assert tree.rule is Rule.VIEW_SHIFT
        assert tree.conclusion.pre == Flat((0,), 0)
        assert tree.conclusion.post == Flat((0,), 0)
        assert tree.data.inner_pre == Flat((1,), 1)  # pair intro
        assert tree.data.inner_post == BOTTOM  # final shift source

        seq = tree.premises[0]
        assert seq.rule is Rule.SEQ
        fork, loop = seq.premises
        assert fork.rule is Rule.FORK
        assert fork.data == ForkSplit(1, 0)
        child = fork.premises[0]
        assert child.rule is Rule.VIEW_SHIFT
        assert child.premises[0].rule is Rule.EXIT
        assert child.premises[0].conclusion.pre == Flat((1,), 0)
        assert child.data.inner_post == BOTTOM
        assert loop.rule is Rule.LOOP  # no ViewShift wrapper around the loop
        assert loop.conclusion.pre == Flat((0,), 1)

        assert check_proof(tree) is None

        cert = tmp_path / "cert.json"
        assert main(["verify", "-e", WAITING_PAIR, "--emit-cert", str(cert)]) == 0
        assert main(["check-proof", str(cert)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "Ok"

        assert time.perf_counter() - started < 1.0


def test_criterion_2_golden_trace(golden_run):
    with criterion(2, "worked-example golden trace"):
        started = time.perf_counter()
        assert serialize_annotated_trace(golden_run) == GOLDEN_TRACE
        assert time.perf_counter() - started < 1.0


def test_criterion_3_sampled_soundness(campaign):
    report, elapsed = campaign
    with criterion(3, "sampled soundness, 500 random + exhaustive <= 6 atoms"):
        assert report.total == 500 + 2320  # plus every program with <= 6 atoms
        assert report.soundness_violations == 0
        assert elapsed < 60.0


def test_criterion_4_leaf_balance(campaign):
    report, elapsed = campaign
    with criterion(4, "leaf balance on random sibling-closed prefixes"):
        assert report.leaf_balance_checks == 3 * report.verified
        assert report.leaf_balance_failures == 0
        assert elapsed < 30.0


def test_criterion_5_ghost_balance(campaign, golden_run):
    report, _ = campaign
    with criterion(5, "ghost balance after every step"):
        assert check_balance(golden_run.initial)
        assert all(check_balance(step.after) for step in golden_run.steps)
        assert report.balance_failures == 0
        assert report.balance_checks > 0


def test_criterion_6_stuckness_triad():
    with criterion(6, "stuckness triad"):
        from busycheck.ghost import AnnotatedThread
        from busycheck.lang import LOOP_SKIP
        from busycheck.semantics import ThreadPool

        def looping(chunk, credits):
            return ThreadPool.of({0: AnnotatedThread(chunk, credits, LOOP_SKIP)})

        for bundle, reason in ((0, 0), LOOP_NEEDS_CREDIT), ((1, 1), LOOP_HOLDS_OBLIGATION):
            with pytest.raises(Stuck) as stuck:
                real_step(looping(*bundle), 0)
            assert stuck.value.reason == reason
        assert real_step(looping(0, 1), 0)[1] == RA_LOOP


def test_criterion_7_negative_control():
    with criterion(7, "negative control: busy-waiters without exit"):
        for text in ("loop skip", "fork { loop skip }; loop skip"):
            program = parse(text)
            assert verify(program) is None, text
            assert explore(program).diverges, text
            outcome, _ = run(initial_pool(program), RoundRobinScheduler(), 10_000)
            assert isinstance(outcome, FuelExhausted), text


def _single_chunk_shift_by_search(n, k, n2, k2):
    """Breadth-first search over pair moves from obs(n) * credit^k, then
    weakening to obs(n2) * credit^k2.  The chunk must end at n2, so values
    above max(n, n2) never help."""
    seen = {(n, k)}
    frontier = deque([(n, k)])
    while frontier:
        v, c = frontier.popleft()
        if v == n2 and c >= k2:
            return True
        for nxt in ((v + 1, c + 1), (v - 1, c - 1)):
            if 0 <= nxt[0] <= max(n, n2) and nxt[1] >= 0 and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def test_criterion_8_view_shift_exact_rule():
    with criterion(8, "exact view-shift rule vs brute-force search, 1296 tuples"):
        started = time.perf_counter()
        mismatches = []
        for n, k, n2, k2 in itertools.product(range(6), repeat=4):
            decided = view_shift(state_assertion(n, k), state_assertion(n2, k2))
            if decided != _single_chunk_shift_by_search(n, k, n2, k2):
                mismatches.append((n, k, n2, k2))
        assert mismatches == []
        assert time.perf_counter() - started < 5.0

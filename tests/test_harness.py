import pytest

import busycheck.harness
import busycheck.semantics
from busycheck.harness import (
    CampaignReport,
    CampaignViolation,
    GenConfig,
    enumerate_programs,
    gen_program,
    soundness_campaign,
)
from busycheck.lang import EXIT, LOOP_SKIP, parse, pretty, size
from busycheck.proofs import verify
from busycheck.semantics import explore, spawn_tree


def test_generation_is_deterministic():
    cfg = GenConfig(max_atoms=10, seed=123, count=40)
    assert [pretty(c) for c in gen_program(cfg)] == [pretty(c) for c in gen_program(cfg)]


def test_generation_respects_budget():
    for c in gen_program(GenConfig(max_atoms=7, seed=5, count=200)):
        assert 1 <= size(c) <= 7


def test_single_atom_config_yields_only_atoms():
    assert set(gen_program(GenConfig(max_atoms=1, seed=9, count=50))) <= {EXIT, LOOP_SKIP}


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        GenConfig(fork_prob=0.0)


def test_enumeration_counts():
    # atoms of size 1 are exit and loop skip; forks wrap smaller commands
    assert sum(1 for _ in enumerate_programs(1)) == 2
    assert sum(1 for _ in enumerate_programs(2)) == 2 + 6
    assert sum(1 for _ in enumerate_programs(3)) == 2 + 6 + 22


def test_enumeration_is_duplicate_free():
    programs = list(enumerate_programs(4))
    assert len(programs) == len(set(programs))
    assert all(size(c) <= 4 for c in programs)


def test_named_programs_classification():
    assert verify(parse("fork { exit }; loop skip")) is not None
    assert verify(parse("fork { fork { loop skip }; exit }; loop skip")) is not None
    assert verify(parse("loop skip")) is None


def test_zero_count_campaign_is_all_zero():
    report = soundness_campaign(GenConfig(count=0, seed=1), exhaustive_max_atoms=0)
    assert report.total == 0
    assert report.verified == report.rejected == 0
    assert report.soundness_violations == 0
    assert report.leaf_balance_checks == report.leaf_balance_failures == 0


def test_small_campaign_is_clean():
    report = soundness_campaign(
        GenConfig(max_atoms=7, seed=17, count=60), exhaustive_max_atoms=3
    )
    assert report.total == 60 + 30
    assert report.verified + report.rejected == report.total
    assert report.soundness_violations == 0
    assert report.leaf_balance_failures == 0
    assert report.balance_failures == 0
    assert report.leaf_balance_checks == 3 * report.verified


def test_campaign_determinism():
    cfg = GenConfig(max_atoms=6, seed=29, count=40)
    a = soundness_campaign(cfg, exhaustive_max_atoms=0)
    b = soundness_campaign(cfg, exhaustive_max_atoms=0)
    keys = [k for k in a.to_json_dict() if k != "wallTime"]
    assert {k: a.to_json_dict()[k] for k in keys} == {k: b.to_json_dict()[k] for k in keys}


def test_rejected_fraction_is_informational():
    report = soundness_campaign(GenConfig(max_atoms=5, seed=3, count=50), exhaustive_max_atoms=0)
    # every rejected program in this language actually diverges; the counter
    # stays informational and never fails the run
    assert report.rejected_terminating == 0
    assert "rejected but terminating" in report.summary()


def test_report_json_shape():
    report = CampaignReport(total=3, verified=2, rejected=1, wall_time=0.5)
    payload = report.to_json_dict()
    assert payload["soundnessViolations"] == 0
    assert payload["total"] == 3
    assert payload["wallTime"] == 0.5


def test_campaign_violation_carries_source():
    violation = CampaignViolation(parse("loop skip"), "boom")
    assert "loop skip" in str(violation)


def test_default_campaign_report_is_pinned():
    payload = soundness_campaign(GenConfig(seed=42, count=500)).to_json_dict()
    del payload["wallTime"]
    assert payload == {
        "total": 2820,
        "verified": 1716,
        "rejected": 1104,
        "oracleDiverges": 1104,
        "soundnessViolations": 0,
        "leafBalanceChecks": 5148,
        "leafBalanceFailures": 0,
        "balanceChecks": 4518,
        "balanceFailures": 0,
        "rejectedTerminating": 0,
        "multiThread": 1447,
    }


def test_multi_thread_counts_programs_that_reach_two_threads():
    programs = list(enumerate_programs(6))
    reach_two = [explore(c).max_threads >= 2 for c in programs]
    assert [spawn_tree(c).threads >= 2 for c in programs] == reach_two
    report = soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=5)
    assert report.multi_thread == sum(reach_two[: report.total]) > 0
    rows = [line.split() for line in report.summary().splitlines()]
    assert ["multi-thread", "programs", str(report.multi_thread)] in rows


def test_campaign_never_explores(monkeypatch):
    def explore(*args):
        raise AssertionError("explore called")

    monkeypatch.setattr(busycheck.semantics, "explore", explore)
    monkeypatch.setattr(busycheck.harness, "explore", explore)
    report = soundness_campaign(GenConfig(max_atoms=8, seed=5, count=40), exhaustive_max_atoms=3)
    assert report.total == 40 + 30
    assert report.oracle_diverges == report.rejected > 0


def test_campaign_catches_a_verifier_that_accepts_a_busy_wait(monkeypatch):
    exit_proof = verify(EXIT)

    def accepting(c):
        return exit_proof if c == LOOP_SKIP else verify(c)

    monkeypatch.setattr(busycheck.harness, "verify", accepting)
    with pytest.raises(CampaignViolation, match="admits a fair infinite run") as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=1)
    assert err.value.program == LOOP_SKIP

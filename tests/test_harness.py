import hashlib

import pytest

import busycheck.harness
import busycheck.proofs
import busycheck.semantics
from busycheck.harness import (
    CampaignReport,
    CampaignViolation,
    GenConfig,
    enumerate_programs,
    gen_program,
    soundness_campaign,
)
from busycheck.lang import EXIT, LOOP_SKIP, Fork, Seq, parse, pretty
from busycheck.pog import check_leaf_balance
from busycheck.proofs import ThreadTables, verify
from busycheck.semantics import explore, thread_alone_schedule
from reference import reference_enumerate_programs


def _atom_count(c):
    """Atoms of `c`, counting inside fork bodies."""
    count, stack = 0, [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.first, node.second]
        else:
            count += 1
            if isinstance(node, Fork):
                stack.append(node.body)
    return count


def test_generation_is_deterministic():
    cfg = GenConfig(max_atoms=10, seed=123, count=40)
    assert [pretty(c) for c in gen_program(cfg)] == [pretty(c) for c in gen_program(cfg)]


def test_generation_respects_budget():
    for c in gen_program(GenConfig(max_atoms=7, seed=5, count=200)):
        assert 1 <= _atom_count(c) <= 7


# sha256 of the pretty-printed programs, one per line, of
# GenConfig(seed=7, count=500, max_atoms=M, **weights): a campaign is
# reproducible from its seed, so these never change with the generator's code
GENERATED_DIGESTS = {
    ("default", 1): "a76647fbb34226323e774da340d275770d852267ff4f7579bd72f5cd6e5a013c",
    ("default", 12): "e35574ff5701e7cfb5eac8b2e4191af8a0e0d7f6c519b552ec778bce772c656d",
    ("skewed", 1): "d62ac4320f3d58653c1b6f138d3666cbd26bf889e2dd17e8ef524aa8bd9c3757",
    ("skewed", 12): "7fd4183e6795b47c5f97698d56dd287979d6b8d1dcc10125f1a93efec202f556",
}
WEIGHTS = {"default": {}, "skewed": {"fork_prob": 5.0, "loop_prob": 0.25, "exit_prob": 0.5}}


@pytest.mark.parametrize("weights, max_atoms", sorted(GENERATED_DIGESTS))
def test_generated_programs_are_pinned_by_digest(weights, max_atoms):
    cfg = GenConfig(max_atoms=max_atoms, seed=7, count=500, **WEIGHTS[weights])
    text = "\n".join(pretty(c) for c in gen_program(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_DIGESTS[weights, max_atoms]


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


def test_enumeration_matches_the_recursive_reference():
    # 2 + 6 + 22 + 90 + 394 + 1,806 + 8,558 programs, in the same order
    programs = list(enumerate_programs(7))
    assert programs == list(reference_enumerate_programs(7))
    sizes = [_atom_count(c) for c in programs]
    assert len(sizes) == 10_878 and sizes == sorted(sizes)
    # a size's atoms A(n) are exit and loop skip, or the forks of size n - 1;
    # its commands C(n) are its atoms, then each atom of size f before each
    # command of size n - f
    atoms, commands = {1: 2}, {}
    for n in range(1, 8):
        atoms[n] = atoms.get(n) or commands[n - 1]
        commands[n] = atoms[n] + sum(atoms[f] * commands[n - f] for f in range(1, n))
        assert sizes.count(n) == commands[n]


def test_enumeration_is_duplicate_free():
    programs = list(enumerate_programs(4))
    assert len(programs) == len(set(programs))
    assert all(_atom_count(c) <= 4 for c in programs)


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


def test_prefix_draws_depend_on_the_seed_alone(monkeypatch):
    drawn: list[frozenset[int]] = []

    def recording(graph, prefix):
        drawn.append(prefix)
        return check_leaf_balance(graph, prefix)

    monkeypatch.setattr(busycheck.harness, "check_leaf_balance", recording)

    def draws(seed):
        # the sweep alone, so every seed checks the same programs
        drawn.clear()
        report = soundness_campaign(GenConfig(seed=seed, count=0), exhaustive_max_atoms=4)
        assert report.leaf_balance_checks == 3 * report.verified == len(drawn) > 0
        return list(drawn)

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


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


def _count_campaign_cost(monkeypatch):
    """Counts of the `_node_fault` calls and a list of the thread tables made
    by the campaigns run after this call."""
    faults, made = [0], []
    node_fault = busycheck.proofs._node_fault

    def counting(t):
        faults[0] += 1
        return node_fault(t)

    monkeypatch.setattr(busycheck.proofs, "_node_fault", counting)
    monkeypatch.setattr(busycheck.harness, "ThreadTables", lambda: made.append(ThreadTables()) or made[-1])
    return faults, made


def test_default_campaign_cost_is_pinned(monkeypatch):
    # each distinct forked thread and dead suffix is proved and checked once per
    # campaign (22,198 `_node_fault` calls when every program was checked on its
    # own, 13,771 when only forked threads were shared)
    faults, made = _count_campaign_cost(monkeypatch)
    soundness_campaign(GenConfig(seed=42, count=500))
    assert faults[0] == 9116
    assert len(made) == 1 and sum(type(key) is tuple for key in made[0].proofs) == 497


def test_campaigns_share_no_tables(monkeypatch):
    faults, made = _count_campaign_cost(monkeypatch)
    counts = []
    for _ in range(2):
        soundness_campaign(GenConfig(count=40), exhaustive_max_atoms=4)
        counts.append(faults[0] - sum(counts))
    assert counts[0] == counts[1] > 0
    assert len(made) == 2 and made[0] is not made[1] and made[0].proofs


def test_multi_thread_counts_programs_that_reach_two_threads():
    programs = list(enumerate_programs(6))
    reach_two = [explore(c).max_threads >= 2 for c in programs]
    # a run's first step forks iff the main thread's first atom is a fork
    assert [type(c.head) is Fork for c in programs] == reach_two
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

    def accepting(c, tables=None):
        return exit_proof if c == LOOP_SKIP else verify(c, tables)

    monkeypatch.setattr(busycheck.harness, "verify", accepting)
    with pytest.raises(CampaignViolation, match="admits a fair infinite run") as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=1)
    assert err.value.program == LOOP_SKIP


def test_campaign_counts_a_verifier_that_rejects_exit_as_rejected_terminating(monkeypatch):
    def rejecting(c, tables=None):
        return None if c == EXIT else verify(c, tables)

    monkeypatch.setattr(busycheck.harness, "verify", rejecting)
    report = soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=1)
    assert (report.rejected, report.oracle_diverges, report.rejected_terminating) == (2, 1, 1)


def test_campaign_catches_a_schedule_that_drops_its_last_step(monkeypatch):
    # `fork { loop skip }` is the first Rejected program whose schedule is not
    # empty: [0, 0], whose last step ends the main thread
    monkeypatch.setattr(busycheck.harness, "thread_alone_schedule", lambda c: thread_alone_schedule(c)[:-1])
    with pytest.raises(CampaignViolation, match="short of its stop") as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=2)
    assert err.value.program == Fork(LOOP_SKIP)


def test_campaign_tells_a_short_budget_from_a_fair_infinite_run(monkeypatch):
    # one step leaves `fork { exit }` at {0: done, 1: exit}, not all-waiting
    monkeypatch.setattr(busycheck.harness, "fuel_bound", lambda c: 1)
    with pytest.raises(CampaignViolation, match="ran out of fuel") as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=2)
    assert err.value.program == Fork(EXIT)


def test_campaign_catches_an_unbalanced_annotated_pool(monkeypatch):
    monkeypatch.setattr(busycheck.harness, "check_balance", lambda pool: False)
    with pytest.raises(CampaignViolation, match="^ghost balance broken along the annotated trace\n") as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=1)
    assert err.value.program == EXIT


def test_campaign_names_the_leaves_of_unequal_leaf_sums(monkeypatch):
    def unequal(graph, prefix):
        balance = check_leaf_balance(graph, prefix)
        return balance._replace(obligations=balance.credits + 1, equal=False)

    monkeypatch.setattr(busycheck.harness, "check_leaf_balance", unequal)
    with pytest.raises(CampaignViolation) as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=1)
    # `exit` runs one step, RA-Exit, which is the only node and the only leaf
    assert err.value.program == EXIT
    assert err.value.detail == (
        "leaf sums differ on prefix [0]: 1 obligations vs 0 credits (step 0: thread 0 (0|0) exit;done)"
    )


def test_campaign_catches_a_prefix_that_is_not_sibling_closed(monkeypatch):
    # every node as the prefix: in `fork { exit }` the child's exit ends the
    # run before the parent's next step, so the fork keeps one of its two successors
    monkeypatch.setattr(busycheck.harness, "random_sc_loopfree_prefix", lambda graph, rng: frozenset(graph.nodes))
    with pytest.raises(CampaignViolation) as err:
        soundness_campaign(GenConfig(count=0), exhaustive_max_atoms=2)
    assert err.value.program == Fork(EXIT)
    assert err.value.detail == "leaf-balance check refused prefix [0, 1]: prefix is not sibling-closed"

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs at `--size tiny`, untraced and traced; two traced runs of
one seed must repeat every deterministic count exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.METRICS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    metrics = tiny(workload, trace=0)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


# the layer each workload is built to load, by a count that must not be 0
LOADED = {
    "campaign": ("harness.programs", "harness.multi_thread", "ghost.annotate.calls", "pog.leaf_balance.calls"),
    "interleave": ("semantics.explore.states", "semantics.run.steps", "pog.nodes"),
    "large": ("proofs.cert_bytes", "proofs.cert_nodes", "semantics.pick.calls"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = tiny(workload, trace=1)["metrics"]
    second = tiny(workload, trace=1)["metrics"]
    assert [(name, m["unit"]) for name, m in first.items()] == list(tracing.METRICS)
    for name in tracing.DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    for name in LOADED[workload]:
        assert first[name]["value"] > 0, name
    names, spans = tracing.load_spans(str(HERE / ".work" / f"spans-{workload}.bin"))
    assert len(spans["start"]) == len(spans["parent"]) > 0
    assert all(spans["end"][i] >= spans["start"][i] for i in range(len(spans["start"])))
    assert {names[i] for i in spans["name"]} >= {"request." + k for k in workloads.build(workload, 3, "tiny").kinds()}


def test_checkout_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_size_counts_normalized_commands():
    # 1 atom: exit, loop skip; 2 atoms: two forks and four sequences
    assert [workloads.sweep_size(n) for n in (1, 2, 3)] == [2, 8, 30]


def test_tamper_increments_one_child_obs():
    text = '{"ruleData": {"childObs": 0}, "premises": [{"ruleData": {"childObs": 2}}]}'
    assert workloads.tamper_text(text, 1) == text.replace('"childObs": 2', '"childObs": 3')
    assert workloads.tamper_text(text, 2) == text.replace('"childObs": 0', '"childObs": 1')


def test_answer_checks():
    assert workloads.answer_error(workloads.VERIFIED, 0, "Verified\n") is None
    assert workloads.answer_error(workloads.VERIFIED, 1, "Rejected\n") is not None
    assert workloads.answer_error(workloads.ABRUPT, 0, "AbruptExit steps=4\n") is None
    assert workloads.answer_error(workloads.ABRUPT, 0, "FuelExhausted live=2\n") is not None
    report = {"total": 8, "verified": 5, "rejected": 3, "soundnessViolations": 0,
              "balanceFailures": 0, "leafBalanceFailures": 0}
    assert workloads.answer_error(workloads.Expect(0, "campaign", 8), 0, json.dumps(report)) is None
    assert workloads.answer_error(workloads.Expect(0, "campaign", 9), 0, json.dumps(report)) is not None


def test_seed_reseeds_requests_but_keeps_the_program_mix():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1)
        b = workloads.build(name, 2)
        assert [r.argv for r in a.requests] != [r.argv for r in b.requests]
        assert sorted(r.kind for r in a.requests) == sorted(r.kind for r in b.requests)
        if name != "campaign":  # campaign labels name their fuzz seed
            assert sorted((r.kind, r.label) for r in a.requests) == sorted((r.kind, r.label) for r in b.requests)

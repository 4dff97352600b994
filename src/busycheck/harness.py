"""Random program generation and the empirical soundness campaign.

The campaign samples programs, runs the verifier, and cross-checks every
Verified answer against the exact divergence oracle `semantics.spawn_tree`, a
walk linear in the program (the tests hold it to the reference search
`semantics.explore`): a Verified program for which a fair infinite run exists
is a bug witness and aborts the campaign.  Verified programs are additionally
executed, annotated with their proof (which `annotate` checks), and checked
for ghost balance after every step plus the leaf-sum equality on random
sibling-closed loop-edge-free prefixes.  The same walk counts the programs
that reach a second thread (`multi_thread`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from .ghost import annotate, check_balance
from .lang import Command, EXIT, Fork, LOOP_SKIP, Seq, pretty
from .pog import build_pog, check_leaf_balance, describe_leaf, random_sc_loopfree_prefix
from .proofs import verify
from .semantics import (
    FuelExhausted,
    fuel_bound,
    initial_pool,
    round_robin,
    run,
    spawn_tree,
)

# Not called here: the campaign decides divergence with `spawn_tree`.  The name
# stays importable from this module because perfbench/tracing.py wraps it here.
from .semantics import explore  # noqa: F401


@dataclass(frozen=True)
class GenConfig:
    max_atoms: int = 12
    fork_prob: float = 1.0
    loop_prob: float = 1.0
    exit_prob: float = 1.0
    seed: int = 0
    count: int = 100

    def __post_init__(self) -> None:
        if min(self.fork_prob, self.loop_prob, self.exit_prob) <= 0:
            raise ValueError("weights must be positive")
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")


def gen_program(cfg: GenConfig) -> list[Command]:
    """Deterministic in the seed; every program has <= max_atoms atoms."""
    rng = random.Random(cfg.seed)
    return [_gen_command(rng, cfg, rng.randint(1, cfg.max_atoms)) for _ in range(cfg.count)]


def _gen_command(rng: random.Random, cfg: GenConfig, atoms: int) -> Command:
    kinds = ["exit", "loop"]
    weights = [cfg.exit_prob, cfg.loop_prob]
    if atoms >= 2:
        kinds.append("fork")
        weights.append(cfg.fork_prob)
    kind = rng.choices(kinds, weights)[0]
    if kind == "fork":
        body_atoms = rng.randint(1, atoms - 1)
        first: Command = Fork(_gen_command(rng, cfg, body_atoms))
        used = 1 + body_atoms
    else:
        first = EXIT if kind == "exit" else LOOP_SKIP
        used = 1
    if used == atoms:
        return first
    return Seq(first, _gen_command(rng, cfg, atoms - used))


def enumerate_programs(max_atoms: int):
    """All normalized commands with at most max_atoms atoms."""
    for n in range(1, max_atoms + 1):
        yield from _commands_of_size(n)


def _atoms_of_size(n: int):
    if n == 1:
        yield EXIT
        yield LOOP_SKIP
    else:
        for body in _commands_of_size(n - 1):
            yield Fork(body)


def _commands_of_size(n: int):
    yield from _atoms_of_size(n)
    for first_size in range(1, n):
        for first in _atoms_of_size(first_size):
            for rest in _commands_of_size(n - first_size):
                yield Seq(first, rest)


class CampaignViolation(AssertionError):
    """A sampled property failed; carries the offending program source."""

    def __init__(self, program: Command, detail: str):
        super().__init__(f"{detail}\n  program: {pretty(program)}")
        self.program = program
        self.detail = detail


@dataclass
class CampaignReport:
    total: int = 0
    verified: int = 0
    rejected: int = 0
    oracle_diverges: int = 0
    soundness_violations: int = 0
    leaf_balance_checks: int = 0
    leaf_balance_failures: int = 0
    balance_checks: int = 0
    balance_failures: int = 0
    rejected_terminating: int = 0
    multi_thread: int = 0
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "verified": self.verified,
            "rejected": self.rejected,
            "oracleDiverges": self.oracle_diverges,
            "soundnessViolations": self.soundness_violations,
            "leafBalanceChecks": self.leaf_balance_checks,
            "leafBalanceFailures": self.leaf_balance_failures,
            "balanceChecks": self.balance_checks,
            "balanceFailures": self.balance_failures,
            "rejectedTerminating": self.rejected_terminating,
            "multiThread": self.multi_thread,
            "wallTime": round(self.wall_time, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary(self) -> str:
        frac = self.rejected_terminating / self.rejected if self.rejected else 0.0
        rows = [
            ("programs", self.total),
            ("verified", self.verified),
            ("rejected", self.rejected),
            ("oracle says diverges", self.oracle_diverges),
            ("soundness violations", self.soundness_violations),
            ("leaf-balance checks", self.leaf_balance_checks),
            ("leaf-balance failures", self.leaf_balance_failures),
            ("ghost-balance checks", self.balance_checks),
            ("ghost-balance failures", self.balance_failures),
            ("rejected but terminating", f"{self.rejected_terminating} ({frac:.1%})"),
            ("multi-thread programs", self.multi_thread),
            ("wall time", f"{self.wall_time:.2f}s"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def soundness_campaign(
    cfg: GenConfig,
    exhaustive_max_atoms: int = 6,
    prefixes_per_trace: int = 3,
) -> CampaignReport:
    """Run the verify-vs-oracle loop; any violation raises CampaignViolation.

    On top of cfg.count random programs, every program with at most
    `exhaustive_max_atoms` atoms is swept to remove sampling blind spots at
    the smallest sizes (pass 0 to disable).
    """
    started = time.perf_counter()
    report = CampaignReport()
    programs = gen_program(cfg)
    if exhaustive_max_atoms:
        programs.extend(enumerate_programs(exhaustive_max_atoms))
    for index, program in enumerate(programs):
        _check_one(program, cfg.seed * 7919 + index, prefixes_per_trace, report)
    report.wall_time = time.perf_counter() - started
    return report


def _check_one(
    program: Command, prefix_seed: int, prefixes_per_trace: int, report: CampaignReport
) -> None:
    report.total += 1
    proof = verify(program)
    tree = spawn_tree(program)
    if tree.threads >= 2:
        report.multi_thread += 1
    if tree.diverges:
        report.oracle_diverges += 1
    if proof is None:
        report.rejected += 1
        if not tree.diverges:
            report.rejected_terminating += 1
        return
    report.verified += 1
    if tree.diverges:
        report.soundness_violations += 1
        raise CampaignViolation(program, "verified program admits a fair infinite run")

    outcome, trace = run(initial_pool(program), round_robin(), fuel_bound(program))
    if isinstance(outcome, FuelExhausted):
        raise CampaignViolation(program, "round-robin run of a verified program ran out of fuel")
    atrace = annotate(program, proof, trace)
    for step in atrace.steps:
        report.balance_checks += 1
        if not check_balance(step.after):
            report.balance_failures += 1
            raise CampaignViolation(program, "ghost balance broken along the annotated trace")
    graph = build_pog(atrace)
    rng = random.Random(prefix_seed)
    for _ in range(prefixes_per_trace):
        prefix = random_sc_loopfree_prefix(graph, rng)
        balance = check_leaf_balance(graph, prefix)
        report.leaf_balance_checks += 1
        if not balance.equal:
            report.leaf_balance_failures += 1
            detail = "; ".join(describe_leaf(graph, n) for n in balance.leaves)
            raise CampaignViolation(
                program,
                f"leaf sums differ on prefix {sorted(prefix)}: "
                f"{balance.obligations} obligations vs {balance.credits} credits "
                f"({detail})",
            )

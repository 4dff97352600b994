"""Random program generation and the empirical soundness campaign.

The campaign samples programs, runs the verifier, and reads every divergence
verdict off a pool the semantics reaches (`semantics.all_waiting`).  A
Rejected program's `thread_alone_schedule`, replayed through `step_pool`,
must stop every thread it reaches at `exit` or `loop skip`.  A Verified
program's round-robin run must end within `fuel_bound`; one that runs out of
fuel at an all-waiting pool is a bug witness (a fair infinite run exists)
and aborts the campaign.  The run is then annotated with the proof (which
`annotate` checks), and checked for ghost balance after every step plus the
leaf-sum equality on random sibling-closed loop-edge-free prefixes.  A
program reaches a second thread (`multi_thread`) iff its first atom is a
fork.  The fields of `CampaignReport` are the one list of a campaign's
counts; its three failure counts are 0 in every report returned, since a
violation raises instead (and ends `fuzz` with exit 1).

A campaign draws every prefix from one `random.Random` seeded from
`GenConfig.seed`, so it is reproducible from its seed.  The exhaustive sweep
builds the commands of each size once and shares them as the fork bodies
and suffixes of larger commands, and a campaign's one `ThreadTables` lets
`verify` and `annotate` prove and check each distinct forked thread and
each dead suffix once.
"""

from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import accumulate

from .ghost import AnnotationError, annotate, check_balance
from .lang import Command, EXIT, Fork, LOOP_SKIP, Seq, pretty, seq_of
from .pog import PrefixError, build_pog, check_leaf_balance, describe_leaf, random_sc_loopfree_prefix
from .proofs import ThreadTables, verify
from .semantics import FuelExhausted, RoundRobinScheduler, all_waiting, fuel_bound, initial_pool, run, step_pool
from .semantics import thread_alone_schedule

# Not called here: the campaign reads divergence off the pools that `step_pool`
# and `run` reach.  The name stays importable from this module because
# perfbench/tracing.py wraps it here.
from .semantics import explore  # noqa: F401

# Random prefixes checked for leaf balance on each verified program's graph.
PREFIXES_PER_TRACE = 3
# A campaign sweeps every program of at most this many atoms, unless told otherwise.
EXHAUSTIVE_MAX_ATOMS = 6


@dataclass(frozen=True)
class GenConfig:
    max_atoms: int = 12
    fork_prob: float = 1.0
    loop_prob: float = 1.0
    exit_prob: float = 1.0
    seed: int = 42
    count: int = 500

    def __post_init__(self) -> None:
        weights = (self.fork_prob, self.loop_prob, self.exit_prob)
        if min(weights) <= 0 or not math.isfinite(sum(weights)):
            raise ValueError("weights must be positive, with a finite sum")
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def gen_program(cfg: GenConfig) -> list[Command]:
    """Deterministic in the seed; every program has <= max_atoms atoms."""
    rng = random.Random(cfg.seed)
    # the cumulative weights that every kind draw bisects, summed once
    cum_weights = list(accumulate((cfg.exit_prob, cfg.loop_prob, cfg.fork_prob)))
    return [_gen_command(rng, cum_weights, rng.randint(1, cfg.max_atoms)) for _ in range(cfg.count)]


_KINDS = ("exit", "loop", "fork")


def _gen_command(rng: random.Random, cum_weights: list[float], atoms: int) -> Command:
    """`cum_weights` are those of `_KINDS`.  Each atom draws its kind, a fork
    then its body's size and body, before the rest of the spine; `spines`
    holds the parts drawn and the atoms left of each outer spine.  A kind is
    the draw `rng.choices` makes over the first `hi + 1` kinds, so a seed
    keeps its programs: one `random()` scaled by their total weight, as a
    float, and a bisect."""
    spines: list[tuple[list[Command], int]] = []
    parts: list[Command] = []
    while True:
        while atoms:
            hi = 2 if atoms >= 2 else 1  # a single atom cannot fork
            kind = _KINDS[bisect_right(cum_weights, rng.random() * (cum_weights[hi] + 0.0), 0, hi)]
            if kind == "fork":
                body_atoms = rng.randint(1, atoms - 1)
                spines.append((parts, atoms - 1 - body_atoms))
                parts, atoms = [], body_atoms
            else:
                parts.append(EXIT if kind == "exit" else LOOP_SKIP)
                atoms -= 1
        command = seq_of(parts)
        if not spines:
            return command
        parts, atoms = spines.pop()
        parts.append(Fork(command))


def enumerate_programs(max_atoms: int):
    """All commands with at most max_atoms atoms, by size: a size's atoms (the
    forks of the size below), then each smaller atom before each command of
    the size left.  The lists of each size are shared by larger sizes."""
    atoms: list[list[Command]] = [[]]
    commands: list[list[Command]] = [[]]
    for n in range(1, max_atoms + 1):
        atoms.append([EXIT, LOOP_SKIP] if n == 1 else [Fork(body) for body in commands[n - 1]])
        commands.append(
            atoms[n] + [Seq(first, rest) for size in range(1, n) for first in atoms[size] for rest in commands[n - size]]
        )
        yield from commands[n]


class CampaignViolation(AssertionError):
    """A sampled property failed; carries the offending program source."""

    def __init__(self, program: Command, detail: str):
        super().__init__(f"{detail}\n  program: {pretty(program)}")
        self.program = program
        self.detail = detail


def _count(label: str, show: str = "{}", default: int | float = 0):
    """A report field and its summary row: `label`, then `show` filled with the
    value (and `share`, that of the Rejected programs that terminate)."""
    return field(default=default, metadata={"label": label, "show": show})


@dataclass
class CampaignReport:
    """A campaign's counts.  The fields are the one list of them: in order,
    they are the rows of `summary` and the keys of `to_json_dict`, each its
    field's name in camelCase."""

    total: int = _count("programs")
    verified: int = _count("verified")
    rejected: int = _count("rejected")
    oracle_diverges: int = _count("oracle says diverges")
    soundness_violations: int = _count("soundness violations")
    leaf_balance_checks: int = _count("leaf-balance checks")
    leaf_balance_failures: int = _count("leaf-balance failures")
    balance_checks: int = _count("ghost-balance checks")
    balance_failures: int = _count("ghost-balance failures")
    rejected_terminating: int = _count("rejected but terminating", "{} ({share:.1%})")
    multi_thread: int = _count("multi-thread programs")
    wall_time: float = _count("wall time", "{:.2f}s", 0.0)

    def to_json_dict(self) -> dict:
        payload = {}
        for f in fields(self):
            head, *words = f.name.split("_")
            payload[head + "".join(w.title() for w in words)] = getattr(self, f.name)
        payload["wallTime"] = round(self.wall_time, 3)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary(self) -> str:
        share = self.rejected_terminating / self.rejected if self.rejected else 0.0
        rows = [
            (f.metadata["label"], f.metadata["show"].format(getattr(self, f.name), share=share)) for f in fields(self)
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def soundness_campaign(
    cfg: GenConfig,
    exhaustive_max_atoms: int = EXHAUSTIVE_MAX_ATOMS,
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
    rng = random.Random(cfg.seed)  # draws every prefix the campaign checks
    tables = ThreadTables()  # each distinct forked thread's proof and check, made once
    for program in programs:
        _check_one(program, rng, report, tables)
    report.wall_time = time.perf_counter() - started
    return report


def _check_one(program: Command, rng: random.Random, report: CampaignReport, tables: ThreadTables) -> None:
    report.total += 1
    if type(program.head) is Fork:
        report.multi_thread += 1
    proof = verify(program, tables)
    if proof is None:
        report.rejected += 1
        pool = initial_pool(program)
        for tid in thread_alone_schedule(program):
            pool, _ = step_pool(pool, tid)
        if not all(isinstance(k, Command) and k.head in (EXIT, LOOP_SKIP) for _, k in pool.threads):
            raise CampaignViolation(program, "thread-alone schedule leaves a thread short of its stop")
        if all_waiting(pool):
            report.oracle_diverges += 1
        else:
            report.rejected_terminating += 1
        return
    report.verified += 1

    outcome, trace = run(initial_pool(program), RoundRobinScheduler(), fuel_bound(program))
    if isinstance(outcome, FuelExhausted):
        if all_waiting(outcome.last_pool):
            raise CampaignViolation(program, "verified program admits a fair infinite run")
        raise CampaignViolation(program, "round-robin run of a verified program ran out of fuel")
    try:
        atrace = annotate(program, proof, trace, tables)
    except AnnotationError as exc:
        raise CampaignViolation(program, f"annotating the verified program's run failed: {exc}") from exc
    for step in atrace.steps:
        report.balance_checks += 1
        if not check_balance(step.after):
            raise CampaignViolation(program, "ghost balance broken along the annotated trace")
    graph = build_pog(atrace)
    for _ in range(PREFIXES_PER_TRACE):
        prefix = random_sc_loopfree_prefix(graph, rng)
        try:
            balance = check_leaf_balance(graph, prefix)
        except PrefixError as exc:
            raise CampaignViolation(program, f"leaf-balance check refused prefix {sorted(prefix)}: {exc}") from exc
        report.leaf_balance_checks += 1
        if not balance.equal:
            detail = "; ".join(describe_leaf(graph, n) for n in balance.leaves)
            raise CampaignViolation(
                program,
                f"leaf sums differ on prefix {sorted(prefix)}: "
                f"{balance.obligations} obligations vs {balance.credits} credits "
                f"({detail})",
            )

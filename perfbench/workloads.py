"""Workload definitions: program families, request lists and expected answers.

Nothing here imports busycheck.  Every expected answer follows from how the
program was built, so a wrong verdict from the program under test cannot
leak into the benchmark's notion of "correct":

* every k x m, nesting, waiter and flat program has a thread that reaches
  `exit` under any fair schedule, and no fair run avoids it, so it is
  Verified and its run ends in AbruptExit;
* every Rejected twin lets all of its threads reach `loop skip`, so it
  admits a fair infinite run: it is Rejected, and a run stops with
  FuelExhausted and a pool whose size is fixed by the family;
* a certificate with one Fork `childObs` incremented no longer matches its
  premise's precondition, so `check-proof` answers RuleViolation;
* a campaign over n random programs plus the exhaustive sweep up to a atoms
  checks n + sweep_size(a) programs and finds no violation.

A pass is the workload's fixed request list.  The seed chooses the order of
the programs and every seeded detail of a request (scheduler rotation or
seed, which Fork node gets tampered, campaign seeds); it never changes which
programs are in the list, so per-kind medians describe the same mix on every
seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("campaign", "interleave", "large")
SIZES = ("full", "tiny")


# --- program families -----------------------------------------------------------


def km_program(k: int, m: int, end: str = "exit") -> str:
    """k x fork{ (fork{loop skip})^m; end }; loop skip."""
    thread = "fork { " + "fork { loop skip }; " * m + end + " }"
    return "; ".join([thread] * k) + "; loop skip"


def nest_program(depth: int, end: str = "exit") -> str:
    """fork{ ... fork{ end } ... }; loop skip with `depth` nested forks."""
    body = end
    for _ in range(depth):
        body = "fork { " + body + " }"
    return body + "; loop skip"


def waiter_program(n: int) -> str:
    """n busy-waiting children; the main thread exits."""
    return "; ".join(["fork { loop skip }"] * n) + "; exit"


def flat_program(n: int) -> str:
    """n exiting children; the main thread busy-waits."""
    return "; ".join(["fork { exit }"] * n) + "; loop skip"


def km_twin_live(k: int, m: int) -> int:
    """Threads left busy-waiting by the Rejected k x m twin: main, k, k*m."""
    return 1 + k + k * m


NEST_TWIN_LIVE = 2  # main and the innermost thread; the forkers terminate


def sweep_size(max_atoms: int) -> int:
    """Number of normalized commands with at most `max_atoms` atoms.

    C(n) = A(n) + sum_{f<n} A(f) * C(n-f), where A(1) = 2 (exit, loop skip)
    and A(n) = C(n-1) counts fork atoms of size n.
    """
    commands = [0] * (max_atoms + 1)
    atoms = [0] * (max_atoms + 1)
    for n in range(1, max_atoms + 1):
        atoms[n] = 2 if n == 1 else commands[n - 1]
        commands[n] = atoms[n] + sum(atoms[f] * commands[n - f] for f in range(1, n))
    return sum(commands)


# --- requests -------------------------------------------------------------------


@dataclass(frozen=True)
class Expect:
    """Expected exit code and stdout check.

    `check` is one of:
      exact        stdout stripped equals `arg`
      prefix       stdout starts with `arg`
      last_prefix  last stdout line starts with `arg`
      trace_exit   last annotated-trace line is an RA-Exit step
      dot          a DOT graph with a shaded prefix cluster
      campaign     fuzz --json report over `arg` programs with no violation
    """

    rc: int
    check: str
    arg: object = None


@dataclass(frozen=True)
class Tamper:
    """Copy certificate `src` to `dst` with one Fork childObs incremented."""

    src: str
    dst: str
    pick: int  # which Fork node, modulo the number of Fork nodes


@dataclass(frozen=True)
class Request:
    kind: str  # verify | check_proof | run | trace | graph | fuzz
    argv: tuple[str, ...]
    expect: Expect
    label: str
    after: Tamper | None = None


@dataclass
class Workload:
    name: str
    seed: int
    requests: list[Request] = field(default_factory=list)
    warmup: Request | None = None

    def kinds(self) -> list[str]:
        seen: list[str] = []
        for r in self.requests:
            if r.kind not in seen:
                seen.append(r.kind)
        return seen


VERIFIED = Expect(0, "exact", "Verified")
REJECTED = Expect(1, "exact", "Rejected")
ABRUPT = Expect(0, "last_prefix", "AbruptExit steps=")
TRACE_EXIT = Expect(0, "trace_exit")
DOT = Expect(0, "dot")
CHECK_OK = Expect(0, "exact", "Ok")
CHECK_BAD = Expect(1, "prefix", "RuleViolation")


def _sched_args(rotation: int) -> tuple[str, ...]:
    return () if rotation == 0 else ("--sched", f"rotated:{rotation}")


def _campaign(seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("campaign", seed)
    if size == "tiny":
        opts, count, sweep, runs = ("--count", "30", "--max-atoms", "8", "--exhaustive-max", "3"), 30, 3, 1
    else:  # the `busycheck fuzz` defaults; four seeds even out what one seed's programs cost
        opts, count, sweep, runs = (), 500, 6, 4
    for _ in range(runs):
        s = rng.randrange(1, 1 << 30)
        w.requests.append(
            Request(
                "fuzz",
                ("fuzz", "--seed", str(s), "--json") + opts,
                Expect(0, "campaign", count + sweep_size(sweep)),
                f"fuzz seed={s}",
            )
        )
    s = rng.randrange(1, 1 << 30)
    w.warmup = Request(
        "fuzz",
        ("fuzz", "--seed", str(s), "--count", "20", "--exhaustive-max", "2", "--json"),
        Expect(0, "campaign", 20 + sweep_size(2)),
        "warm-up fuzz",
    )
    return w


def _interleave(seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    if size == "tiny":
        grid = [(k, m) for k in (1, 2) for m in range(2)]
        depths = range(1, 4)
        km_twins, nest_twins = set(grid), set(depths)
    else:
        grid = [(k, m) for k in (1, 2, 3) for m in range(5)] + [(4, m) for m in range(3)]
        depths = range(1, 13)
        # A twin's run walks its whole fuel budget, which grows with the
        # state count; the two largest k x m twins and nesting depths 11-12
        # take 1-3 s each and would swamp the pass.
        km_twins = set(grid) - {(3, 4), (4, 2)}
        nest_twins = set(range(1, 11))
    programs: list[tuple[str, str, int | None]] = []  # (label, text, twin live count)
    for k, m in grid:
        programs.append((f"km{k}x{m}", km_program(k, m), None))
        if (k, m) in km_twins:
            programs.append((f"km{k}x{m}-twin", km_program(k, m, "loop skip"), km_twin_live(k, m)))
    for d in depths:
        programs.append((f"nest{d}", nest_program(d), None))
        if d in nest_twins:
            programs.append((f"nest{d}-twin", nest_program(d, "loop skip"), NEST_TWIN_LIVE))
    rng.shuffle(programs)
    w = Workload("interleave", seed)
    for label, text, live in programs:
        if live is not None:
            w.requests.append(Request("verify", ("verify", "-e", text), REJECTED, label))
            w.requests.append(
                Request("run", ("run", "-e", text), Expect(0, "exact", f"FuelExhausted live={live}"), label)
            )
            continue
        sched = _sched_args(rng.randrange(4))
        w.requests.append(Request("verify", ("verify", "-e", text), VERIFIED, label))
        w.requests.append(Request("run", ("run", "-e", text) + sched, ABRUPT, label))
        w.requests.append(Request("trace", ("trace", "-e", text) + sched, TRACE_EXIT, label))
        w.requests.append(Request("graph", ("graph", "--prefix", "-e", text) + sched, DOT, label))
    w.warmup = Request("graph", ("graph", "--prefix", "-e", km_program(1, 1)), DOT, "warm-up graph")
    return w


def _large(seed: int, size: str, workdir: str) -> Workload:
    rng = random.Random(seed)
    if size == "tiny":
        waiters, flats, random_max = (4, 8), (5, 10), 8
    else:
        waiters, flats = (10, 20, 30, 40, 50, 60), (50, 100, 150, 200)
        # `pick` of the random scheduler rescans the trace: a waiter of 40
        # takes ~0.9 s and one of 60 ~6 s, so random runs stop at 30.
        random_max = 30
    programs = [(f"waiter{n}", waiter_program(n), n <= random_max) for n in waiters]
    programs += [(f"flat{n}", flat_program(n), True) for n in flats]
    rng.shuffle(programs)
    w = Workload("large", seed)
    for index, (label, text, random_run) in enumerate(programs):
        cert = f"{workdir}/cert{index}.json"
        bad = f"{workdir}/cert{index}-bad.json"
        w.requests.append(
            Request(
                "verify",
                ("verify", "-e", text, "--emit-cert", cert),
                VERIFIED,
                label,
                after=Tamper(cert, bad, rng.randrange(1 << 30)),
            )
        )
        w.requests.append(Request("check_proof", ("check-proof", cert), CHECK_OK, label))
        w.requests.append(Request("check_proof", ("check-proof", bad), CHECK_BAD, label + "-tampered"))
        w.requests.append(Request("trace", ("trace", "-e", text), TRACE_EXIT, label))
        w.requests.append(Request("graph", ("graph", "--prefix", "-e", text), DOT, label))
        if random_run:
            s = rng.randrange(1 << 20)
            w.requests.append(
                Request("run", ("run", "--sched", "random", "--seed", str(s), "-e", text), ABRUPT, label)
            )
    w.warmup = Request(
        "graph", ("graph", "--prefix", "-e", waiter_program(waiters[0])), DOT, "warm-up graph"
    )
    return w


def build(name: str, seed: int, size: str = "full", workdir: str = ".") -> Workload:
    if name == "campaign":
        return _campaign(seed, size)
    if name == "interleave":
        return _interleave(seed, size)
    if name == "large":
        return _large(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


# --- answer checks and certificate tampering ----------------------------------


_CHILD_OBS = re.compile(r'("childObs"\s*:\s*)(\d+)')


def tamper_text(text: str, pick: int) -> str:
    """Increment the childObs of Fork node number `pick % forks`."""
    matches = list(_CHILD_OBS.finditer(text))
    if not matches:
        raise ValueError("certificate has no Fork node")
    m = matches[pick % len(matches)]
    return text[: m.start(2)] + str(int(m.group(2)) + 1) + text[m.end(2) :]


def answer_error(expect: Expect, rc: int, out: str) -> str | None:
    """None when (rc, stdout) is the expected answer; otherwise why not."""
    if rc != expect.rc:
        return f"exit code {rc}, expected {expect.rc}"
    text = out.strip()
    lines = text.splitlines()
    if expect.check == "exact":
        ok = text == expect.arg
    elif expect.check == "prefix":
        ok = text.startswith(expect.arg)
    elif expect.check == "last_prefix":
        ok = bool(lines) and lines[-1].startswith(expect.arg)
    elif expect.check == "trace_exit":
        ok = bool(lines) and lines[-1].split("\t")[2:3] == ["RA-Exit"]
    elif expect.check == "dot":
        ok = text.startswith("digraph pog {") and text.endswith("}") and "cluster_prefix" in text
    elif expect.check == "campaign":
        return _campaign_error(text, expect.arg)
    else:
        raise ValueError(f"unknown check {expect.check!r}")
    return None if ok else f"unexpected output {text[-120:]!r}"


def _campaign_error(text: str, programs: int) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return f"fuzz printed no JSON report: {text[-120:]!r}"
    problems = []
    if report.get("total") != programs:
        problems.append(f"total {report.get('total')} != {programs}")
    if report.get("verified", 0) + report.get("rejected", 0) != programs:
        problems.append("verified + rejected != total")
    for key in ("soundnessViolations", "balanceFailures", "leafBalanceFailures"):
        if report.get(key) != 0:
            problems.append(f"{key} = {report.get(key)}")
    return "; ".join(problems) or None

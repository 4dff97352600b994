"""busycheck benchmark: CLI latency and fuzz throughput, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign|interleave|large \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

One closed-loop caller in one process drives `busycheck.cli.main(argv)`
in-process with stdout captured, issuing the workload's fixed request list
(a pass) again and again for about `--seconds` seconds; whole passes only.
Every answer is checked against the answer fixed by the workload's
construction (see workloads.py).

--trace 0 prints the end-to-end table for each request kind and, as the last
line, a JSON object whose metrics are the gated end-to-end metrics.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (see tracing.py) in the same way.  README.md has the details.

The exit code is 0 when a result was printed; it is 2, with nothing printed
on stdout, when the checkout has no busycheck sources or the arguments are
wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_PROBES = 15
REF_MS = 1.3  # nominal reference-kernel time; scaled times assume it
REF_EVERY = 0.05  # seconds of request time per reference-kernel run ...
REF_RUNS = 15  # ... up to this many runs after one request
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples beyond it

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _load_busycheck():
    """Import busycheck from this checkout's sources; None if they are absent."""
    if not (SRC / "busycheck" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import busycheck.cli

    if Path(busycheck.cli.__file__).resolve().parent != SRC / "busycheck":
        return None
    return busycheck.cli.main


# --- issuing requests -------------------------------------------------------------


class Runner:
    """Issues requests through the CLI entry point and checks every answer."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failures: dict[tuple[str, str, str], int] = {}

    def issue(self, req: workloads.Request) -> float:
        """Run one request; returns its latency in seconds."""
        if req.after is not None:
            _discard(req.after)  # a stale certificate must not answer for this request
        gc.collect()  # each request starts from a clean heap, as a fresh CLI process would
        out = io.StringIO()
        error = None
        call = self.cli_main
        if self.tracer is not None:  # each request is a root span
            self.tracer.request = self.attempted
            call = self.tracer.wrap(call, "request." + req.kind)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            try:
                rc = call(list(req.argv))
            except SystemExit as exc:  # argparse refusing the request
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - any crash is a failed request
                rc, error = None, f"raised {type(exc).__name__}: {str(exc)[:100]}"
            elapsed = time.perf_counter() - started
        self.attempted += 1
        if error is None:
            error = workloads.answer_error(req.expect, rc, out.getvalue())
        if error is None and req.after is not None:
            error = _tamper(req.after)
        if error is not None:
            key = (req.kind, req.label, error)
            self.failures[key] = self.failures.get(key, 0) + 1
        return elapsed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _discard(t: workloads.Tamper) -> None:
    for path in (t.src, t.dst):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _tamper(t: workloads.Tamper) -> str | None:
    try:
        with open(t.src, encoding="utf-8") as fh:
            text = fh.read()
        with open(t.dst, "w", encoding="utf-8") as fh:
            fh.write(workloads.tamper_text(text, t.pick))
    except (OSError, ValueError) as exc:
        return f"cannot tamper certificate: {exc}"
    return None


# --- machine speed -------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    state: tuple
    depth: int


def reference_kernel() -> int:
    """A fixed pure-Python search in busycheck's style (small frozen objects,
    tuples hashed into a set, calls, isinstance) that shares no code with it."""
    start = (0,) * 5
    seen = {start}
    frontier = [_Node(start, 0)]
    while frontier:
        node = frontier.pop()
        s = node.state
        for i in range(len(s)):
            nxt = s[:i] + ((s[i] + 1) % 3,) + s[i + 1 :]
            if nxt not in seen and isinstance(nxt, tuple):
                seen.add(nxt)
                frontier.append(_Node(nxt, node.depth + 1))
    return len(seen)


def speed(runs: int) -> float:
    """Median seconds of `runs` reference-kernel runs, with the collector off
    so that busycheck's heap cannot slow the kernel down."""
    times = []
    gc.disable()
    try:
        for _ in range(runs):
            started = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


# --- passes -------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    kind: str
    raw: float  # seconds
    scaled: float  # seconds at the nominal machine speed


def one_pass(runner: Runner, wl: workloads.Workload) -> list[Sample]:
    """Issue the workload's request list once.

    The reference kernel runs before the first request and after each one,
    once per REF_EVERY seconds of request time (1 to REF_RUNS runs).  A
    request's scaled time is its time x REF_MS / the mean of the median
    kernel times just before and just after it, which cancels most of the
    machine's speed drift.
    """
    before = speed(1)
    samples = []
    for req in wl.requests:
        elapsed = runner.issue(req)
        after = speed(max(1, min(REF_RUNS, round(elapsed / REF_EVERY))))
        samples.append(Sample(req.kind, elapsed, elapsed * REF_MS / 1000 / ((before + after) / 2)))
        before = after
    return samples


def run_for(seconds: float, step, between=None) -> None:
    """Call `step` whole times until one more call would end further past the
    deadline than stopping now falls short of it.  `between(share)` runs after
    each step, with the share of the time spent so far; its own time does not
    count."""
    spent = 0.0
    calls = 0
    while True:
        started = time.perf_counter()
        step()
        spent += time.perf_counter() - started
        calls += 1
        done = spent + spent / calls / 2 >= seconds
        if between is not None:
            between(1.0 if done else spent / seconds)
        if done:
            return


# --- statistics ---------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return 100.0 * rank / n, sorted(values)[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbes:
    """Set-up time: fresh interpreters that import busycheck, build the
    workload's inputs and make its warm-up request.

    A probe's time is the CPU time (user + system) of its interpreter, which
    leaves out the time it waits for a core on the shared machine.  The
    probes are spread over the run, between passes, so that a slow spell of
    the machine meets few of them; the metric is their median."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        ]
        self.times: list[float] = []
        self.errors: list[str] = []

    def probe(self) -> None:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:  # on timeout, run() kills the probe and waits for it before raising
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, check=False)
        except subprocess.TimeoutExpired:
            self.errors.append("setup probe timed out after 60 s")
        else:
            if proc.returncode != 0:
                self.errors.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)

    def catch_up(self, share: float) -> None:
        """Probe until `share` of all SETUP_PROBES probes are done."""
        while len(self.times) < round(SETUP_PROBES * share):
            self.probe()


# --- reporting ----------------------------------------------------------------------


def _emit(correct: bool, runner: Runner, metrics: dict[str, tuple[float, str]]) -> None:
    for (kind, label, error), times in sorted(runner.failures.items()):
        print(f"FAILED {kind} {label} x{times}: {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )


def end_to_end(args, wl, runner: Runner) -> None:
    setup = SetupProbes(args)
    setup.probe()
    runner.issue(wl.warmup)
    passes: list[list[Sample]] = []
    rss: list[float] = []

    def step() -> None:
        passes.append(one_pass(runner, wl))
        # the high-water mark keeps creeping up with every pass as the heap
        # fragments, so the metric is taken after the first pass
        if not rss:
            rss.append(peak_rss_mb())

    run_for(args.seconds, step, setup.catch_up)
    setup_s = statistics.median(setup.times)
    samples: dict[str, list[tuple[float, float]]] = {}  # kind -> (raw, scaled) seconds
    for one in passes:
        for x in one:
            samples.setdefault(x.kind, []).append((x.raw, x.scaled))
    pass_raw = [sum(x.raw for x in one) for one in passes]
    pass_scaled = [sum(x.scaled for x in one) for one in passes]

    def row(name, raw, scaled, unit, note):
        print(f"  {name:<22} {raw:>12} {scaled:>12} {unit:<6} {note}")

    print(f"workload {wl.name} seed {wl.seed}: {len(passes)} passes of {len(wl.requests)} requests")
    row("metric", "raw", "scaled", "unit", f"scaled = raw x {REF_MS} ms / adjacent reference-kernel time")
    p50s_raw, p50s = [], []
    for kind in wl.kinds():
        raw = [r * 1000 for r, _ in samples[kind]]
        scaled = [s * 1000 for _, s in samples[kind]]
        n = len(raw)
        p50s_raw.append(statistics.median(raw))
        p50s.append(statistics.median(scaled))
        row(f"{kind}.p50_ms", f"{p50s_raw[-1]:.3f}", f"{p50s[-1]:.3f}", "ms", f"n={n}")
        t_raw, t_scaled = tail(raw), tail(scaled)
        if t_raw is None:
            row(f"{kind}.tail_ms", "-", "-", "ms", f"n={n}: fewer than {TAIL_BEYOND + 1} samples")
        else:
            row(f"{kind}.tail_ms", f"{t_raw[1]:.3f}", f"{t_scaled[1]:.3f}", "ms", f"p{t_raw[0]:.1f}, n={n}")
    if "fuzz" in samples:
        programs = [r.expect.arg for r in wl.requests if r.kind == "fuzz"]
        rates = [(programs[i % len(programs)] / r, programs[i % len(programs)] / s)
                 for i, (r, s) in enumerate(samples["fuzz"])]
        row("fuzz.programs_per_s", f"{statistics.median(r for r, _ in rates):.1f}",
            f"{statistics.median(s for _, s in rates):.1f}", "1/s", f"n={len(rates)} campaigns")
    row("failed_frac", f"{runner.failed / runner.attempted:.4f}", "", "share",
        f"{runner.failed} of {runner.attempted} requests")
    row("setup_s", f"{setup_s:.4f}", "", "s", f"median CPU time of {len(setup.times)} fresh interpreters")
    row("peak_rss_mb", f"{rss[0]:.1f}", "", "MB", "benchmark process, set-up and first pass")
    p50_ms = geomean(p50s)
    pass_s = statistics.median(pass_scaled)
    row("p50_ms", f"{geomean(p50s_raw):.3f}", f"{p50_ms:.3f}", "ms", "geometric mean of the per-kind medians")
    row("pass_s", f"{statistics.median(pass_raw):.4f}", f"{pass_s:.4f}", "s", "median request time of one pass")
    speeds = [x.raw / x.scaled * REF_MS for one in passes for x in one]
    row("speed", f"{statistics.median(speeds):.3f}", f"{REF_MS:.3f}", "ms",
        "median reference-kernel time around a request")
    for error in setup.errors:
        print(f"FAILED setup: {error}")

    metrics = {
        "p50_ms": (p50_ms, "ms"),
        "pass_s": (pass_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    _emit(runner.failed == 0 and not setup.errors, runner, metrics)


def traced(args, wl, runner: Runner) -> None:
    runner.issue(wl.warmup)
    tracer = tracing.Tracer()
    plain: list[float] = []
    passes: list[float] = []

    def pair() -> None:
        # untraced and traced passes alternate, so that both see the same
        # machine; their ratio is the tracing overhead
        plain.append(sum(x.raw for x in one_pass(runner, wl)))
        tracer.install()
        runner.tracer = tracer
        try:
            passes.append(sum(x.raw for x in one_pass(runner, wl)))
        finally:
            tracer.uninstall()
            runner.tracer = None

    run_for(args.seconds, pair)
    values, per_kind = tracer.metrics(len(passes), sum(passes) / sum(plain))
    spans = WORKDIR / f"spans-{wl.name}.bin"
    tracer.write(str(spans))

    print(
        f"workload {wl.name} seed {wl.seed}: traced {len(passes)} passes of "
        f"{len(wl.requests)} requests, {len(tracer.start)} spans written to {spans.relative_to(ROOT)}"
    )
    units = dict(tracing.METRICS)
    for name, value in values.items():
        note = "per pass, deterministic" if name in tracing.DETERMINISTIC else "per pass"
        print(f"  {name:<32} {value:>14.4f} {units[name]:<6} {note}")
    for name, value in tracer.ratios().items():  # printed only; see README.md
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<32} {shown:>14} {'ratio':<6} per run, deterministic, not in the result")
    print("self time per pass within each request kind (ms, share of that kind's request time):")
    for kind, spans in sorted(per_kind.items()):
        total = sum(spans.values())
        top = sorted(spans.items(), key=lambda item: -item[1])[:6]
        print(f"  {kind:<22} {total:>10.1f}  " + ", ".join(f"{n} {t:.1f} ({t / total:.0%})" for n, t in top))
    metrics = {name: (value, units[name]) for name, value in values.items()}
    _emit(runner.failed == 0, runner, metrics)


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    cli_main = _load_busycheck()
    if cli_main is None:
        print(f"no busycheck sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.size, str(WORKDIR))
    runner = Runner(cli_main)
    gc.freeze()  # keep the modules and inputs out of the collections between requests
    if args.setup_probe:
        runner.issue(wl.warmup)
        for (_, label, error), _ in runner.failures.items():
            print(f"{label}: {error}", file=sys.stderr)
        return 1 if runner.failed else 0
    try:
        if args.trace:
            traced(args, wl, runner)
        else:
            end_to_end(args, wl, runner)
    finally:
        for req in wl.requests:
            if req.after is not None:
                _discard(req.after)
    return 0


if __name__ == "__main__":
    sys.exit(main())

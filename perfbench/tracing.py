"""Per-layer tracing of busycheck from outside the program.

`Tracer.install` replaces the public functions of each layer at the names
through which `cli`, `harness`, `ghost`, `proofs` and `assertions` call them
(and the schedulers' `pick` methods) with wrappers that record one span per
call.  A span is (name, start, end, parent span, request id); spans stay in
flat arrays in memory and are written out once the run ends.  A layer's
self time is its span time minus the time of its direct child spans.

Counts are taken from arguments and return values at the same boundaries:
`ReachabilityInfo.state_count`, proof-tree sizes, trace lengths,
`len(graph.info)`, campaign reports.  Every metric is reported per pass (the
workload's fixed request list); every pass issues the same requests, so the
counts are exact integers that repeat from run to run.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# (name, unit) of every per-layer metric, in report order.
METRICS: tuple[tuple[str, str], ...] = (
    ("lang.parse.calls", "count"),
    ("lang.parse.self_ms", "ms"),
    ("lang.atoms", "count"),
    ("proofs.verify.calls", "count"),
    ("proofs.verify.self_ms", "ms"),
    ("proofs.cert_nodes", "count"),
    ("proofs.check_proof.calls", "count"),
    ("proofs.check_proof.self_ms", "ms"),
    ("proofs.cert_io.self_ms", "ms"),
    ("proofs.cert_bytes", "bytes"),
    ("assertions.normalize.calls", "count"),
    ("assertions.normalize.self_ms", "ms"),
    ("assertions.view_shift.calls", "count"),
    ("assertions.view_shift.self_ms", "ms"),
    ("semantics.explore.calls", "count"),
    ("semantics.explore.self_ms", "ms"),
    ("semantics.explore.states", "count"),
    ("semantics.explore.max_threads", "count"),
    ("semantics.run.self_ms", "ms"),
    ("semantics.run.steps", "count"),
    ("semantics.fuel_use", "ratio"),
    ("semantics.pick.calls", "count"),
    ("semantics.pick.self_ms", "ms"),
    ("ghost.annotate.calls", "count"),
    ("ghost.annotate.self_ms", "ms"),
    ("ghost.annotate.incl_ms", "ms"),
    ("ghost.steps_inserted", "count"),
    ("ghost.serialize.self_ms", "ms"),
    ("pog.build_pog.self_ms", "ms"),
    ("pog.nodes", "count"),
    ("pog.edges", "count"),
    ("pog.prefix.self_ms", "ms"),
    ("pog.leaf_balance.calls", "count"),
    ("pog.leaf_balance.self_ms", "ms"),
    ("pog.to_dot.self_ms", "ms"),
    ("harness.campaign.self_ms", "ms"),
    ("harness.gen.self_ms", "ms"),
    ("harness.programs", "count"),
    ("harness.verified", "count"),
    ("harness.rejected", "count"),
    ("harness.non_diverging", "count"),
    ("harness.multi_thread", "count"),
    ("cli.self_ms", "ms"),
    ("cli.request_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
)

# Metrics that do not depend on timing: two traced runs of one seed repeat them.
DETERMINISTIC = tuple(
    name for name, unit in METRICS if unit != "ms" and name != "bench.trace_overhead"
)


def _count_atoms(text: str) -> int:
    return text.count("exit") + text.count("loop") + text.count("fork")


def _tree_nodes(tree) -> int:
    nodes, stack = 0, [tree]
    while stack:
        t = stack.pop()
        nodes += 1
        stack.extend(t.premises)
    return nodes


@dataclass
class Counts:
    """Totals taken from arguments and return values over the traced passes."""

    atoms: int = 0
    cert_nodes: int = 0
    cert_bytes: int = 0
    states: int = 0
    max_threads: int = 0
    run_steps: int = 0
    ended_steps: int = 0
    ended_fuel: int = 0
    steps_inserted: int = 0
    pog_nodes: int = 0
    pog_edges: int = 0
    programs: int = 0
    verified: int = 0
    rejected: int = 0
    non_diverging: int = 0
    multi_thread: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counts = Counts()
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, count: Callable | None = None, materialize: bool = False):
        nid = self._name_id(name)
        names, parents, reqs, starts, ends, stack = (
            self.name, self.parent, self.req, self.start, self.end, self.stack,
        )

        # the span is recorded inline, not through helper methods: on `campaign`
        # a pass makes about 700k spans, and every call here adds to the overhead
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if materialize:  # a generator's work happens while it is consumed
                    result = list(result)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    # --- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, name: str, count=None, materialize=False) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count, materialize))

    def install(self) -> None:
        from busycheck import assertions, cli, ghost, harness, proofs, semantics

        c = self.counts

        def parsed(args, result):
            c.atoms += _count_atoms(args[0])

        def verified(args, result):
            if result is not None:
                c.cert_nodes += _tree_nodes(result)

        def saved(args, result):
            c.cert_bytes += os.path.getsize(args[1])

        def loaded(args, result):
            c.cert_bytes += os.path.getsize(args[0])

        def explored(args, result):
            c.states += result.state_count
            c.max_threads = max(c.max_threads, result.max_threads)

        def explored_by_campaign(args, result):
            explored(args, result)
            if result.max_threads >= 2:
                c.multi_thread += 1

        def ran(args, result):
            outcome, trace = result
            c.run_steps += len(trace)
            if not isinstance(outcome, semantics.FuelExhausted):
                c.ended_steps += len(trace)
                c.ended_fuel += args[2]

        def annotated(args, result):
            c.steps_inserted += len(result.steps) - len(args[2])

        def built(args, result):
            c.pog_nodes += len(result.info)
            c.pog_edges += len(result.edges)

        def campaigned(args, result):
            c.programs += result.total
            c.verified += result.verified
            c.rejected += result.rejected
            c.non_diverging += result.total - result.oracle_diverges

        p = self._patch
        p(cli, "parse", "lang.parse", parsed)
        p(cli, "verify", "proofs.verify", verified)
        p(cli, "check_proof", "proofs.check_proof")
        p(cli, "save_certificate", "proofs.cert_io", saved)
        p(cli, "load_certificate", "proofs.cert_io", loaded)
        p(cli, "explore", "semantics.explore", explored)
        p(cli, "run", "semantics.run", ran)
        p(cli, "annotate", "ghost.annotate", annotated)
        p(cli, "serialize_annotated_trace", "ghost.serialize")
        p(cli, "build_pog", "pog.build_pog", built)
        p(cli, "max_loopfree_sc_prefix", "pog.prefix")
        p(cli, "to_dot", "pog.to_dot")
        p(cli, "soundness_campaign", "harness.campaign", campaigned)
        p(harness, "gen_program", "harness.gen")
        p(harness, "enumerate_programs", "harness.gen", materialize=True)
        p(harness, "verify", "proofs.verify", verified)
        p(harness, "explore", "semantics.explore", explored_by_campaign)
        p(harness, "run", "semantics.run", ran)
        p(harness, "annotate", "ghost.annotate", annotated)
        p(harness, "build_pog", "pog.build_pog", built)
        p(harness, "random_sc_loopfree_prefix", "pog.prefix")
        p(harness, "check_leaf_balance", "pog.leaf_balance")
        p(ghost, "check_proof", "proofs.check_proof")
        p(ghost, "normalize_assertion", "assertions.normalize")
        p(proofs, "parse", "lang.parse", parsed)
        p(proofs, "normalize_assertion", "assertions.normalize")
        p(proofs, "view_shift", "assertions.view_shift")
        p(proofs, "view_shift_status", "assertions.view_shift")
        p(assertions, "normalize", "assertions.normalize")
        p(semantics.RoundRobinScheduler, "pick", "semantics.pick")
        p(semantics.RandomFairScheduler, "pick", "semantics.pick")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, dict[str, float]]]:
        """Per span name: self seconds, inclusive seconds and calls; and self
        seconds per span name within the requests of each root span name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        for i in range(n):  # a parent span is always opened, so stored, before its children
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                root[i] = root[p]
            else:
                root[i] = i
        k = len(self.names)
        selfs, incl, calls = [0.0] * k, [0.0] * k, [0] * k
        by_root = [[0.0] * k for _ in range(k)]
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            own = dur - child[i]
            selfs[nid] += own
            incl[nid] += dur
            calls[nid] += 1
            by_root[names[root[i]]][nid] += own
        breakdown = {
            self.names[r]: {self.names[j]: t for j, t in enumerate(row) if t}
            for r, row in enumerate(by_root)
            if any(row)
        }
        return (
            dict(zip(self.names, selfs)),
            dict(zip(self.names, incl)),
            dict(zip(self.names, calls)),
            breakdown,
        )

    def metrics(self, passes: int, trace_overhead: float) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Every metric of METRICS, per pass, and the self milliseconds per
        pass of each span name within the requests of each kind."""
        selfs, incl, calls, breakdown = self.aggregate()
        c = self.counts

        def ms(name: str) -> float:
            return selfs.get(name, 0.0) * 1000 / passes

        def per_pass(total: int) -> float:
            return total / passes

        root_self = sum(v for k, v in selfs.items() if k.startswith("request."))
        root_incl = sum(v for k, v in incl.items() if k.startswith("request."))
        out = {
            "lang.parse.calls": per_pass(calls.get("lang.parse", 0)),
            "lang.parse.self_ms": ms("lang.parse"),
            "lang.atoms": per_pass(c.atoms),
            "proofs.verify.calls": per_pass(calls.get("proofs.verify", 0)),
            "proofs.verify.self_ms": ms("proofs.verify"),
            "proofs.cert_nodes": per_pass(c.cert_nodes),
            "proofs.check_proof.calls": per_pass(calls.get("proofs.check_proof", 0)),
            "proofs.check_proof.self_ms": ms("proofs.check_proof"),
            "proofs.cert_io.self_ms": ms("proofs.cert_io"),
            "proofs.cert_bytes": per_pass(c.cert_bytes),
            "assertions.normalize.calls": per_pass(calls.get("assertions.normalize", 0)),
            "assertions.normalize.self_ms": ms("assertions.normalize"),
            "assertions.view_shift.calls": per_pass(calls.get("assertions.view_shift", 0)),
            "assertions.view_shift.self_ms": ms("assertions.view_shift"),
            "semantics.explore.calls": per_pass(calls.get("semantics.explore", 0)),
            "semantics.explore.self_ms": ms("semantics.explore"),
            "semantics.explore.states": per_pass(c.states),
            "semantics.explore.max_threads": float(c.max_threads),
            "semantics.run.self_ms": ms("semantics.run"),
            "semantics.run.steps": per_pass(c.run_steps),
            # every workload issues runs that end before their fuel runs out; the
            # base is 0 only if none did, and then those runs' answers fail too
            "semantics.fuel_use": c.ended_steps / c.ended_fuel if c.ended_fuel else 0.0,
            "semantics.pick.calls": per_pass(calls.get("semantics.pick", 0)),
            "semantics.pick.self_ms": ms("semantics.pick"),
            "ghost.annotate.calls": per_pass(calls.get("ghost.annotate", 0)),
            "ghost.annotate.self_ms": ms("ghost.annotate"),
            "ghost.annotate.incl_ms": incl.get("ghost.annotate", 0.0) * 1000 / passes,
            "ghost.steps_inserted": per_pass(c.steps_inserted),
            "ghost.serialize.self_ms": ms("ghost.serialize"),
            "pog.build_pog.self_ms": ms("pog.build_pog"),
            "pog.nodes": per_pass(c.pog_nodes),
            "pog.edges": per_pass(c.pog_edges),
            "pog.prefix.self_ms": ms("pog.prefix"),
            "pog.leaf_balance.calls": per_pass(calls.get("pog.leaf_balance", 0)),
            "pog.leaf_balance.self_ms": ms("pog.leaf_balance"),
            "pog.to_dot.self_ms": ms("pog.to_dot"),
            "harness.campaign.self_ms": ms("harness.campaign"),
            "harness.gen.self_ms": ms("harness.gen"),
            "harness.programs": per_pass(c.programs),
            "harness.verified": per_pass(c.verified),
            "harness.rejected": per_pass(c.rejected),
            "harness.non_diverging": per_pass(c.non_diverging),
            "harness.multi_thread": per_pass(c.multi_thread),
            "cli.self_ms": root_self * 1000 / passes,
            "cli.request_ms": root_incl * 1000 / passes,
            "bench.trace_overhead": trace_overhead,
        }
        assert list(out) == [name for name, _ in METRICS]
        per_kind = {  # a request's own self time is the cli's
            kind.removeprefix("request."): {
                ("cli" if name == kind else name): t * 1000 / passes for name, t in spans.items()
            }
            for kind, spans in breakdown.items()
        }
        return out, per_kind

    def ratios(self) -> dict[str, float | None]:
        """The campaign's ratios, or None where no campaign ran: a ratio of 0
        would read as its worst value, not as "does not apply"."""
        c = self.counts
        return {
            "harness.completeness": c.verified / c.non_diverging if c.non_diverging else None,
            "harness.multi_thread_share": c.multi_thread / c.programs if c.programs else None,
        }

    def write(self, path: str) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.req, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a file written by `Tracer.write`: (span names, arrays by field)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field_name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field_name] = arr
    return header["names"], arrays

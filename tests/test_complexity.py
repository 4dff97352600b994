"""Complexity contracts: how the cost of each layer grows with its input.

A layer's cost is the number of Python opcodes it executes, counted with
`sys.settrace` and `f_trace_opcodes`.  Unlike a wall time, the count repeats
exactly from run to run, so a contract can assert it.  The totals differ
between Python versions, so the contracts assert growth exponents: the count
at 2n over the count at n, as a power of 2, must stay within the layer's class.
Work done inside builtins is not counted.

Each run starts from one state of the intern table of `lang`: the garbage is
collected and the table swept, so both runs meet the same live commands.  A
dead entry costs what a missing one does; the one cost that depends on the
table's history is a sweep, which runs once the table has doubled and costs
the same few dozen opcodes at any table size (its loops run in C).
"""

import gc
import json
import math
import sys

import pytest

import busycheck.lang as lang
from busycheck import ghost, semantics
from busycheck.ghost import _thread_walk, annotate, serialize_annotated_trace
from busycheck.lang import parse
from busycheck.pog import build_pog, check_leaf_balance, max_loopfree_sc_prefix, random_sc_loopfree_prefix, to_dot
from busycheck.proofs import certificate_text, check_proof, from_json_dict, verify
from busycheck.semantics import (
    FuelExhausted,
    RandomFairScheduler,
    RoundRobinScheduler,
    fuel_bound,
    initial_pool,
    run,
    serialize_trace,
    thread_alone_schedule,
)
from reference import NeverStops

N = 48  # and 2N: large enough that fixed costs do not hide the growth
LINEAR = 1.1  # the largest exponent a linear layer may show
QUADRATIC = 2.1  # and a quadratic one
CUBIC = 3.1  # and a cubic one


def waiters(n):
    return "fork { loop skip }; " * n + "exit"


def flats(n):
    return "fork { exit }; " * n + "loop skip"


def fork_nest(n):
    return "fork { " * n + "exit" + " }" * n + "; loop skip"


def dead_tail(n):
    return "exit; " + "fork { loop skip }; " * n + "loop skip"


def opcodes(layer, arg) -> int:
    """The opcodes `layer(arg)` executes, from a swept table, with the collector off."""
    count = 0

    def trace(frame, event, _):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    gc.collect()
    lang._sweep()
    gc.disable()
    sys.settrace(trace)
    try:
        layer(arg)
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def _inputs(layer: str, text: str):
    """What `layer` reads for the program `text`; `from_json_dict` reads a
    certificate whose program is gone, as `check-proof` does."""
    if layer == "parse":
        return parse, text
    if layer == "from_json_dict":
        return from_json_dict, json.loads(certificate_text(verify(parse(text))))
    program = parse(text)
    return {
        "verify": (verify, program),
        "certificate_text": (certificate_text, verify(program)),
        "check_proof": (check_proof, verify(program)),
        "thread_alone_schedule": (thread_alone_schedule, program),
        "fuel_bound": (fuel_bound, program),
    }[layer]


def _exponent(calls):
    """The growth exponent from the opcodes of two calls (fn, arg), at n and
    at 2n, and those counts; each count must repeat."""
    counts = []
    for fn, arg in calls:
        opcodes(fn, arg)  # Python 3.12.1 counts no opcode in the first traced call of a process
        first = opcodes(fn, arg)
        assert opcodes(fn, arg) == first, "the count of a run does not repeat"
        counts.append(first)
    return math.log2(counts[1] / counts[0]), counts


# the dead tail's code after its `exit` is proved from `false`, through the
# states (0, n+1) down to (0, 1), so its certificate names n+1 credit chains
@pytest.mark.parametrize(
    "family", [waiters, flats, fork_nest, dead_tail], ids=["waiters", "flats", "fork-nest", "dead-tail"]
)
@pytest.mark.parametrize(
    "layer",
    ["parse", "verify", "certificate_text", "from_json_dict", "check_proof", "thread_alone_schedule", "fuel_bound"],
)
def test_layer_cost_is_linear_and_repeats_exactly(layer, family):
    exponent, counts = _exponent([_inputs(layer, family(n)) for n in (N, 2 * N)])
    assert exponent <= LINEAR, f"{layer} grows as n^{exponent:.2f} ({counts})"


def test_a_walk_skips_dead_code():
    # the main thread of a dead tail stops at its first atom, so its walk
    # yields one leaf and returns, in the same opcodes at any n
    def walk(proof):
        return list(_thread_walk(proof))

    exponent, counts = _exponent([(walk, verify(parse(dead_tail(n)))) for n in (N, 2 * N)])
    assert abs(exponent) <= 0.05, f"_thread_walk grows as n^{exponent:.2f} ({counts})"


@pytest.mark.parametrize("scheduler", [RoundRobinScheduler, lambda: RandomFairScheduler(3, 16)], ids=["rr", "random"])
def test_a_run_of_waiters_is_quadratic(scheduler):
    # the main thread exits after about n^2 / 2 steps under either scheduler,
    # each step a constant number of opcodes
    def run_waiters(text):
        program = parse(text)
        return run(initial_pool(program), scheduler(), fuel_bound(program, 16))

    exponent, counts = _exponent([(run_waiters, waiters(n)) for n in (N, 2 * N)])
    assert exponent <= QUADRATIC, f"run grows as n^{exponent:.2f} ({counts})"


def _count_calls(monkeypatch, module, name):
    """A list that grows by one at each call of `module.name`, from now on."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n, steps", [(N, 1225), (2 * N, 4753)])
def test_settled_threads_apply_the_step_rule_once(monkeypatch, n, steps):
    # a round-robin run of waiters loops each child about n / 2 times, but
    # the step rule runs once per progress step (n forks, the exit) and once
    # per child, at its first loop step, in `run` and in `annotate` alike
    program = parse(waiters(n))
    proof = verify(program)
    stepped = _count_calls(monkeypatch, semantics, "step_pool")
    really = _count_calls(monkeypatch, ghost, "real_step")
    _, trace = run(initial_pool(program), RoundRobinScheduler(), fuel_bound(program))
    annotate(program, proof, trace)
    assert (len(trace), len(stepped), len(really)) == (steps, 2 * n + 1, 2 * n + 1)
    # the random scheduler's main thread may exit before every child has looped
    stepped.clear()
    really.clear()
    _, trace = run(initial_pool(program), RandomFairScheduler(3, 16), fuel_bound(program, 16))
    annotate(program, proof, trace)
    assert len(stepped) <= 2 * n + 1 and len(really) <= 2 * n + 1 < len(trace)


def test_a_twin_run_applies_the_step_rule_once_per_thread_and_atom(monkeypatch):
    # the Rejected k=3, m=4 twin walks its whole fuel bound, 799 steps, to a
    # pool of 16 waiting threads; its 15 forks and 16 first loops take the rule
    twin = parse("; ".join(["fork { " + "fork { loop skip }; " * 4 + "loop skip }"] * 3) + "; loop skip")
    stepped = _count_calls(monkeypatch, semantics, "step_pool")
    outcome, trace = run(initial_pool(twin), RoundRobinScheduler(), fuel_bound(twin))
    assert isinstance(outcome, FuelExhausted) and len(outcome.last_pool.ids) == 16
    assert (len(trace), len(stepped)) == (799, 31)


@pytest.mark.parametrize(
    "family, size", [(waiters, lambda n: 3 * n + 3), (flats, lambda n: 2 * n + 7)], ids=["waiters", "flats"]
)
def test_certificates_write_each_shared_premise_once(family, size):
    # as trees they took 5n + 1 nodes (waiters) and 4n + 3 (flats)
    for n in (3, 4, N, 2 * N, 200):
        assert len(json.loads(certificate_text(verify(parse(family(n)))))["nodes"]) == size(n), n


def _run_layers(text: str) -> dict:
    """Each layer after `run` with what it reads for the round-robin run of
    `text`, as `trace` and `graph --prefix` call them; `check_leaf_balance`
    and `to_dot` take the maximal prefix, which `random_sc_loopfree_prefix`
    also grows under an rng that never stops."""
    program = parse(text)
    proof = verify(program)
    _, trace = run(initial_pool(program), RoundRobinScheduler(), fuel_bound(program))
    atrace = annotate(program, proof, trace)
    graph = build_pog(atrace)
    prefix = max_loopfree_sc_prefix(graph)
    return {
        "annotate": (lambda args: annotate(*args), (program, proof, trace)),
        "build_pog": (build_pog, atrace),
        "to_dot": (lambda args: to_dot(*args), (graph, prefix)),
        "max_loopfree_sc_prefix": (max_loopfree_sc_prefix, graph),
        "random_sc_loopfree_prefix": (lambda g: random_sc_loopfree_prefix(g, NeverStops(0)), graph),
        "check_leaf_balance": (lambda args: check_leaf_balance(*args), (graph, prefix)),
    }


@pytest.mark.parametrize("printer", ["serialize_trace", "serialize_annotated_trace"])
def test_the_trace_text_of_waiters_is_cubic(printer):
    # a pool of up to n threads printed at each of about n^2 / 2 steps; the
    # text is built inside `str.join`, whose work opcodes do not see, so the
    # contract counts its characters
    sizes = []
    for n in (N, 2 * N):
        program = parse(waiters(n))
        _, trace = run(initial_pool(program), RoundRobinScheduler(), fuel_bound(program))
        if printer == "serialize_trace":
            sizes.append(len(serialize_trace(trace)))
        else:
            sizes.append(len(serialize_annotated_trace(annotate(program, verify(program), trace))))
    exponent = math.log2(sizes[1] / sizes[0])
    assert exponent <= CUBIC, f"{printer} text grows as n^{exponent:.2f} ({sizes})"


# Every thread stops at `exit` or `loop skip`, so a run grows with n only
# where waiters pile up (waiters, about n^2 / 2 steps) or threads end one
# inside another (fork nests, about 2n).  A round-robin run of flats takes
# two steps, as the first child exits, so the flats cases below see no growth:
# the contracts of the layers over a run rest on waiters and fork nests.
@pytest.mark.parametrize(
    "family, bound",
    [(waiters, QUADRATIC), (flats, LINEAR), (fork_nest, LINEAR)],
    ids=["waiters", "flats", "fork-nest"],
)
@pytest.mark.parametrize("layer", ["annotate", "build_pog", "to_dot"])
def test_a_layer_over_a_run_grows_with_the_run(layer, family, bound):
    exponent, counts = _exponent([_run_layers(family(n))[layer] for n in (N, 2 * N)])
    assert exponent <= bound, f"{layer} grows as n^{exponent:.2f} ({counts})"


@pytest.mark.parametrize("family", [waiters, flats, fork_nest], ids=["waiters", "flats", "fork-nest"])
@pytest.mark.parametrize("layer", ["max_loopfree_sc_prefix", "random_sc_loopfree_prefix", "check_leaf_balance"])
def test_a_maximal_prefix_is_linear(layer, family):
    # a loop-free prefix stops at each thread's first loop step, so it holds
    # O(n) nodes even where the run has about n^2 / 2; the random walk draws
    # each node it expands from the ones left to expand, not from a rescan
    # of the prefix
    exponent, counts = _exponent([_run_layers(family(n))[layer] for n in (N, 2 * N)])
    assert exponent <= LINEAR, f"{layer} grows as n^{exponent:.2f} ({counts})"

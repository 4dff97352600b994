"""Command-line interface: parse, run, verify, check-proof, trace, graph, fuzz.

Exit codes: 0 on success / Verified / Ok, 1 on Rejected / RuleViolation /
divergence witness, 2 on usage or parse errors, unreadable files, malformed
certificates and input nested past the recursion limit.  `check-proof` also
checks the claim: the root triple must be {obs(0)} c {obs(0)}.  A command's parser
is built on its first request and reused by later requests in the same process;
help and error text are unchanged, the top-level ones coming from `build_parser()`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .assertions import OBS_ZERO
from .ghost import annotate, serialize_annotated_trace
from .harness import CampaignViolation, GenConfig, soundness_campaign
from .lang import Command, ParseError, parse, pretty
from .pog import build_pog, max_loopfree_sc_prefix, to_dot
from .proofs import CertificateError, check_proof, load_certificate, save_certificate, verify
from .semantics import (
    AbruptExit,
    FuelExhausted,
    RandomFairScheduler,
    RoundRobinScheduler,
    Terminated,
    fuel_bound,
    initial_pool,
    run,
    serialize_trace,
)

# Not called here: picking a fuel budget needs no state space.  The name stays
# importable from this module because perfbench/tracing.py wraps it here.
from .semantics import explore  # noqa: F401


def _program_args(sub: argparse.ArgumentParser, scheduler: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("path", nargs="?", help="program file")
    group.add_argument("-e", "--expr", help="inline program text")
    if not scheduler:
        return
    sub.add_argument("--sched", default="round-robin", help="round-robin | rotated:K | random (default: round-robin)")
    sub.add_argument("--seed", type=int, default=0, help="seed for the random scheduler")
    sub.add_argument("--window", type=int, default=16, help="fairness window for the random scheduler")
    sub.add_argument("--fuel", type=int, help="step budget (default: the size bound (atoms+T)*(W+T+1) with T = forks+1 "
                     "and W = --window for random, 0 otherwise)")


def _load_program(args) -> Command:
    if args.expr is not None:
        text = args.expr
    else:
        with open(args.path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SystemExit2(f"{args.path}: not UTF-8: {exc}") from exc
    return parse(text)


def _make_scheduler(args):
    if args.window < 1:
        raise SystemExit2(f"--window must be >= 1, got {args.window}")
    name = args.sched
    if name == "round-robin":
        return RoundRobinScheduler()
    if name.startswith("rotated:"):
        try:
            offset = int(name.split(":", 1)[1])
        except ValueError:
            raise SystemExit2(f"bad rotation offset in {name!r}") from None
        return RoundRobinScheduler(offset)
    if name == "random":
        return RandomFairScheduler(args.seed, args.window)
    raise SystemExit2(f"unknown scheduler {name!r}")


class SystemExit2(Exception):
    pass


def _fuel_for(args, program: Command) -> int:
    if args.fuel is not None:
        if args.fuel < 0:
            raise SystemExit2(f"--fuel must be >= 0, got {args.fuel}")
        return args.fuel
    return fuel_bound(program, args.window if args.sched == "random" else 0)


def _cmd_parse(args) -> int:
    print(pretty(_load_program(args)))
    return 0


def _cmd_run(args) -> int:
    program = _load_program(args)
    outcome, trace = run(initial_pool(program), _make_scheduler(args), _fuel_for(args, program))
    if isinstance(outcome, Terminated):
        text = f"Terminated steps={outcome.steps}"
    elif isinstance(outcome, AbruptExit):
        text = f"AbruptExit steps={outcome.steps}"
    else:
        text = f"FuelExhausted live={len(outcome.last_pool.threads)}"
    if args.json:
        payload = {"outcome": text.split()[0], "steps": len(trace)}
        if args.show_trace:
            payload["trace"] = serialize_trace(trace).splitlines()
        print(json.dumps(payload, indent=2))
    else:
        if args.show_trace and trace:
            print(serialize_trace(trace))
        print(text)
    return 0


def _cmd_verify(args) -> int:
    program = _load_program(args)
    proof = verify(program)
    if proof is None:
        print(json.dumps({"verdict": "Rejected"}) if args.json else "Rejected")
        return 1
    if args.emit_cert:
        save_certificate(proof, args.emit_cert)
    if args.json:
        payload = {"verdict": "Verified"}
        if args.emit_cert:
            payload["certificate"] = args.emit_cert
        print(json.dumps(payload))
    else:
        print("Verified")
    return 0


def _cmd_check_proof(args) -> int:
    tree = load_certificate(args.cert)
    violation = check_proof(tree)
    if violation is None and not tree.conclusion.pre == tree.conclusion.post == OBS_ZERO:
        violation = "root: certificate does not prove {obs(0)} c {obs(0)}"
    if violation is None:
        print("Ok")
        return 0
    print(f"RuleViolation {violation}")
    return 1


def _verified_trace(args):
    program = _load_program(args)
    scheduler, fuel = _make_scheduler(args), _fuel_for(args, program)
    proof = verify(program)
    if proof is None:
        print("Rejected", file=sys.stderr)
        return None
    outcome, trace = run(initial_pool(program), scheduler, fuel)
    if isinstance(outcome, FuelExhausted):
        print("run did not settle within fuel; raise --fuel", file=sys.stderr)
        return None
    return annotate(program, proof, trace)


def _cmd_trace(args) -> int:
    atrace = _verified_trace(args)
    if atrace is None:
        return 1
    print(serialize_annotated_trace(atrace))
    return 0


def _cmd_graph(args) -> int:
    atrace = _verified_trace(args)
    if atrace is None:
        return 1
    graph = build_pog(atrace)
    prefix = max_loopfree_sc_prefix(graph) if args.prefix else None
    dot = to_dot(graph, prefix)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return 0


def _cmd_fuzz(args) -> int:
    try:
        cfg = GenConfig(
            max_atoms=args.max_atoms, fork_prob=args.fork_weight, loop_prob=args.loop_weight,
            exit_prob=args.exit_weight, seed=args.seed, count=args.count,
        )
        if args.exhaustive_max < 0:
            raise ValueError(f"--exhaustive-max must be >= 0, got {args.exhaustive_max}")
        if args.count == args.exhaustive_max == 0:
            raise ValueError("--count and --exhaustive-max are both 0: nothing to check")
    except ValueError as exc:
        raise SystemExit2(f"fuzz: {exc}") from exc
    try:
        report = soundness_campaign(cfg, exhaustive_max_atoms=args.exhaustive_max)
    except CampaignViolation as violation:
        print(f"violation: {violation}", file=sys.stderr)
        return 1
    print(report.to_json() if args.json else report.summary())
    return 0


def _run_args(p: argparse.ArgumentParser) -> None:
    _program_args(p)
    p.add_argument("--show-trace", action="store_true", help="print the step trace")
    p.add_argument("--json", action="store_true")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _program_args(p, scheduler=False)
    p.add_argument("--emit-cert", metavar="FILE", help="write the certificate as JSON")
    p.add_argument("--json", action="store_true")


def _graph_args(p: argparse.ArgumentParser) -> None:
    _program_args(p)
    p.add_argument("--prefix", action="store_true", help="shade the max loop-free sibling-closed prefix")
    p.add_argument("-o", "--out", metavar="FILE", help="write DOT here instead of stdout")


def _fuzz_args(p: argparse.ArgumentParser) -> None:
    for flag, default in (("--count", 500), ("--max-atoms", 12), ("--seed", 42)):
        p.add_argument(flag, type=int, default=default)
    p.add_argument("--exhaustive-max", type=int, default=6, help="sweep all programs up to this many atoms (0 disables)")
    for flag in ("--fork-weight", "--loop-weight", "--exit-weight"):
        p.add_argument(flag, type=float, default=1.0)
    p.add_argument("--json", action="store_true")


# name -> (help, handler, setup adding the command's arguments), in `busycheck -h` order
COMMANDS = {
    "parse": ("echo the program", _cmd_parse, lambda p: _program_args(p, scheduler=False)),
    "run": ("run the plain semantics", _cmd_run, _run_args),
    "verify": ("build a termination proof", _cmd_verify, _verify_args),
    "check-proof": (
        "check a proof certificate", _cmd_check_proof, lambda p: p.add_argument("cert", help="certificate file (JSON)")
    ),
    "trace": ("annotated trace of a verified program", _cmd_trace, _program_args),
    "graph": ("program order graph as DOT", _cmd_graph, _graph_args),
    "fuzz": ("random + exhaustive soundness campaign", _cmd_fuzz, _fuzz_args),
}


def build_parser() -> argparse.ArgumentParser:
    description = "termination checker for busy-waiting programs with abrupt exit"
    parser = argparse.ArgumentParser(prog="busycheck", description=description)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        add_arguments(sub)
        sub.set_defaults(func=func)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    # One per command, kept for the process: parsing makes a fresh namespace per call, argparse looks up
    # sys.stdout and sys.stderr when it prints, and reads COLUMNS when it formats help.
    _, func, add_arguments = COMMANDS[name]
    sub = argparse.ArgumentParser(prog="busycheck " + name)
    add_arguments(sub)
    sub.set_defaults(func=func, command=name)
    return sub


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # The full parser hands what follows a command's name to its parser in this same call, so
    # help, errors and namespace agree.  Everything else, leftover strings too, takes the full parser.
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (CertificateError, SystemExit2, OSError) as err:
        print(str(err), file=sys.stderr)
        return 2
    except RecursionError:
        limit = f"past the recursion limit of {sys.getrecursionlimit()}"
        print(f"{args.command}: input too deeply nested or too long ({limit})", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import busycheck.cli
import busycheck.semantics
from busycheck.cli import main
from busycheck.harness import enumerate_programs
from busycheck.lang import parse, pretty
from busycheck.proofs import check_proof, load_certificate
from busycheck.semantics import fuel_bound


def _km(k, m, end="exit"):
    return "; ".join(["fork { " + "fork { loop skip }; " * m + end + " }"] * k) + "; loop skip"


# k x m interleaving programs with k = m = 2: the twin ends every thread in
# `loop skip`, leaving main, 2 forkers and 4 grandchildren busy-waiting
KM22 = _km(2, 2)
KM22_TWIN = _km(2, 2, "loop skip")


def test_parse_echoes_normalized_program(capsys):
    assert main(["parse", "-e", "fork{exit};loop    skip"]) == 0
    assert capsys.readouterr().out.strip() == "fork { exit }; loop skip"


def test_parse_reads_files(tmp_path, capsys):
    path = tmp_path / "prog.bw"
    path.write_text("exit ; fork { loop skip }  # dead code\n")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "exit; fork { loop skip }"


def test_parse_error_exits_2(capsys):
    assert main(["parse", "-e", "loop slip"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # neither inline program nor path
    assert err.value.code == 2


def test_run_reports_abrupt_exit(capsys):
    code = main(["run", "-e", "fork { exit }; loop skip", "--sched", "round-robin", "--fuel", "100"])
    assert code == 0
    assert capsys.readouterr().out.startswith("AbruptExit")


def test_run_fuel_exhausted_on_waiter(capsys):
    assert main(["run", "-e", "loop skip", "--fuel", "25"]) == 0
    assert capsys.readouterr().out.startswith("FuelExhausted")


def test_run_json_on_waiter_walks_the_whole_fuel_bound(capsys):
    assert main(["run", "-e", "loop skip", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"outcome": "FuelExhausted", "steps": fuel_bound(parse("loop skip"))}


def test_run_twin_ends_at_its_all_waiting_pool(capsys):
    for sched in ("round-robin", "rotated:3", "random"):
        assert main(["run", "-e", KM22_TWIN, "--sched", sched, "--seed", "5"]) == 0
        assert capsys.readouterr().out == "FuelExhausted live=7\n"


def test_default_fuel_never_explores(monkeypatch, capsys):
    def explore(*args):
        raise AssertionError("explore called")

    monkeypatch.setattr(busycheck.semantics, "explore", explore)
    monkeypatch.setattr(busycheck.cli, "explore", explore)
    assert main(["run", "-e", KM22]) == 0
    assert capsys.readouterr().out.startswith("AbruptExit")
    assert main(["trace", "-e", KM22, "--sched", "random"]) == 0
    assert "RA-Exit" in capsys.readouterr().out
    assert main(["graph", "-e", KM22, "--prefix"]) == 0
    assert capsys.readouterr().out.startswith("digraph pog")


def test_bad_window_or_fuel_exits_2_with_one_line(capsys):
    for argv in (
        ["run", "-e", "exit", "--sched", "random", "--window", "0"],
        ["run", "-e", "exit", "--window", "-3"],
        ["run", "-e", "exit", "--fuel", "-5"],
        ["trace", "-e", "loop skip", "--fuel", "-1"],
        ["graph", "-e", "fork { exit }; loop skip", "--window", "0"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "must be >=" in err, argv


def test_zero_fuel_is_legal(capsys):
    assert main(["run", "-e", "exit", "--fuel", "0"]) == 0
    assert capsys.readouterr().out == "FuelExhausted live=1\n"


def test_run_trace_output_is_stable(capsys):
    args = ["run", "-e", "fork { exit }; loop skip", "--show-trace", "--fuel", "10"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "0\t0\tST-Fork\t{0:fork { exit };loop skip;done}"


def test_readme_golden_trace_is_the_trace_output(capsys):
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index('$ busycheck trace -e "fork { exit }; loop skip"') + 1
    golden = lines[start : lines.index("```", start)]
    assert main(["trace", "-e", "fork { exit }; loop skip"]) == 0
    assert capsys.readouterr().out.splitlines() == golden
    assert len(golden) == 3 and all(line.count("\t") == 3 for line in golden)


def test_run_json(capsys):
    assert main(["run", "-e", "exit", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "AbruptExit"
    assert payload["steps"] == 1


def test_verify_accepts_and_emits_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(["verify", "-e", "fork { exit }; loop skip", "--emit-cert", str(cert)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Verified"
    payload = json.loads(cert.read_text())
    assert payload["nodes"][payload["root"]]["rule"] == "ViewShift"

    assert main(["check-proof", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "Ok"


def test_verify_rejects_waiter(capsys):
    assert main(["verify", "-e", "loop skip"]) == 1
    assert capsys.readouterr().out.strip() == "Rejected"


def test_check_proof_flags_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["verify", "-e", "fork { exit }; loop skip", "--emit-cert", str(cert)])
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    nodes, asserts = payload["nodes"], payload["asserts"]
    seq = nodes[nodes[payload["root"]]["premises"][0]]
    loop = nodes[seq["premises"][1]]
    loop["pre"] = asserts.index({"star": [asserts.index({"obs": 1}), asserts.index("credit")]})
    cert.write_text(json.dumps(payload))
    assert main(["check-proof", str(cert)]) == 1
    assert "RuleViolation" in capsys.readouterr().out


def _v2(cmds, asserts, nodes, root, format=2):
    return json.dumps({"format": format, "cmds": cmds, "asserts": asserts, "nodes": nodes, "root": root})


# {obs(0)} exit {obs(0)}: an Exit leaf under a ViewShift
EXIT_LEAF = {"rule": "Exit", "pre": 0, "cmd": 0, "post": 1, "premises": []}
EXIT_SHIFT = {"rule": "ViewShift", "pre": 0, "cmd": 0, "post": 0, "premises": [0], "innerPre": 0, "innerPost": 1}
EXIT_TABLES = (["exit"], [{"obs": 0}, "false"])


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        # certificates in the old nested format
        '{"rule": "Exit", "cmd": "exit", "post": "false", "premises": []}',
        '{"rule": "Exit", "pre": "obs(0)", "cmd": "exit;;", "post": "false", "premises": []}',
        pytest.param(_v2(*EXIT_TABLES, [EXIT_LEAF, EXIT_SHIFT], 1, format=3), id="format-3"),
        pytest.param(_v2(*EXIT_TABLES, [{"rule": "Exit", "cmd": 0, "post": 1, "premises": []}], 0), id="no-pre"),
        pytest.param(_v2(["exit;;"], EXIT_TABLES[1], [EXIT_LEAF], 0), id="unknown-cmd"),
        pytest.param(_v2(*EXIT_TABLES, [{**EXIT_LEAF, "post": 2}], 0), id="bad-index"),
        pytest.param(_v2(*EXIT_TABLES, [EXIT_LEAF, EXIT_SHIFT], 2), id="bad-root"),
        pytest.param(_v2(*EXIT_TABLES, [{**EXIT_SHIFT, "premises": [1]}, EXIT_LEAF], 0), id="forward-index"),
        pytest.param(
            _v2(["exit", {"seq": [0, 0]}, {"seq": [1, 0]}], EXIT_TABLES[1], [EXIT_LEAF], 0), id="seq-in-first"
        ),
        pytest.param(_v2(*EXIT_TABLES, [EXIT_LEAF, EXIT_SHIFT, EXIT_SHIFT], 2), id="premise-twice"),
        # entry k + 1 is entry k twice: a 1 KB table naming an assertion of 2^61 nodes
        pytest.param(
            _v2(["exit"], [{"obs": 0}] + [{"star": [k, k]} for k in range(60)], [{**EXIT_LEAF, "pre": 60}], 0),
            id="doubling-star",
        ),
    ],
)
def test_malformed_certificate_exits_2_with_one_line(tmp_path, capsys, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    assert main(["check-proof", str(cert)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_old_format_certificate_is_unsupported(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text('{"rule": "Exit", "pre": "obs(0)", "cmd": "exit", "post": "false", "premises": []}')
    assert main(["check-proof", str(cert)]) == 2
    assert capsys.readouterr().err.startswith("unsupported certificate format")


def test_check_proof_checks_the_claim_not_only_the_rules(tmp_path, capsys):
    # every node instantiates its rule, but the root proves {false} loop skip
    # {obs(0)}: a vacuous triple, not {obs(0)} c {obs(0)}
    cert = tmp_path / "vacuous.json"
    loop = {"rule": "Loop", "pre": 3, "cmd": 0, "post": 0, "premises": []}
    shift = {"rule": "ViewShift", "pre": 0, "cmd": 0, "post": 1, "premises": [0], "innerPre": 3, "innerPost": 0}
    cert.write_text(_v2(["loop skip"], ["false", {"obs": 0}, "credit", {"star": [1, 2]}], [loop, shift], 1))
    assert check_proof(load_certificate(str(cert))) is None  # the library checks rules only
    assert main(["check-proof", str(cert)]) == 1
    unproved = "RuleViolation root: certificate does not prove {obs(0)} c {obs(0)}\n"
    assert capsys.readouterr().out == unproved
    # a hand-written root pre that `verify` would write otherwise answers as
    # its normal form does; `written` follows the two entries of EXIT_TABLES
    for written, code, out in [
        (["credit", {"star": [2, 0]}], 1, unproved),  # credit * obs(0)
        (["true", {"star": [2, 0]}], 0, "Ok\n"),  # true * obs(0)
        (["true", {"star": [2, 0]}, {"star": [3, 2]}, {"star": [4, 2]}], 0, "Ok\n"),  # ((true * obs(0)) * true) * true
        (["credit", {"star": [2, 0]}, {"star": [3, 2]}], 1, unproved),  # (credit * obs(0)) * credit
    ]:
        root = {**EXIT_SHIFT, "pre": 1 + len(written)}
        cert.write_text(_v2(["exit"], [*EXIT_TABLES[1], *written], [EXIT_LEAF, root], 1))
        assert check_proof(load_certificate(str(cert))) is None, written
        assert main(["check-proof", str(cert)]) == code, written
        assert capsys.readouterr().out == out, written


def test_check_proof_reads_a_50000_entry_star_chain_in_linear_time(tmp_path, capsys):
    # entry k + 1 is entry k * obs(0), and only the last is named: the reader
    # flattens that entry alone, in one walk, never each entry of the chain
    cert = tmp_path / "chain.json"
    chain = [{"obs": 0}] + [{"star": [k, 0]} for k in range(50_000)] + ["false"]
    cert.write_text(_v2(["exit"], chain, [{**EXIT_LEAF, "pre": 50_000, "post": 50_001}], 0))
    assert main(["check-proof", str(cert)]) == 1
    assert capsys.readouterr() == ("RuleViolation root: Exit precondition must be obs(n)\n", "")


def test_check_proof_compares_deep_commands_without_recursion(tmp_path, capsys):
    # a Seq premise's command moved to the next shorter suffix differs from
    # the suffix it should be only 2000 sequences down
    cert = tmp_path / "cert.json"
    assert main(["verify", "-e", _long(2000), "--emit-cert", str(cert)]) == 0
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    cmds, nodes = payload["cmds"], payload["nodes"]
    top = max((n for n in nodes if n["rule"] == "Seq"), key=lambda n: n["cmd"])
    rest = nodes[top["premises"][1]]
    rest["cmd"] = cmds[rest["cmd"]]["seq"][1]
    cert.write_text(json.dumps(payload))
    assert main(["check-proof", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("RuleViolation ") and err == ""


def test_recursion_past_the_limit_exits_2_with_one_line(monkeypatch, capsys):
    def verify(program):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(busycheck.cli, "verify", verify)
    assert main(["verify", "-e", "exit"]) == 2
    limit = sys.getrecursionlimit()
    assert capsys.readouterr() == (
        "",
        f"verify: input too deeply nested or too long (past the recursion limit of {limit})\n",
    )


def _nest(depth):
    return "fork { " * depth + "exit" + " }" * depth + "; loop skip"


def _long(length):
    return "fork { exit }; " * length + "loop skip"


def _waiters(length):
    return "fork { loop skip }; " * length + "exit"


@pytest.mark.parametrize("command", ["parse", "verify"])
@pytest.mark.parametrize(
    "program", [_nest(10_000), _long(10_000), _waiters(10_000)], ids=["depth", "length", "waiters"]
)
def test_deep_or_long_input_parses_verifies_and_checks(program, command, tmp_path, capsys):
    if command == "parse":
        assert main(["parse", "-e", program]) == 0
        assert capsys.readouterr().out == program + "\n"
        return
    cert = str(tmp_path / "cert.json")
    assert main(["verify", "-e", program, "--emit-cert", cert]) == 0
    assert capsys.readouterr().out == "Verified\n"
    assert main(["check-proof", cert]) == 0
    assert capsys.readouterr() == ("Ok\n", "")


def test_trace_of_a_10000_fork_program(capsys):
    # the main thread forks, the child exits: the run is 2 steps long
    assert main(["trace", "-e", _long(10_000)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[2] for line in lines] == ["RA-Fork", "RA-Exit"]


@pytest.mark.parametrize("program", [_nest(150), _long(300)], ids=["depth", "length"])
def test_programs_below_the_recursion_limit_still_work(program, capsys):
    for command in ("parse", "verify", "trace"):
        assert main([command, "-e", program]) == 0
        assert capsys.readouterr().err == ""


def test_check_proof_of_a_400_fork_certificate(tmp_path, capsys):
    # separately parsed premise commands once made `check_proof` compare
    # 400-deep sequences structurally and end in RecursionError
    cert = tmp_path / "cert.json"
    program = "fork { exit }; " * 400 + "loop skip"
    assert main(["verify", "-e", program, "--emit-cert", str(cert)]) == 0
    capsys.readouterr()
    assert main(["check-proof", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "Ok"


@pytest.mark.parametrize(
    "program",
    [
        "fork { exit }; " * 400 + "loop skip",
        "fork { " + "fork { exit }; " * 400 + "loop skip }; loop skip",
    ],
    ids=["flat", "in-a-fork-body"],
)
def test_trace_and_graph_of_a_400_fork_program(program, capsys):
    # `annotate` once compared 400-cell continuations structurally, the main
    # thread's with a freshly built copy and a forked thread's plain and
    # annotated copies, and ended in RecursionError
    assert main(["trace", "-e", program]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert last[2] == "RA-Exit"
    assert main(["graph", "--prefix", "-e", program]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph pog") and "RA-Exit" in out


def test_trace_subcommand_prints_annotated_run(capsys):
    assert main(["trace", "-e", "fork { exit }; loop skip"]) == 0
    out = capsys.readouterr().out
    assert "GS-Intro" in out and "RA-Fork" in out
    assert out.splitlines()[0].endswith("{0:(0|0) fork { exit };loop skip;done}")


def test_trace_rejects_unverifiable_program(capsys):
    assert main(["trace", "-e", "loop skip"]) == 1
    assert "Rejected" in capsys.readouterr().err


def test_graph_emits_dot(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    code = main(
        ["graph", "-e", "fork { exit }; loop skip", "--prefix", "-o", str(out_file)]
    )
    assert code == 0
    dot = out_file.read_text()
    assert dot.startswith("digraph pog")
    assert "cluster_prefix" in dot


def test_fuzz_small_campaign(capsys):
    code = main(
        ["fuzz", "--count", "30", "--max-atoms", "6", "--seed", "7", "--exhaustive-max", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 38
    assert 0 < payload["multiThread"] < 38
    assert payload["soundnessViolations"] == 0
    assert payload["leafBalanceFailures"] == 0


def test_trace_with_named_schedulers(capsys):
    for sched in ("rotated:1", "random"):
        code = main(
            ["trace", "-e", "fork { exit }; loop skip", "--sched", sched, "--seed", "3"]
        )
        assert code == 0
        assert "RA-Exit" in capsys.readouterr().out


def test_unknown_scheduler_exits_2(capsys):
    assert main(["run", "-e", "exit", "--sched", "lifo"]) == 2
    assert "unknown scheduler" in capsys.readouterr().err
    assert main(["run", "-e", "exit", "--sched", "rotated:x"]) == 2
    assert "bad rotation offset" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["parse", "no-such-file.bw"]) == 2


def _not_utf8(tmp_path):
    path = tmp_path / "prog.bw"
    path.write_bytes(b"exit; \xff loop skip\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda d: ["fuzz", "--max-atoms", "0"], id="fuzz-max-atoms-0"),
        pytest.param(lambda d: ["fuzz", "--fork-weight", "0"], id="fuzz-fork-weight-0"),
        pytest.param(lambda d: ["fuzz", "--exit-weight", "-1"], id="fuzz-exit-weight-negative"),
        pytest.param(lambda d: ["fuzz", "--loop-weight", "nan"], id="fuzz-loop-weight-nan"),
        pytest.param(
            lambda d: ["fuzz", "--fork-weight", "1e308", "--loop-weight", "1e308"], id="fuzz-weights-overflow"
        ),
        pytest.param(lambda d: ["fuzz", "--count", "-5"], id="fuzz-count-negative"),
        pytest.param(lambda d: ["fuzz", "--exhaustive-max", "-3"], id="fuzz-exhaustive-max-negative"),
        pytest.param(lambda d: ["fuzz", "--count", "0", "--exhaustive-max", "0"], id="fuzz-nothing-to-check"),
        pytest.param(lambda d: ["parse", str(d)], id="program-is-a-directory"),
        pytest.param(lambda d: ["check-proof", str(d)], id="certificate-is-a-directory"),
        pytest.param(lambda d: ["parse", _not_utf8(d)], id="program-not-utf8"),
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# every command's -h and --help, then valid input, top-level cases and errors
PARSER_CORPUS = [[name, flag] for name in busycheck.cli.COMMANDS for flag in ("-h", "--help")] + [
    ["parse", "-e", "exit"],
    ["run", "prog.bw", "--sched", "random", "--seed", "3", "--window", "4", "--fuel", "9", "--show-trace", "--json"],
    ["verify", "-e", "fork { exit }; loop skip", "--emit-cert", "c.json", "--json"],
    ["check-proof", "c.json"],
    ["trace", "--expr", "exit", "--sched", "rotated:2"],
    ["graph", "-e", "exit", "--prefix", "-o", "g.dot"],
    ["fuzz", "--count", "3", "--max-atoms", "4", "--seed", "1", "--exhaustive-max", "0", "--fork-weight", "2", "--json"],
    ["fuzz", "--count", "-5", "--exhaustive-max", "-3"],
    [],
    ["-h"],
    ["--help"],
    ["frobnicate", "-e", "exit"],
    ["--json"],
    ["verify", "prog.bw", "extra"],
    ["check-proof", "a.json", "b.json"],
    ["run", "-e", "exit", "--bogus"],
    ["parse", "-e", "exit", "-h", "extra"],
    ["graph", "-e", "exit", "--pre"],
    ["verify", "--e", "exit"],
    ["verify", "--expr=exit"],
    ["parse", "-eexit"],
    ["parse", "--", "prog.bw"],
    ["--", "parse", "-e", "exit"],
    ["verify", "prog.bw", "-e", "exit"],
    ["verify"],
    ["check-proof"],
    ["run", "--json"],
    ["run", "-e", "exit", "--seed", "x"],
    ["fuzz", "--count", "1.5"],
    ["fuzz", "--loop-weight", "heavy"],
]


def _parsed(parse, argv, capsys):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


# request sequences whose later requests meet parsers that earlier ones built: the corpus
# twice over, and requests after one with every run option set, and after an error
PARSER_SEQUENCES = {
    "corpus-twice": PARSER_CORPUS * 2,
    "run-after-run": [
        ["run", "-e", KM22, "--sched", "random", "--seed", "3", "--window", "4", "--json"],
        ["run", "-e", KM22],
        ["run", "-e", "exit", "--bogus"],
        ["run", "-e", KM22],
    ],
}


@pytest.mark.parametrize(
    "requests",
    [pytest.param([argv], id="_".join(argv).replace(" ", "") or "no-arguments") for argv in PARSER_CORPUS]
    + [pytest.param(requests, id=name) for name, requests in PARSER_SEQUENCES.items()],
)
def test_main_parses_as_the_full_parser(monkeypatch, capsys, requests):
    monkeypatch.setenv("COLUMNS", "80")
    full = [_parsed(lambda a: busycheck.cli.build_parser().parse_args(a), list(argv), capsys) for argv in requests]
    busycheck.cli._command_parser.cache_clear()
    assert [_parsed(busycheck.cli._parse_args, list(argv), capsys) for argv in requests] == full


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _answer(argv, capsys):
    code, out, err = _in_process(argv, capsys)
    return code, [line for line in out.splitlines() if "wallTime" not in line], err


def test_a_valid_request_never_builds_the_full_parser(tmp_path, monkeypatch, capsys):
    cert, dot = str(tmp_path / "c.json"), str(tmp_path / "g.dot")
    requests = [
        ["parse", "-e", "fork{exit};loop skip"],
        ["run", "-e", "fork { exit }; loop skip", "--show-trace", "--json"],
        ["verify", "-e", "fork { exit }; loop skip", "--emit-cert", cert],
        ["check-proof", cert],
        ["trace", "-e", "fork { exit }; loop skip", "--sched", "random", "--seed", "3"],
        ["graph", "-e", "fork { exit }; loop skip", "--prefix", "-o", dot],
        ["fuzz", "--count", "20", "--max-atoms", "5", "--exhaustive-max", "2", "--json"],
    ]
    assert [argv[0] for argv in requests] == list(busycheck.cli.COMMANDS)

    def build_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(busycheck.cli, "build_parser", build_parser)
    busycheck.cli._command_parser.cache_clear()
    before = [_answer(argv, capsys) for argv in requests]
    assert [_answer(argv, capsys) for argv in requests] == before
    assert [code for code, _, _ in before] == [0] * len(requests)
    assert busycheck.cli._command_parser.cache_info().misses == len(requests)


def test_one_request_per_process_answers_as_in_process(tmp_path, monkeypatch, capsys):
    # `python -m busycheck` runs __main__.py and entry(), and builds its one parser cold
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(busycheck.cli.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = (["-X", "dev"] if sys.flags.dev_mode else []) + [f"-W{option}" for option in sys.warnoptions]
    cert = tmp_path / "c.json"
    requests = [
        ["-h"],
        ["verify", "-h"],
        ["verify", "-e", "exit", "extra"],
        ["verify", "-e", "fork { exit }; loop skip", "--emit-cert", str(cert)],
        ["check-proof", str(cert)],
    ]
    answers = []
    for argv in requests:
        cold = subprocess.run([sys.executable, *flags, "-m", "busycheck", *argv], capture_output=True, text=True)
        written = cert.read_bytes() if cert.exists() else None
        answers.append(_in_process(argv, capsys))
        assert (cold.returncode, cold.stdout, cold.stderr) == answers[-1], argv
        assert (cert.read_bytes() if cert.exists() else None) == written, argv
    assert [code for code, _, _ in answers] == [0, 0, 2, 0, 0]
    assert answers[0][1].startswith("usage: busycheck [-h]") and answers[-1][1] == "Ok\n"


def _contract_programs():
    programs = [pretty(c) for c in enumerate_programs(5)]
    programs += [_km(k, m) for k in (1, 2, 3) for m in (1, 2, 3)] + [KM22_TWIN]
    programs += [_nest(d) for d in (1, 4, 8)] + [_waiters(n) for n in (4, 20, 60)]
    return programs + [_long(n) for n in (5, 50, 200)]


# argv forms run on every contract program, "{cert}" standing for one certificate path
CONTRACT_FORMS = {
    "run --show-trace": ["run", "--show-trace"],
    "run --json": ["run", "--json"],
    "run --sched random --seed 3 --show-trace": ["run", "--sched", "random", "--seed", "3", "--show-trace"],
    "run --sched rotated:2 --show-trace": ["run", "--sched", "rotated:2", "--show-trace"],
    "trace": ["trace"],
    "graph --prefix": ["graph", "--prefix"],
    "verify --emit-cert": ["verify", "--emit-cert", "{cert}"],
    "check-proof": ["check-proof", "{cert}"],
}
# sha256 per argv form of (exit code, stdout, stderr) with temp paths masked; `verify
# --emit-cert` adds the certificate bytes, `fuzz` drops its wallTime line
CONTRACT_DIGESTS = {
    "run --show-trace": "7c74fcf6c14e59cdec3388ab8e865ed2a0a83d886de307cc5bd45874b1e1f531",
    "run --json": "3ac317dd2e8a15ae68fc17fe8b44dac900211b9d49a8405fc0d475f93fc8c031",
    "run --sched random --seed 3 --show-trace": "fd0d8ee3c5823167f4ad8a9cdfd73e3fe4e2e1c76a3f0c86c592c6ae9d370ee5",
    "run --sched rotated:2 --show-trace": "7c74fcf6c14e59cdec3388ab8e865ed2a0a83d886de307cc5bd45874b1e1f531",
    "trace": "0e91893a0356794ed8cdf13b86e74d1e5a0f0c2513bd4bcdf21a0e9eedb43cd7",
    "graph --prefix": "b39bdca1809b8a112a9faa8b9301c938d890ddd5f9d82f2cb9297ed4736ea55b",
    "verify --emit-cert": "822239ab72cb08d9b328822bd2a45f128086699dd73b5aa67ef4edb66e7923c1",
    "check-proof": "f81c688346a24b851989fd82b03033c5811486fc317f8af9f4df560ac7634322",
    "fuzz --seed 1 --json": "2f54897d99f1eaee9d5acf5b68a5cf9f18b732d3ce776854e37964eedc9b50eb",
}


def _contract_digests(tmp_path, capsys):
    cert = tmp_path / "c.json"
    hashes = {form: hashlib.sha256() for form in CONTRACT_DIGESTS}

    def call(form, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        if form.startswith("fuzz"):
            out = "".join(line + "\n" for line in out.splitlines() if "wallTime" not in line)
        hashes[form].update(f"{code}\0{out}\0{err}\0".replace(str(tmp_path), "<tmp>").encode())

    for program in _contract_programs():
        cert.unlink(missing_ok=True)
        for form, args in CONTRACT_FORMS.items():
            argv = [str(cert) if a == "{cert}" else a for a in args]
            call(form, argv if form == "check-proof" else argv + ["-e", program])
            if form == "verify --emit-cert" and cert.exists():
                hashes[form].update(cert.read_bytes())
    call("fuzz --seed 1 --json", ["fuzz", "--seed", "1", "--json"])
    return {form: h.hexdigest() for form, h in hashes.items()}


def test_cli_output_matches_the_pinned_digests(tmp_path, capsys):
    digests = _contract_digests(tmp_path, capsys)
    for form, digest in CONTRACT_DIGESTS.items():
        assert digests[form] == digest, f"output of `busycheck {form}` changed"

import json
import sys

import pytest

import busycheck.cli
import busycheck.semantics
from busycheck.cli import main
from busycheck.lang import parse
from busycheck.proofs import check_proof, load_certificate
from busycheck.semantics import fuel_bound

# k x m interleaving programs with k = m = 2: the twin ends every thread in
# `loop skip`, leaving main, 2 forkers and 4 grandchildren busy-waiting
KM22 = "; ".join(["fork { fork { loop skip }; fork { loop skip }; exit }"] * 2) + "; loop skip"
KM22_TWIN = KM22.replace("exit", "loop skip")


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
    assert capsys.readouterr().out == (
        "RuleViolation root: certificate does not prove {obs(0)} c {obs(0)}\n"
    )


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

import json

import pytest

import busycheck.proofs
from busycheck.assertions import CREDIT, FALSE, Obs, Star, flat_eq
from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import EXIT, Fork, LOOP_SKIP, Seq, parse, pretty
from busycheck.proofs import (
    CertificateError,
    ForkSplit,
    FrameData,
    HoareTriple,
    ProofTree,
    Rule,
    RuleViolation,
    ShiftData,
    check_proof,
    derive,
    from_json_dict,
    load_certificate,
    save_certificate,
    to_json_dict,
    tree_size,
    verify,
)
from busycheck.semantics import oracle_diverges

WAITING_PAIR = parse("fork { exit }; loop skip")
TWO_LEVEL = parse("fork { fork { loop skip }; exit }; loop skip")


def _waiting_pair_tree():
    """The waiting-pair derivation written out by hand."""
    exit_leaf = ProofTree(HoareTriple(Obs(1), EXIT, FALSE), Rule.EXIT)
    child = ProofTree(
        HoareTriple(Obs(1), EXIT, Obs(0)),
        Rule.VIEW_SHIFT,
        (exit_leaf,),
        ShiftData(Obs(1), FALSE),
    )
    fork = ProofTree(
        HoareTriple(Star(Obs(1), CREDIT), Fork(EXIT), Star(Obs(0), CREDIT)),
        Rule.FORK,
        (child,),
        ForkSplit(1, 0),
    )
    loop = ProofTree(HoareTriple(Star(Obs(0), CREDIT), LOOP_SKIP, FALSE), Rule.LOOP)
    seq = ProofTree(
        HoareTriple(Star(Obs(1), CREDIT), WAITING_PAIR, FALSE),
        Rule.SEQ,
        (fork, loop),
    )
    return ProofTree(
        HoareTriple(Obs(0), WAITING_PAIR, Obs(0)),
        Rule.VIEW_SHIFT,
        (seq,),
        ShiftData(Star(Obs(1), CREDIT), FALSE),
    )


def test_check_accepts_the_waiting_pair_derivation():
    assert check_proof(_waiting_pair_tree()) is None


def test_check_accepts_identity_shift_around_loop():
    # the same derivation with the loop premise wrapped in a no-op shift
    tree = _waiting_pair_tree()
    seq = tree.premises[0]
    fork, loop = seq.premises
    wrapped_loop = ProofTree(
        loop.conclusion, Rule.VIEW_SHIFT, (loop,), ShiftData(loop.conclusion.pre, FALSE)
    )
    rebuilt = ProofTree(
        tree.conclusion,
        Rule.VIEW_SHIFT,
        (ProofTree(seq.conclusion, Rule.SEQ, (fork, wrapped_loop)),),
        tree.data,
    )
    assert check_proof(rebuilt) is None


def test_check_rejects_loop_holding_an_obligation():
    leaf = ProofTree(HoareTriple(Star(Obs(1), CREDIT), LOOP_SKIP, FALSE), Rule.LOOP)
    violation = check_proof(leaf)
    assert isinstance(violation, RuleViolation)
    assert violation.path == ()
    assert "obs(0) * credit" in violation.reason


def test_check_accepts_exit_with_any_chunk():
    leaf = ProofTree(HoareTriple(Obs(2), EXIT, FALSE), Rule.EXIT)
    assert check_proof(leaf) is None


def test_check_rejects_exit_with_credits_attached():
    leaf = ProofTree(HoareTriple(Star(Obs(2), CREDIT), EXIT, FALSE), Rule.EXIT)
    assert check_proof(leaf) is not None


def test_check_reports_path_to_deep_violation():
    tree = _waiting_pair_tree()
    # corrupt the exit leaf: posts must be false
    bad_leaf = ProofTree(HoareTriple(Obs(1), EXIT, Obs(0)), Rule.EXIT)
    bad_child = ProofTree(
        HoareTriple(Obs(1), EXIT, Obs(0)),
        Rule.VIEW_SHIFT,
        (bad_leaf,),
        ShiftData(Obs(1), Obs(0)),
    )
    bad_fork = ProofTree(
        tree.premises[0].premises[0].conclusion,
        Rule.FORK,
        (bad_child,),
        ForkSplit(1, 0),
    )
    bad = ProofTree(
        tree.conclusion,
        Rule.VIEW_SHIFT,
        (ProofTree(tree.premises[0].conclusion, Rule.SEQ, (bad_fork, tree.premises[0].premises[1])),),
        tree.data,
    )
    violation = check_proof(bad)
    assert violation is not None
    assert violation.path == (0, 0, 0, 0)


def _shifted_exit(*shifts):
    """`{obs(0)} exit {false}` under nested ViewShift nodes, innermost last."""
    tree = ProofTree(HoareTriple(Obs(0), EXIT, FALSE), Rule.EXIT)
    for pre in reversed(shifts):
        tree = ProofTree(
            HoareTriple(pre, EXIT, FALSE),
            Rule.VIEW_SHIFT,
            (tree,),
            ShiftData(tree.conclusion.pre, FALSE),
        )
    return tree


def test_check_accepts_multi_chunk_view_shifts():
    assert check_proof(_shifted_exit(Star(Obs(30), Obs(30)))) is None
    assert check_proof(_shifted_exit(Star(Obs(0), Obs(30)), Star(Obs(30), Obs(30)))) is None


def test_check_rejects_an_invalid_multi_chunk_view_shift():
    tampered = _shifted_exit(Star(Obs(1), Obs(2)), Star(Obs(0), Obs(0)))
    assert str(check_proof(tampered)) == "root: pre-side view shift invalid"


def test_check_rejects_fork_split_mismatch():
    tree = _waiting_pair_tree()
    fork = tree.premises[0].premises[0]
    tampered_fork = ProofTree(fork.conclusion, Rule.FORK, fork.premises, ForkSplit(0, 0))
    seq = tree.premises[0]
    bad = ProofTree(
        tree.conclusion,
        Rule.VIEW_SHIFT,
        (ProofTree(seq.conclusion, Rule.SEQ, (tampered_fork, seq.premises[1])),),
        tree.data,
    )
    violation = check_proof(bad)
    assert violation is not None and violation.path == (0, 0)


def test_derive_waiting_pair_certificate_shape():
    tree = derive(WAITING_PAIR, 0)
    assert tree is not None and check_proof(tree) is None
    assert tree.rule is Rule.VIEW_SHIFT
    assert flat_eq(tree.data.inner_pre, Star(Obs(1), CREDIT))
    assert flat_eq(tree.data.inner_post, FALSE)
    seq = tree.premises[0]
    assert seq.rule is Rule.SEQ
    fork, loop = seq.premises
    assert fork.rule is Rule.FORK and fork.data == ForkSplit(1, 0)
    shifted_exit = fork.premises[0]
    assert shifted_exit.rule is Rule.VIEW_SHIFT
    assert shifted_exit.premises[0].rule is Rule.EXIT
    assert loop.rule is Rule.LOOP
    assert flat_eq(loop.conclusion.pre, Star(Obs(0), CREDIT))


def test_derive_rejects_bare_loop():
    assert derive(parse("loop skip"), 0) is None


def test_derive_two_level_fork():
    tree = derive(TWO_LEVEL, 0)
    assert tree is not None
    assert check_proof(tree) is None


def test_derive_with_nonzero_start():
    tree = derive(parse("exit"), 2)
    assert tree is not None and check_proof(tree) is None
    assert flat_eq(tree.conclusion.pre, Obs(2))


def test_verify_examples():
    assert verify(WAITING_PAIR) is not None
    assert verify(parse("loop skip")) is None
    assert verify(parse("fork { loop skip }; exit")) is not None


def _sample_programs():
    yield from gen_program(GenConfig(max_atoms=9, seed=31, count=150))
    yield from enumerate_programs(4)


def test_every_derived_tree_checks():
    for c in _sample_programs():
        tree = verify(c)
        if tree is not None:
            assert check_proof(tree) is None, pretty(c)
            assert flat_eq(tree.conclusion.pre, Obs(0))
            assert flat_eq(tree.conclusion.post, Obs(0))


def test_empirical_soundness_small():
    for c in _sample_programs():
        if verify(c) is not None:
            assert not oracle_diverges(c), pretty(c)


def test_verifier_is_exact_on_small_programs():
    # observed (and locked here as a regression): on this language the
    # search accepts exactly the programs the divergence oracle clears,
    # so the monitored incompleteness fraction stays at zero
    for c in enumerate_programs(5):
        assert (verify(c) is not None) == (not oracle_diverges(c)), pretty(c)


def test_frame_compliance():
    for c in [WAITING_PAIR, TWO_LEVEL, parse("exit")]:
        tree = verify(c)
        framed = ProofTree(
            HoareTriple(
                Star(tree.conclusion.pre, CREDIT),
                tree.conclusion.cmd,
                Star(tree.conclusion.post, CREDIT),
            ),
            Rule.FRAME,
            (tree,),
            FrameData(CREDIT),
        )
        assert check_proof(framed) is None


def test_frame_must_be_obligation_free():
    tree = verify(parse("exit"))
    framed = ProofTree(
        HoareTriple(
            Star(tree.conclusion.pre, Obs(0)),
            tree.conclusion.cmd,
            Star(tree.conclusion.post, Obs(0)),
        ),
        Rule.FRAME,
        (tree,),
        FrameData(Obs(0)),
    )
    violation = check_proof(framed)
    assert violation is not None and "obs" in violation.reason


def seq_atoms(c):
    """Top-level atoms of a command, in execution order."""
    out, stack = [], [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.second, node.first]
        else:
            out.append(node)
    return out


def _contains(c, kind):
    return any(
        isinstance(a, kind) or (isinstance(a, Fork) and _contains(a.body, kind))
        for a in seq_atoms(c)
    )


def test_exit_necessity():
    # a verified busy-waiter must abruptly exit somewhere
    for c in _sample_programs():
        if verify(c) is not None and _contains(c, type(LOOP_SKIP)):
            assert _contains(c, type(EXIT)), pretty(c)


def _flat(n):
    return parse("fork { exit }; " * n + "loop skip")


def _round_trip_programs():
    yield from enumerate_programs(6)
    yield _flat(50)
    yield _flat(200)


def test_certificate_round_trip(tmp_path):
    path = str(tmp_path / "cert.json")
    for c in _round_trip_programs():
        tree = verify(c)
        if tree is None:
            continue
        save_certificate(tree, path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == to_json_dict(tree), pretty(c)
        loaded = load_certificate(path)
        assert loaded == tree, pretty(c)
        assert check_proof(loaded) is None, pretty(c)


def test_certificate_is_single_line_and_linear_in_size(tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(verify(_flat(200)), str(path))
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    # no indentation: 392,325 bytes, where indented JSON took 3,781,666
    assert len(text) < 500_000


def _seq_entry(entry):
    stack = [entry]
    while stack:
        e = stack.pop()
        if e["rule"] == "Seq":
            return e
        stack.extend(e["premises"])
    raise AssertionError("certificate has no Seq node")


def test_loaded_premises_reuse_the_conclusions_subterms():
    entry = to_json_dict(verify(TWO_LEVEL))
    seq = from_json_dict(entry)
    while seq.rule is not Rule.SEQ:
        seq = seq.premises[0]
    first, second = seq.premises
    assert first.conclusion.cmd is seq.conclusion.cmd.first
    assert second.conclusion.cmd is seq.conclusion.cmd.second


def test_edited_premise_command_is_parsed_and_rejected():
    entry = to_json_dict(verify(TWO_LEVEL))
    _seq_entry(entry)["premises"][1]["cmd"] = "fork { loop skip }; exit"
    violation = check_proof(from_json_dict(entry))
    assert violation is not None
    assert violation.reason == "Seq premise commands do not match the sequence"


def test_loading_parses_only_the_root_command(monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    entry = to_json_dict(verify(_flat(20)))
    monkeypatch.setattr(busycheck.proofs, "parse", counting_parse)
    tree = from_json_dict(entry)
    assert calls == [entry["cmd"]]
    # a leaf's text that is not the printed form is parsed, to the same command
    leaf = _seq_entry(entry)["premises"][0]["premises"][0]["premises"][0]
    assert (leaf["rule"], leaf["cmd"]) == ("Exit", "exit")
    leaf["cmd"] = "exit  # spelled differently"
    calls.clear()
    assert from_json_dict(entry) == tree
    assert calls == [entry["cmd"], leaf["cmd"]]


def test_certificate_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CertificateError):
        load_certificate(str(path))
    with pytest.raises(CertificateError):
        from_json_dict({"rule": "Exit"})


def test_tree_size_counts_nodes():
    # root shift, seq, fork, child shift, exit leaf, loop leaf
    assert tree_size(_waiting_pair_tree()) == 6

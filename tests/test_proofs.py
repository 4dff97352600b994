import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import busycheck.assertions
import busycheck.lang
import busycheck.proofs
from busycheck.assertions import BOTTOM, OBS_ZERO, Flat, flat_add, state_assertion, view_shift
from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import (
    DONE,
    Command,
    EXIT,
    Exit,
    Fork,
    LOOP_SKIP,
    LoopSkip,
    Seq,
    parse,
    pretty,
    seq_of,
)
from busycheck.proofs import (
    CertificateError,
    ForkSplit,
    FrameData,
    HoareTriple,
    ProofTree,
    RULE_EXIT,
    RULE_FORK,
    RULE_FRAME,
    RULE_LOOP,
    RULE_SEQ,
    RULE_VIEW_SHIFT,
    Rule,
    RuleViolation,
    ShiftData,
    ThreadTables,
    certificate_text,
    check_proof,
    derive,
    from_json_dict,
    load_certificate,
    save_certificate,
    verify,
)
from busycheck.proofs import _wrap
from busycheck.semantics import all_waiting, explore, thread_alone_schedule
from reference import command_parts, reference_from_json_dict, reference_to_json_dict, replay, tree_size

WAITING_PAIR = parse("fork { exit }; loop skip")
TWO_LEVEL = parse("fork { fork { loop skip }; exit }; loop skip")


def to_json_dict(tree):
    """The certificate `save_certificate` writes for `tree`, as a JSON value."""
    return json.loads(certificate_text(tree))


def _waiting_pair_tree():
    """The waiting-pair derivation written out by hand."""
    exit_leaf = ProofTree(HoareTriple(Flat((1,), 0), EXIT, BOTTOM), Rule.EXIT)
    child = ProofTree(
        HoareTriple(Flat((1,), 0), EXIT, OBS_ZERO),
        Rule.VIEW_SHIFT,
        (exit_leaf,),
        ShiftData(Flat((1,), 0), BOTTOM),
    )
    fork = ProofTree(
        HoareTriple(Flat((1,), 1), Fork(EXIT), Flat((0,), 1)),
        Rule.FORK,
        (child,),
        ForkSplit(1, 0),
    )
    loop = ProofTree(HoareTriple(Flat((0,), 1), LOOP_SKIP, BOTTOM), Rule.LOOP)
    seq = ProofTree(
        HoareTriple(Flat((1,), 1), WAITING_PAIR, BOTTOM),
        Rule.SEQ,
        (fork, loop),
    )
    return ProofTree(
        HoareTriple(OBS_ZERO, WAITING_PAIR, OBS_ZERO),
        Rule.VIEW_SHIFT,
        (seq,),
        ShiftData(Flat((1,), 1), BOTTOM),
    )


def test_check_accepts_the_waiting_pair_derivation():
    assert check_proof(_waiting_pair_tree()) is None


def test_check_accepts_identity_shift_around_loop():
    # the same derivation with the loop premise wrapped in a no-op shift
    tree = _waiting_pair_tree()
    seq = tree.premises[0]
    fork, loop = seq.premises
    wrapped_loop = ProofTree(
        loop.conclusion, Rule.VIEW_SHIFT, (loop,), ShiftData(loop.conclusion.pre, BOTTOM)
    )
    rebuilt = ProofTree(
        tree.conclusion,
        Rule.VIEW_SHIFT,
        (ProofTree(seq.conclusion, Rule.SEQ, (fork, wrapped_loop)),),
        tree.data,
    )
    assert check_proof(rebuilt) is None


def test_check_rejects_loop_holding_an_obligation():
    leaf = ProofTree(HoareTriple(Flat((1,), 1), LOOP_SKIP, BOTTOM), Rule.LOOP)
    violation = check_proof(leaf)
    assert isinstance(violation, RuleViolation)
    assert violation.path == ()
    assert "obs(0) * credit" in violation.reason


def test_check_accepts_exit_with_any_chunk():
    leaf = ProofTree(HoareTriple(Flat((2,), 0), EXIT, BOTTOM), Rule.EXIT)
    assert check_proof(leaf) is None


def test_check_rejects_exit_with_credits_attached():
    leaf = ProofTree(HoareTriple(Flat((2,), 1), EXIT, BOTTOM), Rule.EXIT)
    assert check_proof(leaf) is not None


def test_check_reports_path_to_deep_violation():
    tree = _waiting_pair_tree()
    # corrupt the exit leaf: posts must be false
    bad_leaf = ProofTree(HoareTriple(Flat((1,), 0), EXIT, OBS_ZERO), Rule.EXIT)
    bad_child = ProofTree(
        HoareTriple(Flat((1,), 0), EXIT, OBS_ZERO),
        Rule.VIEW_SHIFT,
        (bad_leaf,),
        ShiftData(Flat((1,), 0), OBS_ZERO),
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
    tree = ProofTree(HoareTriple(OBS_ZERO, EXIT, BOTTOM), Rule.EXIT)
    for pre in reversed(shifts):
        tree = ProofTree(
            HoareTriple(pre, EXIT, BOTTOM),
            Rule.VIEW_SHIFT,
            (tree,),
            ShiftData(tree.conclusion.pre, BOTTOM),
        )
    return tree


def test_check_accepts_multi_chunk_view_shifts():
    assert check_proof(_shifted_exit(Flat((30, 30), 0))) is None
    assert check_proof(_shifted_exit(Flat((0, 30), 0), Flat((30, 30), 0))) is None


def test_check_rejects_an_invalid_multi_chunk_view_shift():
    tampered = _shifted_exit(Flat((1, 2), 0), Flat((0, 0), 0))
    assert str(check_proof(tampered)) == "root: pre-side view shift invalid"


def _node_faults():
    """(name, tree, reason): each tree breaks its root's rule schema in one way."""
    exit_leaf = ProofTree(HoareTriple(OBS_ZERO, EXIT, BOTTOM), Rule.EXIT)
    fork = verify(parse("fork { exit }"))  # a Fork node: {obs(0)} fork { exit } {obs(0)}
    return [
        ("unknown-rule", ProofTree(exit_leaf.conclusion, "Bogus"), "unknown rule 'Bogus'"),
        (
            "loop-on-exit",
            ProofTree(HoareTriple(Flat((0,), 1), EXIT, BOTTOM), Rule.LOOP),
            "Loop rule applied to a non-loop command",
        ),
        (
            "fork-without-split",
            ProofTree(fork.conclusion, Rule.FORK, fork.premises),
            "Fork node carries no resource split",
        ),
        (
            "shift-without-data",
            ProofTree(exit_leaf.conclusion, Rule.VIEW_SHIFT, (exit_leaf,)),
            "ViewShift node carries no intermediate assertions",
        ),
        (
            "post-shift-mints-a-credit",  # obs(0) => obs(0) * credit
            ProofTree(
                HoareTriple(OBS_ZERO, fork.conclusion.cmd, Flat((0,), 1)),
                Rule.VIEW_SHIFT,
                (fork,),
                ShiftData(OBS_ZERO, OBS_ZERO),
            ),
            "post-side view shift invalid",
        ),
        (
            "frame-without-data",
            ProofTree(exit_leaf.conclusion, Rule.FRAME, (exit_leaf,)),
            "Frame node carries no frame assertion",
        ),
        (
            "frame-of-another-command",
            ProofTree(HoareTriple(Flat((0,), 1), LOOP_SKIP, BOTTOM), Rule.FRAME, (exit_leaf,), FrameData(Flat((), 1))),
            "Frame premise command differs from conclusion",
        ),
    ]


@pytest.mark.parametrize("tree, reason", [pytest.param(tree, reason, id=name) for name, tree, reason in _node_faults()])
def test_check_names_each_schema_fault_and_its_path(tree, reason):
    # at the root, and as the premise of a view shift that keeps both ends
    c = tree.conclusion
    shifted = ProofTree(c, Rule.VIEW_SHIFT, (tree,), ShiftData(c.pre, c.post))
    assert str(check_proof(tree)) == f"root: {reason}"
    assert check_proof(shifted) == RuleViolation((0,), reason)


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
    assert tree.data.inner_pre == Flat((1,), 1)
    assert tree.data.inner_post == BOTTOM
    seq = tree.premises[0]
    assert seq.rule is Rule.SEQ
    fork, loop = seq.premises
    assert fork.rule is Rule.FORK and fork.data == ForkSplit(1, 0)
    shifted_exit = fork.premises[0]
    assert shifted_exit.rule is Rule.VIEW_SHIFT
    assert shifted_exit.premises[0].rule is Rule.EXIT
    assert loop.rule is Rule.LOOP
    assert loop.conclusion.pre == Flat((0,), 1)


def test_derive_rejects_bare_loop():
    assert derive(parse("loop skip"), 0) is None


def test_derive_two_level_fork():
    tree = derive(TWO_LEVEL, 0)
    assert tree is not None
    assert check_proof(tree) is None


def test_derive_with_nonzero_start():
    tree = derive(parse("exit"), 2)
    assert tree is not None and check_proof(tree) is None
    assert tree.conclusion.pre == Flat((2,), 0)


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
            assert tree.conclusion.pre == OBS_ZERO
            assert tree.conclusion.post == OBS_ZERO


def test_empirical_soundness_small():
    for c in _sample_programs():
        if verify(c) is not None:
            assert not explore(c).diverges, pretty(c)


def test_verifier_is_exact_on_small_programs():
    # on this language the verifier accepts exactly the programs the
    # divergence oracle clears (the proofs module docstring argues why), so
    # the monitored incompleteness fraction stays at zero
    for c in enumerate_programs(5):
        assert (verify(c) is not None) == (not explore(c).diverges), pretty(c)


def test_frame_compliance():
    for c in [WAITING_PAIR, TWO_LEVEL, parse("exit")]:
        tree = verify(c)
        framed = ProofTree(
            HoareTriple(
                flat_add(tree.conclusion.pre, Flat((), 1)),
                tree.conclusion.cmd,
                flat_add(tree.conclusion.post, Flat((), 1)),
            ),
            Rule.FRAME,
            (tree,),
            FrameData(Flat((), 1)),
        )
        assert check_proof(framed) is None


def test_frame_must_be_obligation_free():
    tree = verify(parse("exit"))
    framed = ProofTree(
        HoareTriple(
            flat_add(tree.conclusion.pre, OBS_ZERO),
            tree.conclusion.cmd,
            flat_add(tree.conclusion.post, OBS_ZERO),
        ),
        Rule.FRAME,
        (tree,),
        FrameData(OBS_ZERO),
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
            assert fh.read() == json.dumps(reference_to_json_dict(tree), separators=(",", ":")) + "\n", pretty(c)
        loaded = load_certificate(path)
        assert loaded == tree, pretty(c)
        assert check_proof(loaded) is None, pretty(c)
    # too deep for `==` on trees: the loaded tree writes the same certificate
    tree = verify(_waiters(400))
    save_certificate(tree, path)
    loaded = load_certificate(path)
    assert to_json_dict(loaded) == to_json_dict(tree)
    assert check_proof(loaded) is None


def _tree_text(tree):
    """The certificate of `tree` with every premise written where it occurs,
    as certificates were written before Fork premises were shared."""
    return json.dumps(reference_to_json_dict(tree, shared=False), separators=(",", ":")) + "\n"


def _digests(texts):
    """sha256 over certificate texts, and over the certificates they load as, written as trees."""
    shared, tree = hashlib.sha256(), hashlib.sha256()
    for text in texts:
        shared.update(text.encode())
        tree.update(_tree_text(from_json_dict(json.loads(text))).encode())
    return shared.hexdigest(), tree.hexdigest()


def test_certificates_up_to_6_atoms_are_pinned_and_round_trip():
    # sha256 over the text `save_certificate` writes for every Verified
    # program of up to 6 atoms, in enumeration order, and over those
    # certificates read back and written as trees, whose digest is the one
    # pinned before Fork premises were shared; the same loops over 7 atoms
    # give cba7873cad70de040dca5fafc1d8a4c145b0aa425bb413d2adefafe6f3c13e08
    # and 5cb01b9170bd47b6303824c5708b3cfdfd52067e2aad7fae0c336db82a6a0a6b
    texts = []
    for c in enumerate_programs(6):
        tree = verify(c)
        if tree is None:
            continue
        cert = to_json_dict(tree)
        texts.append(json.dumps(cert, separators=(",", ":")) + "\n")
        assert to_json_dict(from_json_dict(cert)) == cert, pretty(c)
    assert _digests(texts) == (
        "6ff2038a0c5b11d99d6a5a6fa95fe42532e14a6c9d8cab944f2f088e7fc991c2",
        "3359f0d7c5517d863a24f20bed1955d2f1865e96494275391848b3120988a58d",
    )


def _written(tree, path):
    save_certificate(tree, path)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _shares_a_fork_premise(tree):
    premises = [t.premises[0] for t in _occurrences(tree) if t.rule is RULE_FORK]
    return len({id(p) for p in premises}) < len(premises)


def test_a_certificate_without_equal_threads_is_written_as_a_tree(tmp_path):
    # no two forks of an equal (body, co, cc): the text is the tree's, as before sharing
    path = str(tmp_path / "cert.json")
    programs = [*enumerate_programs(6), *gen_program(GenConfig(max_atoms=40, seed=18, count=300))]
    trees = [tree for tree in map(verify, programs) if tree is not None]
    unshared = [tree for tree in trees if not _shares_a_fork_premise(tree)]
    for tree in unshared:
        assert _written(tree, path) == _tree_text(tree)
    assert len(trees) > len(unshared) > 1000


def test_written_certificate_is_the_reference_writers_json(tmp_path):
    # every Verified program of up to 6 atoms, and seeded random ones of up to
    # 40; and some of their proofs under a Frame node, which `verify` never writes
    path = str(tmp_path / "cert.json")
    programs = [*enumerate_programs(6), *gen_program(GenConfig(max_atoms=40, seed=18, count=300))]
    trees = [tree for tree in map(verify, programs) if tree is not None]
    for tree in trees[:100]:
        (pre, c, post), frame = tree.conclusion, Flat((), 1)
        framed = HoareTriple(flat_add(pre, frame), c, flat_add(post, frame))
        trees.append(ProofTree(framed, Rule.FRAME, (tree,), FrameData(frame)))
    for tree in trees:
        assert _written(tree, path) == json.dumps(reference_to_json_dict(tree), separators=(",", ":")) + "\n"
    assert len(trees) > 1500


@pytest.mark.parametrize(
    "program, sizes, digests",
    [
        (
            lambda n: "fork { loop skip }; " * n + "exit",
            range(10, 61, 10),
            (
                "bd2ee0d3897d2d45d2c2db3c67d08dd86aae4529b4b4e5753a6aa928bf0879f8",
                "6ccded0c88e985270f15f8738925e1f47d971619455e19c9b4806da62672facd",
            ),
        ),
        (
            lambda n: "fork { exit }; " * n + "loop skip",
            range(50, 201, 50),
            (
                "b054bd6a20837f0410eb46e4326af72e0ad054f41d9ba27836d40d3b412eb91c",
                "cf768a85589b34f5de1c4183d28b1d42cd9b15c040c7f4592d4e0c70e99abe5f",
            ),
        ),
    ],
    ids=["waiters", "flats"],
)
def test_certificates_of_the_large_families_are_pinned(tmp_path, program, sizes, digests):
    # sha256 over the written certificates of the benchmark's `large` programs,
    # whose long credit chains no program of up to 6 atoms reaches, and over
    # them loaded and written as trees (the digest pinned before sharing)
    path = str(tmp_path / "cert.json")
    assert _digests(_written(verify(parse(program(n))), path) for n in sizes) == digests


def test_certificate_is_single_line_and_linear_in_size(tmp_path):
    sizes = []
    for n in (400, 800):
        path = tmp_path / f"cert{n}.json"
        save_certificate(verify(_waiters(n)), str(path))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        sizes.append(len(text))
    # 118,094 and 239,506 bytes; written as trees they took 177,545 and
    # 358,557, and the nested format 3.46 MB at n = 400
    assert sizes[0] < 120_000 and sizes[1] <= 2.1 * sizes[0]


def _subterms(cmd):
    stack = [cmd]
    while stack:
        x = stack.pop()
        yield x
        stack += command_parts(x)


def test_loaded_premises_reuse_the_conclusions_subterms():
    # equal commands load as one object, so a premise's command is the very
    # sub-command its rule names; an assertion entry loads as one normal form
    tree = from_json_dict(to_json_dict(verify(TWO_LEVEL)))
    objects, stack = {}, [tree]
    while stack:
        t = stack.pop()
        stack.extend(t.premises)
        if t.rule is Rule.SEQ:
            first, second = t.premises
            assert first.conclusion.cmd is t.conclusion.cmd.first
            assert second.conclusion.cmd is t.conclusion.cmd.second
        terms = [t.conclusion.pre, *_subterms(t.conclusion.cmd), t.conclusion.post]
        if isinstance(t.data, ShiftData):
            terms += [t.data.inner_pre, t.data.inner_post]
        for x in terms:  # a command by its text: its `==` is identity
            assert objects.setdefault(pretty(x) if isinstance(x, Command) else x, x) is x


def test_a_loaded_certificate_concludes_the_program_itself():
    # while the program lives, the reader's constructors hand back its very
    # commands; once it is gone, they build one equal to it
    for c in [*enumerate_programs(4), *gen_program(GenConfig(seed=8, count=40))]:
        tree = verify(c)
        if tree is not None:
            assert from_json_dict(to_json_dict(tree)).conclusion.cmd is c
    text = "fork { fork { loop skip }; exit }; " * 30 + "exit"
    payload = to_json_dict(verify(parse(text)))
    loaded = from_json_dict(payload).conclusion.cmd
    assert pretty(loaded) == text and parse(text) is loaded


def test_loading_parses_nothing(monkeypatch, tmp_path):
    def parse_fails(text):
        raise AssertionError(f"parsed {text!r}")

    tree = verify(_flat(20))
    path = str(tmp_path / "cert.json")
    save_certificate(tree, path)
    monkeypatch.setattr(busycheck.proofs, "parse", parse_fails)
    monkeypatch.setattr(busycheck.lang, "parse", parse_fails)
    assert load_certificate(path) == tree
    assert not hasattr(busycheck.assertions, "parse_assertion")  # no assertion syntax left


def _int_fields(value, path=()):
    """(path, value) of every int in a JSON value."""
    if isinstance(value, int):
        yield path, value
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _int_fields(v, path + (i,))
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _int_fields(v, path + (k,))


def _index_bound(cert, path):
    """The length of the list the int at `path` indexes, or None for a count."""
    if path[-1] in ("format", "obs", "childObs", "childCredits"):
        return None
    if path[0] == "root" or "premises" in path:
        return len(cert["nodes"])
    if path[0] == "cmds" or path[-1] == "cmd":
        return len(cert["cmds"])
    return len(cert["asserts"])


def _tampered(cert, path, value):
    cert = json.loads(json.dumps(cert))
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cert


@pytest.mark.parametrize("c", [WAITING_PAIR, TWO_LEVEL], ids=["waiting-pair", "two-level"])
def test_every_single_field_tamper_is_caught(c):
    # each int moved by one, and each index moved to every other in-range
    # index, is rejected on load, fails the check, or changes the root
    # triple.  A table entry is the one exception: it stands for every use
    # of its term, so a tamper there may give another valid proof of the
    # same triple (two-level: obs(2) -> obs(3) shifts the child's ghost
    # pairs consistently); that proof must still differ from the original.
    tree = verify(c)
    cert = to_json_dict(tree)
    tampers = 0
    for path, value in _int_fields(cert):
        bound = _index_bound(cert, path)
        for new in {value - 1, value + 1, *range(bound or 0)} - {value}:
            tampers += 1
            try:
                loaded = from_json_dict(_tampered(cert, path, new))
            except CertificateError:
                continue
            if check_proof(loaded) is None and loaded.conclusion == tree.conclusion:
                assert path[0] in ("cmds", "asserts") and loaded != tree, (path, new)
    assert tampers > 100


# What a mutation puts in place of a value: indices and counts one off or out
# of range, a value of every JSON type, the tags and rules of the format.
_ODD_VALUES = [
    -1, 0, 1, 2, 99, True, False, 1.0, 2.5, "0", "", "Exit", "ViewShift", "Frame", "exit", "star", "bogus",
    None, [], [0], [0, 1], [True], {}, {"exit": 0}, {"obs": 0}, {"star": [0, 0]},
]
_DROP = object()  # a mutation that deletes the key or the list item


def _json_values(value, path=()):
    """(path, value) of a JSON value and of everything inside it."""
    yield path, value
    if isinstance(value, (list, dict)):
        for key, item in enumerate(value) if isinstance(value, list) else value.items():
            yield from _json_values(item, path + (key,))


def _mutation(cert, changes):
    cert = json.loads(json.dumps(cert))
    for path, value in changes:
        if not path:
            return value
        target = cert
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return cert


def _mutated_certificates():
    """Derived certificates with one value replaced or dropped, or two at once."""
    rng = random.Random(18)
    leaf = verify(parse("exit")).premises[0]  # {obs(0)} exit {false}
    framed = ProofTree(HoareTriple(Flat((0,), 1), EXIT, BOTTOM), Rule.FRAME, (leaf,), FrameData(Flat((), 1)))
    trees = [verify(WAITING_PAIR), verify(TWO_LEVEL), derive(parse("fork { loop skip }; exit"), 2), framed]
    for tree in trees:
        cert = to_json_dict(tree)
        yield cert
        paths = []
        for path, old in _json_values(cert):
            paths.append(path)
            near = [old - 1, old + 1] if type(old) is int else []
            for value in rng.sample(_ODD_VALUES, 6) + near + [_DROP] * bool(path):
                yield _mutation(cert, [(path, value)])
        for _ in range(300):
            changes = [(rng.choice(paths[1:]), rng.choice(_ODD_VALUES + [_DROP])) for _ in range(2)]
            try:
                yield _mutation(cert, changes)
            except (IndexError, KeyError, TypeError):  # the first change removed the second's place
                continue


def _read(reader, cert):
    try:
        return reader(cert)
    except CertificateError as err:
        return str(err)


def test_reading_agrees_with_the_reference_reader():
    # the same tree, which checks the same, or the same one-line error
    read, errors = 0, set()
    for cert in _mutated_certificates():
        got = _read(from_json_dict, cert)
        assert got == _read(reference_from_json_dict, cert), cert
        if isinstance(got, str):
            assert "\n" not in got
            errors.add(got)
        else:
            assert check_proof(got) == check_proof(reference_from_json_dict(cert)), cert
            read += 1
    assert read > 300 and len(errors) > 100, (read, len(errors))


def test_certificate_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CertificateError):
        load_certificate(str(path))
    with pytest.raises(CertificateError):
        from_json_dict({"rule": "Exit"})


_EXIT_LEAF = {"rule": "Exit", "pre": 0, "cmd": 0, "post": 1, "premises": []}


def _with_tables(cmds=("exit",), asserts=({"obs": 0}, "false")):
    """A certificate of one Exit leaf whose tables are `cmds` and `asserts`."""
    return {"format": 2, "cmds": list(cmds), "asserts": list(asserts), "nodes": [_EXIT_LEAF], "root": 0}


def _cmds(*extra):
    return _with_tables(cmds=["exit", *extra])


def _asserts(*extra):
    return _with_tables(asserts=[{"obs": 0}, "false", *extra])


@pytest.mark.parametrize(
    "cert, message",
    [
        (_cmds({"exit": 0}), "cmds[1]: 'exit' takes 0 parts, not 1"),
        (_cmds({"loop skip": [0]}), "cmds[1]: 'loop skip' takes 0 parts, not 1"),
        (_cmds("fork"), "cmds[1]: 'fork' takes 1 part, not 0"),
        (_cmds({"fork": [0, 0]}), "cmds[1]: 'fork' takes 1 part, not 2"),
        (_cmds({"seq": 0}), "cmds[1]: 'seq' takes 2 parts, not 1"),
        (_cmds({"seq": [0, 0, 0]}), "cmds[1]: 'seq' takes 2 parts, not 3"),
        (_cmds("seq"), "cmds[1]: 'seq' takes 2 parts, not 0"),
        (_cmds("bogus"), "cmds[1] has the unknown tag 'bogus'"),
        (_cmds({"obs": 0}), "cmds[1] has the unknown tag 'obs'"),
        (_cmds(5), "cmds[1] is not a tag or an object of one tag"),
        (_cmds({"fork": 0, "seq": [0, 0]}), "cmds[1] is not a tag or an object of one tag"),
        (_cmds({}), "cmds[1] is not a tag or an object of one tag"),
        (_cmds({"fork": 1}), "1 is not the index of an earlier entry"),
        (_cmds({"fork": "0"}), "'0' is not the index of an earlier entry"),
        (_cmds({"seq": [0, 0]}, {"seq": [1, 0]}), "the first part of a seq is a seq"),
        ({**_with_tables(), "cmds": {"exit": 0}}, "cmds is not a list"),
        (_with_tables(asserts=[{"credit": 0}, {"obs": 0}, "false"]), "asserts[0]: 'credit' takes 0 parts, not 1"),
        (_asserts({"true": 0}), "asserts[2]: 'true' takes 0 parts, not 1"),
        (_asserts({"false": [0]}), "asserts[2]: 'false' takes 0 parts, not 1"),
        (_asserts("obs"), "asserts[2]: 'obs' takes 1 part, not 0"),
        (_asserts({"obs": [1, 2]}), "asserts[2]: 'obs' takes 1 part, not 2"),
        (_asserts({"obs": -1}), "-1 is not a count"),
        (_asserts({"obs": True}), "True is not a count"),
        (_asserts({"star": [0]}), "asserts[2]: 'star' takes 2 parts, not 1"),
        (_asserts("star"), "asserts[2]: 'star' takes 2 parts, not 0"),
        (_asserts({"star": [0, 1, 0]}), "asserts[2]: 'star' takes 2 parts, not 3"),
        (_asserts({"star": [0, 1]}, {"star": [0, 2]}), "the right part of a star is a star"),
        (_asserts({"star": [0, 3]}), "3 is not the index of an earlier entry"),
        (_asserts("exit"), "asserts[2] has the unknown tag 'exit'"),
        (_asserts(["obs", 0]), "asserts[2] is not a tag or an object of one tag"),
        ({**_with_tables(), "asserts": None}, "asserts is not a list"),
        (
            {
                **_asserts({"star": [0, 0]}, {"star": [2, 0]}),
                "nodes": [{**_EXIT_LEAF, "pre": 3}, {**_EXIT_LEAF, "pre": 2}],
            },
            "the assertions the nodes name hold more obs atoms than asserts has entries",  # 3 + 2 atoms, 4 entries
        ),
    ],
)
def test_malformed_table_entries_are_refused_with_a_message(cert, message):
    with pytest.raises(CertificateError) as caught:
        from_json_dict(cert)
    assert str(caught.value) == "malformed certificate: " + message


def test_tree_size_counts_nodes():
    # root shift, seq, fork, child shift, exit leaf, loop leaf
    assert tree_size(_waiting_pair_tree()) == 6


# --- the backtracking search `derive` replaced, kept as a reference ----------------


def _atom_count(c):
    """Atoms of `c`, counting inside fork bodies."""
    count, stack = 0, [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.first, node.second]
        else:
            count += 1
            if isinstance(node, Fork):
                stack.append(node.body)
    return count


class _ReferenceSearch:
    """Memoized backtracking search for {obs(o) * credit^c} cmd {obs(0)}.

    Per atom it tries ghost pair moves 0, 1, -1, 2, -2, ... up to the atom
    count of the root command, and fork splits by ascending
    child_obs + child_credits, then ascending child_obs; it prunes with the
    (absorbing, need) feasibility test and returns the first success.
    """

    def __init__(self, intro_budget):
        self.intro_budget = intro_budget
        self.memo = {}
        self.features = {}

    def _features(self, cmd):
        cached = self.features.get(id(cmd))
        if cached is not None:
            return cached
        if isinstance(cmd, Seq):
            head, rest = cmd.first, cmd.second
            if isinstance(head, Exit):
                result = (True, 0)
            elif isinstance(head, LoopSkip):
                result = (False, 1)
            else:
                absorbing_body, need_body = self._features(head.body)
                absorbing_rest, need_rest = self._features(rest)
                result = (absorbing_body or absorbing_rest, need_body + need_rest)
        elif isinstance(cmd, Exit):
            result = (True, 0)
        elif isinstance(cmd, LoopSkip):
            result = (False, 1)
        else:
            result = self._features(cmd.body)
        self.features[id(cmd)] = result
        return result

    def feasible(self, cmd, obs_count, credit_count):
        absorbing, need = self._features(cmd)
        return absorbing or credit_count - obs_count >= need

    def thread(self, obs_count, credit_count, cmd):
        key = (id(cmd), obs_count, credit_count)
        if key in self.memo:
            return self.memo[key]
        last = cmd
        while isinstance(last, Seq):
            last = last.second
        required = BOTTOM if isinstance(last, (Exit, LoopSkip)) else OBS_ZERO
        t = self.seq((obs_count, credit_count), cmd, required)
        if t is not None and required is BOTTOM:
            t = _wrap(t, t.conclusion.pre, OBS_ZERO)
        self.memo[key] = t
        return t

    def seq(self, state, cmd, required):
        key = (id(cmd), state, required is BOTTOM)
        if key not in self.memo:
            self.memo[key] = self._seq_uncached(state, cmd, required)
        return self.memo[key]

    def _seq_uncached(self, state, cmd, required):
        if state is None:  # dead code after exit or loop skip
            absorbing, need = self._features(cmd)
            t = self.seq((0, 0 if absorbing else need), cmd, required)
            return None if t is None else _wrap(t, BOTTOM, required)
        if not self.feasible(cmd, *state):
            return None
        first, rest = (cmd.first, cmd.second) if isinstance(cmd, Seq) else (cmd, None)
        for state1, node1, after in self._atom_options(state, first, rest):
            if rest is None:
                t = self._finish_atom(node1, required)
            else:
                t2 = self.seq(after, rest, required)
                if t2 is None:
                    continue
                t = ProofTree(HoareTriple(node1.conclusion.pre, cmd, required), Rule.SEQ, (node1, t2))
            if t is None:
                continue
            if state1 != state:
                t = _wrap(t, state_assertion(*state), t.conclusion.post)
            return t
        return None

    def _finish_atom(self, node1, required):
        post = node1.conclusion.post
        if post == required:
            return node1
        if view_shift(post, required):
            return _wrap(node1, node1.conclusion.pre, required)
        return None

    def _atom_options(self, state, atom, rest):
        o, c = state
        if isinstance(atom, Exit):
            node = ProofTree(HoareTriple(state_assertion(o, 0), atom, BOTTOM), Rule.EXIT)
            yield (o, 0), node, None
            return
        if isinstance(atom, LoopSkip):
            if c >= o + 1:
                node = ProofTree(HoareTriple(state_assertion(0, 1), atom, BOTTOM), Rule.LOOP)
                yield (0, 1), node, None
            return
        for delta in _ghost_deltas(o, c, self.intro_budget):
            o1, c1 = o + delta, c + delta
            for child_obs, child_credits in _splits_ascending(o1, c1):
                if not self.feasible(atom.body, child_obs, child_credits):
                    continue
                keep = (o1 - child_obs, c1 - child_credits)
                if rest is None:
                    if keep[1] - keep[0] < 0:
                        continue
                elif not self.feasible(rest, *keep):
                    continue
                child = self.thread(child_obs, child_credits, atom.body)
                if child is None:
                    continue
                node = ProofTree(
                    HoareTriple(state_assertion(o1, c1), atom, state_assertion(*keep)),
                    Rule.FORK,
                    (child,),
                    ForkSplit(child_obs, child_credits),
                )
                yield (o1, c1), node, keep


def _ghost_deltas(o, c, budget):
    yield 0
    for d in range(1, budget + 1):
        yield d
        if o - d >= 0 and c - d >= 0:
            yield -d


def _splits_ascending(o, c):
    for total in range(o + c + 1):
        for child_obs in range(min(total, o) + 1):
            child_credits = total - child_obs
            if child_credits <= c:
                yield child_obs, child_credits


def _reference_derive(c, n):
    return _ReferenceSearch(_atom_count(c)).thread(n, 0, c)


def _certificate(tree):
    return None if tree is None else to_json_dict(tree)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_derive_matches_the_reference_search_up_to_6_atoms(n):
    for c in enumerate_programs(6):
        assert _certificate(derive(c, n)) == _certificate(_reference_derive(c, n)), pretty(c)


def test_verify_matches_the_reference_search_on_7_atoms():
    for c in enumerate_programs(7):
        if _atom_count(c) == 7:
            assert _certificate(verify(c)) == _certificate(_reference_derive(c, 0)), pretty(c)


def test_verify_succeeds_exactly_when_the_replayed_schedule_is_not_all_waiting():
    # completeness of the six rules for this language, up to 7 atoms
    for c in enumerate_programs(7):
        assert (verify(c) is None) == all_waiting(replay(c, thread_alone_schedule(c))), pretty(c)


def test_each_command_carries_its_feasibility_pair():
    # every spine suffix and fork body of the programs of <= 7 atoms and of
    # random ones of <= 40: the fields `lang` sets when it builds a command
    # are the reference recurrence and what the pool its thread-alone schedule
    # replays to holds: an `exit` head, and its `loop skip` heads
    programs = [*enumerate_programs(7), *gen_program(GenConfig(max_atoms=40, seed=30, count=1000))]
    seen, todo = set(), list(programs)
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo += [x.body] if isinstance(x, Fork) else [x.first, x.second] if isinstance(x, Seq) else []
    reference = _ReferenceSearch(0)
    for x in seen:
        heads = [k.head for _, k in replay(x, thread_alone_schedule(x)).threads]
        assert (x.absorbing, x.need) == reference._features(x) == (EXIT in heads, heads.count(LOOP_SKIP)), pretty(x)
    assert len(seen) > 15_000
    assert (DONE.absorbing, DONE.need) == (False, 0)
    for x in (EXIT, LOOP_SKIP, Fork(EXIT), WAITING_PAIR, DONE):
        for field in ("absorbing", "need"):
            with pytest.raises(AttributeError):
                setattr(x, field, 0)


def test_proofs_imports_nothing_from_semantics():
    tree = ast.parse(Path(busycheck.proofs.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module is None or "semantics" not in node.module
            assert all("semantics" not in alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all("semantics" not in alias.name for alias in node.names)


def _waiters(n):
    return seq_of([Fork(LOOP_SKIP)] * n + [EXIT])


def test_proof_size_grows_linearly():
    assert tree_size(verify(_waiters(400))) <= 2.1 * tree_size(verify(_waiters(200)))


def _deep_nesting(depth):
    c = LOOP_SKIP
    for _ in range(depth):
        c = Seq(Fork(c), EXIT)
    return c


@pytest.mark.parametrize(
    "build",
    [
        lambda: seq_of([Fork(EXIT)] * 10_000 + [LOOP_SKIP]),
        lambda: _waiters(10_000),
        lambda: _deep_nesting(10_000),
    ],
    ids=["exits-then-loop", "waiters-then-exit", "nesting"],
)
def test_derive_check_and_size_take_10000_atoms_or_levels(build):
    tree = verify(build())
    assert tree is not None
    assert check_proof(tree) is None
    assert tree_size(tree) > 10_000


def test_rule_constants_are_the_members_they_name():
    # bound by unpacking `Rule`, so a reordered member list would swap them
    constants = (RULE_FRAME, RULE_EXIT, RULE_LOOP, RULE_FORK, RULE_SEQ, RULE_VIEW_SHIFT)
    members = (Rule.FRAME, Rule.EXIT, Rule.LOOP, Rule.FORK, Rule.SEQ, Rule.VIEW_SHIFT)
    assert all(c is m for c, m in zip(constants, members, strict=True))


# The benchmark's `large` and `interleave` shapes, small: waiters, flats, k x m.
SHARING_FAMILIES = {
    "waiters": "fork { loop skip }; " * 8 + "exit",
    "flats": "fork { exit }; " * 8 + "loop skip",
    "km": "; ".join(["fork { " + "fork { loop skip }; " * 3 + "exit }"] * 2) + "; loop skip",
}


def _occurrences(t):
    """Every node of `t`, once per place it occurs."""
    out, todo = [], [t]
    while todo:
        out.append(todo.pop())
        todo += out[-1].premises
    return out


@pytest.mark.parametrize("family", ["waiters", "flats", "km"])
def test_forks_of_equal_threads_share_one_premise(family):
    premises = {}  # (body, split) -> the premise of the first such Fork node
    forks = [t for t in _occurrences(verify(parse(SHARING_FAMILIES[family]))) if t.rule is RULE_FORK]
    for node in forks:
        assert premises.setdefault((node.conclusion.cmd.body, node.data), node.premises[0]) is node.premises[0]
    assert len(forks) == 8 and len(premises) <= 3


@pytest.mark.parametrize("family", ["waiters", "flats", "km"])
def test_check_proof_checks_each_node_object_once(monkeypatch, family):
    checked = []
    node_fault = busycheck.proofs._node_fault
    monkeypatch.setattr(busycheck.proofs, "_node_fault", lambda t: checked.append(t) or node_fault(t))
    proof = verify(parse(SHARING_FAMILIES[family]))
    assert check_proof(proof) is None
    distinct = {id(t) for t in _occurrences(proof)}
    assert len(checked) == len({id(t) for t in checked}) == len(distinct) < tree_size(proof)


def _with_first_leaf_tampered(t):
    if not t.premises:
        return t._replace(conclusion=t.conclusion._replace(pre=state_assertion(5, 5)))
    return t._replace(premises=(_with_first_leaf_tampered(t.premises[0]), *t.premises[1:]))


def _substituted(t, old, new, memo):
    """`t` with the object `old` replaced by `new` wherever it occurs; a shared
    subtree stays one object."""
    if t is old:
        return new
    if id(t) not in memo:
        memo[id(t)] = t._replace(premises=tuple(_substituted(p, old, new, memo) for p in t.premises))
    return memo[id(t)]


@pytest.mark.parametrize("family", ["waiters", "flats", "km"])
def test_a_faulty_shared_premise_fails_where_its_unshared_copy_does(family):
    proof = verify(parse(SHARING_FAMILIES[family]))
    premises = [t.premises[0] for t in _occurrences(proof) if t.rule is RULE_FORK]
    shared = max(premises, key=lambda p: sum(q is p for q in premises))
    tampered = _with_first_leaf_tampered(shared)
    dag = _substituted(proof, shared, tampered, {})
    assert sum(t is tampered for t in _occurrences(dag)) == sum(p is shared for p in premises) >= 2
    loaded = from_json_dict(to_json_dict(dag))  # the round trip keeps the sharing
    distinct = len({id(t) for t in _occurrences(dag)})
    assert len({id(t) for t in _occurrences(loaded)}) == distinct < tree_size(loaded) == tree_size(dag)
    unshared = from_json_dict(reference_to_json_dict(dag, shared=False))
    assert len({id(t) for t in _occurrences(unshared)}) == tree_size(unshared) == tree_size(dag)
    violation = check_proof(dag)
    assert violation is not None
    assert violation == check_proof(loaded) == check_proof(unshared)


def test_only_fork_premises_are_written_once():
    # a Fork node named twice by a Seq node is written twice, and a premise
    # named by a Seq node and a Fork node once for each; both read back and check
    child = verify(parse("exit"))  # {obs(0)} exit {obs(0)}
    fork = ProofTree(HoareTriple(OBS_ZERO, Fork(EXIT), OBS_ZERO), RULE_FORK, (child,), ForkSplit(0, 0))
    twice = ProofTree(HoareTriple(OBS_ZERO, parse("fork { exit }; fork { exit }"), OBS_ZERO), RULE_SEQ, (fork, fork))
    mixed = ProofTree(HoareTriple(OBS_ZERO, parse("exit; fork { exit }"), OBS_ZERO), RULE_SEQ, (child, fork))
    for tree, nodes in ((twice, 5), (mixed, 6)):
        assert check_proof(tree) is None
        cert = to_json_dict(tree)
        assert cert == reference_to_json_dict(tree) and len(cert["nodes"]) == nodes
        assert check_proof(from_json_dict(cert)) is None


def test_shared_tables_give_the_certificates_of_fresh_calls():
    tables = ThreadTables()
    proved = alone = 0  # Verified programs, and the thread proofs they build each on its own
    for c in enumerate_programs(6):  # sweep order: a size's programs fork those of smaller ones
        proof, fresh = verify(c, tables), verify(c)
        assert (proof is None) == (fresh is None)
        if proof is not None:
            assert certificate_text(proof) == certificate_text(fresh)
            assert check_proof(proof, tables) is None
            proved += 1
            own = ThreadTables()
            verify(c, own)
            alone += len(own.proofs)
    assert proved == 1424
    assert None not in tables.proofs  # no root proof is kept
    assert 0 < len(tables.proofs) == len(tables.checked) < alone


def _counting_node_faults(monkeypatch):
    visited = []
    node_fault = busycheck.proofs._node_fault
    monkeypatch.setattr(busycheck.proofs, "_node_fault", lambda t: visited.append(t) or node_fault(t))
    return visited


def test_check_proof_skips_only_the_premises_the_table_holds(monkeypatch):
    tables = ThreadTables()
    proof = verify(parse(SHARING_FAMILIES["km"]), tables)
    assert check_proof(proof, tables) is None
    premises = [t.premises[0] for t in _occurrences(proof) if t.rule is RULE_FORK]
    assert all(tables.checked[id(p)] is p for p in premises)
    visited = _counting_node_faults(monkeypatch)
    assert check_proof(proof, tables) is None  # only the root thread's nodes are checked again
    root_thread, todo = set(), [proof]
    while todo:
        t = todo.pop()
        root_thread.add(id(t))
        todo += () if t.rule is RULE_FORK else t.premises
    assert len(visited) == len(root_thread) < len({id(t) for t in _occurrences(proof)})
    # a structurally equal copy of each premise is opened in full
    copy = from_json_dict(to_json_dict(proof))
    assert copy == proof and not any(t is p for t in _occurrences(copy) for p in premises)
    visited.clear()
    assert check_proof(copy, tables) is None
    assert len(visited) == len({id(t) for t in _occurrences(copy)})


def test_check_proof_skips_no_premise_held_under_another_object():
    proof = verify(parse(SHARING_FAMILIES["km"]))
    premises = [t.premises[0] for t in _occurrences(proof) if t.rule is RULE_FORK]
    shared = max(premises, key=lambda p: sum(q is p for q in premises))
    tampered = _with_first_leaf_tampered(shared)
    dag = _substituted(proof, shared, tampered, {})
    tables = ThreadTables()
    tables.checked[id(tampered)] = shared  # an object that passed, under the faulty one's id
    assert check_proof(dag, tables) == check_proof(dag) is not None


def _with_last_leaf_tampered(t):
    if not t.premises:
        return t._replace(conclusion=t.conclusion._replace(pre=state_assertion(5, 5)))
    return t._replace(premises=(*t.premises[:-1], _with_last_leaf_tampered(t.premises[-1])))


def test_a_premise_that_failed_fails_again_with_the_same_tables():
    # the outer threads of km fork inner ones: a fault at the end of an outer
    # thread's proof is found after its inner premises passed
    tables = ThreadTables()
    proof = verify(parse(SHARING_FAMILIES["km"]), tables)
    premises = [t.premises[0] for t in _occurrences(proof) if t.rule is RULE_FORK]
    outer = next(p for p in premises if any(t.rule is RULE_FORK for t in _occurrences(p)))
    tampered = _with_last_leaf_tampered(outer)
    dag = _substituted(proof, outer, tampered, {})
    first = check_proof(dag, tables)
    assert first is not None and first == check_proof(dag)
    assert not any(p is tampered for p in tables.checked.values())
    assert check_proof(dag, tables) == first


@pytest.mark.parametrize("where", ["inside", "after"])
def test_a_faulty_dead_subtree_fails_where_its_unshared_copy_does(where):
    # the child and the main thread both end in the dead `loop skip` after an
    # exit, which `derive` proves once; the fault is inside that shared
    # subtree, or in a copy of it after the shared object passed
    proof = verify(parse("fork { exit; loop skip }; exit; loop skip"))
    dead = [t for t in _occurrences(proof) if t.conclusion.pre is BOTTOM]
    shared = max(dead, key=lambda d: sum(e is d for e in dead))
    assert sum(d is shared for d in dead) == 2
    if where == "inside":
        dag = _substituted(proof, shared, _with_first_leaf_tampered(shared), {})
    else:
        dag = _with_last_leaf_tampered(proof)
    unshared = from_json_dict(reference_to_json_dict(dag, shared=False))
    assert len({id(t) for t in _occurrences(unshared)}) == tree_size(unshared) == tree_size(dag)
    violation = check_proof(dag)
    assert violation is not None
    assert violation == check_proof(dag, ThreadTables()) == check_proof(unshared)

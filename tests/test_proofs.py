import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import busycheck.assertions
import busycheck.lang
import busycheck.proofs
from busycheck.assertions import BOTTOM, OBS_ZERO, Flat, flat_add, state_assertion, view_shift
from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import (
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
    Rule,
    RuleViolation,
    ShiftData,
    check_proof,
    derive,
    from_json_dict,
    load_certificate,
    save_certificate,
    to_json_dict,
    verify,
)
from busycheck.proofs import _wrap
from busycheck.semantics import explore, spawn_tree
from reference import tree_size

WAITING_PAIR = parse("fork { exit }; loop skip")
TWO_LEVEL = parse("fork { fork { loop skip }; exit }; loop skip")


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
            assert json.load(fh) == to_json_dict(tree), pretty(c)
        loaded = load_certificate(path)
        assert loaded == tree, pretty(c)
        assert check_proof(loaded) is None, pretty(c)
    # too deep for `==` on trees: the loaded tree writes the same certificate
    tree = verify(_waiters(400))
    save_certificate(tree, path)
    loaded = load_certificate(path)
    assert to_json_dict(loaded) == to_json_dict(tree)
    assert check_proof(loaded) is None


def test_certificates_up_to_6_atoms_are_pinned_and_round_trip():
    # sha256 over the text `save_certificate` writes for every Verified
    # program of up to 6 atoms, in enumeration order; the same loop over 7
    # atoms gives 5cb01b9170bd47b6303824c5708b3cfdfd52067e2aad7fae0c336db82a6a0a6b
    digest = hashlib.sha256()
    for c in enumerate_programs(6):
        tree = verify(c)
        if tree is None:
            continue
        cert = to_json_dict(tree)
        digest.update((json.dumps(cert, separators=(",", ":")) + "\n").encode())
        assert to_json_dict(from_json_dict(cert)) == cert, pretty(c)
    assert digest.hexdigest() == "3359f0d7c5517d863a24f20bed1955d2f1865e96494275391848b3120988a58d"


def test_certificate_is_single_line_and_linear_in_size(tmp_path):
    sizes = []
    for n in (400, 800):
        path = tmp_path / f"cert{n}.json"
        save_certificate(verify(_waiters(n)), str(path))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        sizes.append(len(text))
    # 177,545 and 358,557 bytes; the nested format took 3.46 MB at n = 400
    assert sizes[0] < 200_000 and sizes[1] <= 2.1 * sizes[0]


def _subterms(cmd):
    stack = [cmd]
    while stack:
        x = stack.pop()
        yield x
        stack += [getattr(x, f.name) for f in dataclasses.fields(x)]


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
        for x in terms:
            assert objects.setdefault(x, x) is x


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


def test_verify_succeeds_exactly_when_the_spawn_tree_does_not_diverge():
    # completeness of the six rules for this language, up to 7 atoms
    for c in enumerate_programs(7):
        assert (verify(c) is None) == spawn_tree(c).diverges, pretty(c)


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

import random

import pytest

from busycheck.harness import GenConfig, enumerate_programs, gen_program
from busycheck.lang import (
    DONE,
    EXIT,
    Done,
    Fork,
    LOOP_SKIP,
    ParseError,
    Printer,
    Seq,
    SeqCont,
    normalize,
    parse,
    pretty,
    spells,
    to_continuation,
)


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


def cont_atoms(k):
    out = []
    while isinstance(k, SeqCont):
        out.append(k.head)
        k = k.tail
    return out


def test_parse_waiting_pair():
    assert parse("fork { exit }; loop skip") == Seq(Fork(EXIT), LOOP_SKIP)


def test_parse_single_atom():
    assert parse("exit") == EXIT


def test_parse_two_level_fork():
    expected = Seq(Fork(Seq(Fork(LOOP_SKIP), EXIT)), LOOP_SKIP)
    assert parse("fork { fork { loop skip }; exit }; loop skip") == expected


def test_parse_ignores_whitespace_and_comments():
    text = """
    fork {        # spawn the exiting thread
        exit
    } ;
    loop skip     # busy-wait for it
    """
    assert parse(text) == Seq(Fork(EXIT), LOOP_SKIP)


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("fork { exit ", 1, 13),
        ("loop", 1, 5),
        ("exit; loop slip", 1, 12),
        ("exit exit", 1, 6),
        ("fork { } ", 1, 8),
    ],
)
def test_parse_errors_carry_position(text, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.col == col


def test_parse_error_reports_offending_token():
    with pytest.raises(ParseError, match="'slip'"):
        parse("loop slip")


def test_pretty_round_trips_the_examples():
    assert pretty(Seq(Fork(EXIT), LOOP_SKIP)) == "fork { exit }; loop skip"
    assert pretty(LOOP_SKIP) == "loop skip"
    assert pretty(Fork(LOOP_SKIP)) == "fork { loop skip }"


def test_normalize_right_associates():
    a, b, d = EXIT, LOOP_SKIP, EXIT
    assert normalize(Seq(Seq(a, b), d)) == Seq(a, Seq(b, d))


def test_normalize_reaches_fork_bodies():
    c = Fork(Seq(Seq(EXIT, LOOP_SKIP), EXIT))
    assert normalize(c) == Fork(Seq(EXIT, Seq(LOOP_SKIP, EXIT)))


def test_to_continuation_atoms():
    assert to_continuation(EXIT) == SeqCont(EXIT, DONE)
    assert to_continuation(Seq(EXIT, LOOP_SKIP)) == SeqCont(EXIT, SeqCont(LOOP_SKIP, DONE))


def _append(k, tail):
    if isinstance(k, Done):
        return tail
    return SeqCont(k.head, _append(k.tail, tail))


def _cont_oracle(c):
    # structural recursion that appends continuations, independent of the
    # flattening done by to_continuation
    if isinstance(c, Seq):
        return _append(_cont_oracle(c.first), _cont_oracle(c.second))
    return SeqCont(c, DONE)


def test_to_continuation_flattens_left_nesting():
    a, b, d = EXIT, LOOP_SKIP, EXIT
    c = Seq(Seq(a, b), d)
    expected = SeqCont(a, SeqCont(b, SeqCont(d, DONE)))
    assert _cont_oracle(c) == expected
    assert to_continuation(c) == expected


def _generated_commands(seed=0, count=150, max_atoms=9):
    return gen_program(GenConfig(max_atoms=max_atoms, seed=seed, count=count))


def test_round_trip_property():
    for c in _generated_commands(seed=3):
        assert parse(pretty(c)) == normalize(c)


def _reference_atom(a):
    if isinstance(a, Fork):
        return "fork { %s }" % _reference_pretty(a.body)
    return "exit" if a == EXIT else "loop skip"


def _reference_pretty(c):
    # the printer without a memo: the spine's atoms joined one by one
    return "; ".join(_reference_atom(a) for a in seq_atoms(c))


def _reference_continuation(k):
    return ";".join([_reference_atom(a) for a in cont_atoms(k)] + ["done"])


def _subterms(c):
    out, stack = [], [c]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Seq):
            stack += [node.first, node.second]
        elif isinstance(node, Fork):
            stack.append(node.body)
    return out


def _suffixes(k):
    out = []
    while isinstance(k, SeqCont):
        out.append(k)
        k = k.tail
    return out + [k]


def test_shared_printer_matches_the_unmemoized_printer():
    left_nested = Seq(Seq(Fork(Seq(EXIT, LOOP_SKIP)), EXIT), Seq(Seq(LOOP_SKIP, EXIT), EXIT))
    for seed, c in enumerate(_generated_commands(seed=6) + [left_nested]):
        rng = random.Random(seed)
        commands = _subterms(c)
        conts = [k for d in commands for k in _suffixes(to_continuation(d))]
        rng.shuffle(commands)
        rng.shuffle(conts)
        printer = Printer()
        for d in commands:
            assert pretty(d) == _reference_pretty(d)
        for k in conts + conts:  # the second round reads the memo only
            assert printer.continuation(k) == _reference_continuation(k)


def test_normalize_idempotent_property():
    for c in _generated_commands(seed=4):
        once = normalize(c)
        assert normalize(once) == once


def _reference_normalize(c):
    # the recursive rotation normalizer, independent of the iterative one
    while isinstance(c, Seq) and isinstance(c.first, Seq):
        c = Seq(c.first.first, Seq(c.first.second, c.second))
    if isinstance(c, Seq):
        return Seq(_reference_normalize(c.first), _reference_normalize(c.second))
    if isinstance(c, Fork):
        return Fork(_reference_normalize(c.body))
    return c


def _reassociated(rng, c):
    """c with every sequence regrouped at random (and fork bodies too)."""
    atoms = [Fork(_reassociated(rng, a.body)) if isinstance(a, Fork) else a for a in seq_atoms(c)]

    def group(lo, hi):
        if hi - lo == 1:
            return atoms[lo]
        mid = rng.randint(lo + 1, hi - 1)
        return Seq(group(lo, mid), group(mid, hi))

    return group(0, len(atoms))


def test_normal_programs_normalize_to_themselves():
    count = 0
    for c in enumerate_programs(5):
        parsed = parse(pretty(c))
        assert normalize(parsed) is parsed
        assert normalize(c) is c
        count += 1
    assert count == 514


def test_normalize_matches_the_recursive_reference_on_regrouped_programs():
    rng = random.Random(11)
    for c in _generated_commands(seed=8, max_atoms=14):
        regrouped = _reassociated(rng, c)
        once = normalize(regrouped)
        assert once == _reference_normalize(regrouped) == c
        assert normalize(once) is once


def test_normalize_takes_10000_deep_fork_chains():
    normal = EXIT
    for _ in range(10_000):
        normal = Fork(normal)
    assert normalize(normal) is normal
    skewed = Seq(Seq(EXIT, LOOP_SKIP), EXIT)  # the rebuild path, at every level
    for _ in range(10_000):
        skewed = Fork(skewed)
    out = normalize(skewed)
    for _ in range(10_000):
        assert isinstance(out, Fork) and out is not skewed
        out, skewed = out.body, skewed.body
    assert out == Seq(EXIT, Seq(LOOP_SKIP, EXIT))


def test_to_continuation_takes_10000_atom_sequences():
    c = EXIT
    for _ in range(10_000):
        c = Seq(c, LOOP_SKIP)  # left-nested: deep on the first side
    assert len(cont_atoms(to_continuation(c))) == 10_001


def test_spells_agrees_with_building_the_continuation():
    programs = list(enumerate_programs(4))
    rng = random.Random(2)
    for c in programs:
        k = to_continuation(c)
        assert spells(k, c)
        assert spells(to_continuation(parse(pretty(c))), c)  # equal, not shared
        other = rng.choice(programs)
        assert spells(to_continuation(other), c) == (other == c)
    assert spells(to_continuation(Seq(Seq(EXIT, LOOP_SKIP), EXIT)), parse("exit; loop skip; exit"))


def test_to_continuation_length_matches_atom_count():
    for c in _generated_commands(seed=5):
        cont = to_continuation(normalize(c))
        assert len(cont_atoms(cont)) == len(seq_atoms(normalize(c)))
        assert to_continuation(normalize(c)) == _cont_oracle(c)

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
    parse,
    pretty,
    seq_of,
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


def test_seq_refuses_a_seq_as_its_first_part():
    with pytest.raises(ValueError, match="the first part of a seq is a seq"):
        Seq(Seq(EXIT, LOOP_SKIP), EXIT)


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


def _generated_commands(seed=0, count=150, max_atoms=9):
    return gen_program(GenConfig(max_atoms=max_atoms, seed=seed, count=count))


def test_round_trip_property():
    for c in _generated_commands(seed=3):
        assert parse(pretty(c)) == c
    small = list(enumerate_programs(5))
    assert len(small) == 514
    for c in small:
        assert parse(pretty(c)) == c


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
    for seed, c in enumerate(_generated_commands(seed=6)):
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


def test_to_continuation_takes_10000_atom_sequences():
    c = seq_of([EXIT] + [LOOP_SKIP] * 10_000)
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


def test_to_continuation_length_matches_atom_count():
    for c in _generated_commands(seed=5):
        cont = to_continuation(c)
        assert len(cont_atoms(cont)) == len(seq_atoms(c))
        assert cont == _cont_oracle(c)

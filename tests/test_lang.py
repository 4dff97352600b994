import random

import pytest

from busycheck.assertions import BOTTOM, Flat
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
    parse,
    pretty,
    same_command,
    seq_of,
)
from busycheck.semantics import AbruptExit, Terminated


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
    """The atoms a thread that has `k` left runs, one `head` per `tail` step."""
    out = []
    while not isinstance(k, Done):
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
        ("exit; 5", 1, 7),  # a character outside the grammar
        ("ex\u00b2t", 1, 3),  # a numeral that is not a letter, inside a word
        ("fork { exit }; \u03bb\u03cc\u03b3\u03bf\u03c2", 1, 16),  # a word of non-ASCII letters
        ("exit \u00a0 exit", 1, 8),  # NBSP counts one column
        ("loop\u2003skip;\u00a0\u00a0exi", 1, 13),
        ("exit;\r\nloop slip", 2, 6),  # `\r` is whitespace, `\n` starts line 2
        ("fork { exit # c", 1, 13),  # end of input after a comment sits at its `#`
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
    with pytest.raises(ParseError, match="^1:3: unexpected character '\u00b2'$"):
        parse("ex\u00b2t")


def test_pretty_round_trips_the_examples():
    assert pretty(Seq(Fork(EXIT), LOOP_SKIP)) == "fork { exit }; loop skip"
    assert pretty(LOOP_SKIP) == "loop skip"
    assert pretty(Fork(LOOP_SKIP)) == "fork { loop skip }"


def test_seq_refuses_a_seq_as_its_first_part():
    with pytest.raises(ValueError, match="the first part of a seq is a seq"):
        Seq(Seq(EXIT, LOOP_SKIP), EXIT)


def test_head_and_tail_of_atoms_and_seqs():
    for atom in (EXIT, LOOP_SKIP, Fork(EXIT)):
        assert atom.head is atom and atom.tail is DONE
    c = Seq(Fork(EXIT), Seq(EXIT, LOOP_SKIP))
    assert c.head is c.first and c.tail is c.second


def _atoms_oracle(c):
    # structural recursion over the seq tree, independent of head and tail
    if isinstance(c, Seq):
        return _atoms_oracle(c.first) + _atoms_oracle(c.second)
    return [c]


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
    while not isinstance(k, Done):
        out.append(k)
        k = k.tail
    return out + [k]


def test_shared_printer_matches_the_unmemoized_printer():
    for seed, c in enumerate(_generated_commands(seed=6)):
        rng = random.Random(seed)
        commands = _subterms(c)
        conts = [k for d in commands for k in _suffixes(d)]
        rng.shuffle(commands)
        rng.shuffle(conts)
        printer = Printer()
        for d in commands:
            assert pretty(d) == _reference_pretty(d)
        for k in conts + conts:  # the second round reads the memo only
            assert printer.continuation(k) == _reference_continuation(k)


def test_tail_walk_takes_10000_atom_sequences():
    c = seq_of([EXIT] + [LOOP_SKIP] * 10_000)
    assert len(cont_atoms(c)) == 10_001
    assert Printer().continuation(c) == ";".join(["exit"] + ["loop skip"] * 10_000 + ["done"])


def test_same_command_agrees_with_equality():
    programs = list(enumerate_programs(4))
    rng = random.Random(2)
    for c in programs:
        assert same_command(c, c)
        twin = parse(pretty(c))  # equal; not shared, but for the atom singletons
        assert same_command(twin, c)
        other = rng.choice(programs)
        assert same_command(other, c) == (other == c)
    assert not same_command(DONE, EXIT) and not same_command(EXIT, DONE)
    # commands, Bottom and run outcomes stay dataclasses: as tuples, the
    # fieldless ones would all equal (), and Terminated(3) would equal AbruptExit(3)
    assert EXIT != LOOP_SKIP and EXIT != DONE and LOOP_SKIP != ()
    assert BOTTOM != () and BOTTOM != Flat((), 0)
    assert Terminated(3) != AbruptExit(3)


def test_same_command_takes_10000_levels():
    def nest(inner):
        c = inner
        for _ in range(10_000):
            c = Seq(Fork(c), LOOP_SKIP)
        return c

    assert same_command(nest(EXIT), nest(EXIT))
    assert not same_command(nest(EXIT), nest(LOOP_SKIP))


def test_head_and_tail_walk_the_spine():
    for c in _generated_commands(seed=5):
        assert cont_atoms(c) == seq_atoms(c) == _atoms_oracle(c)
        suffixes = _suffixes(c)
        assert suffixes[0] is c and suffixes[-1] is DONE
        assert all(s.tail is t for s, t in zip(suffixes, suffixes[1:]))

import gc
import random
import re
import weakref

import pytest

from busycheck.assertions import BOTTOM, Flat
import busycheck.lang as lang
from busycheck.harness import GenConfig, enumerate_programs, gen_program, soundness_campaign
from busycheck.lang import (
    DONE,
    EXIT,
    Done,
    Exit,
    Fork,
    LOOP_SKIP,
    LoopSkip,
    ParseError,
    Printer,
    Seq,
    parse,
    pretty,
    seq_of,
)
from busycheck.semantics import AbruptExit, Terminated
from reference import reference_parse, structurally_equal


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


_BAD_INPUTS = [
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
]


@pytest.mark.parametrize("text,line,col", _BAD_INPUTS)
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


# Pieces the corpus splices into program text: keywords, punctuation, line
# breaks and other whitespace, characters outside the grammar (a numeral that
# is not a letter, a digit that is not ASCII, `_`, an emoji), a non-ASCII
# word, and comments.
_PIECES = [
    "exit", "loop", "skip", "fork", "{", "}", ";", " ", "\n", "\r\n", "\t", "\u00a0", "\u2028",
    "\u00b2", "\u0663", "_", "\U0001f600", "\u03bb\u03cc\u03b3\u03bf\u03c2", "x", "# c", "#", "# c\n",
]


def _parser_corpus():
    """Program texts, most of them one to three edits away from a valid program."""
    rng = random.Random(18)
    yield from ["", "#", "# c", "exit # c", "exit # c\n", "fork { exit # c", "fork { exit #", "loop # c\nskip"]
    for c in gen_program(GenConfig(max_atoms=6, fork_prob=2.0, seed=18, count=300)):
        text = pretty(c)
        yield text
        for _ in range(4):
            edited = text
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(edited))
                cut = rng.choice([0, 0, 1, rng.randint(1, 6)])
                edited = edited[:at] + rng.choice(_PIECES + [""]) + edited[at + cut :]
            yield edited
    for _ in range(1000):
        yield "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 12)))


# what a ParseError says, without the token it found
_ERROR_KIND = re.compile(
    r"\d+:\d+: (unexpected character|expected (?:'exit', 'loop skip', or 'fork'|'.*?'|end of input))"
)


def _parsed(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.line, err.col


def test_parse_agrees_with_the_reference_parser():
    # the same command, or the same error text, line and column
    seen = {}
    for text in _parser_corpus():
        got = _parsed(parse, text)
        assert got == _parsed(reference_parse, text), repr(text)
        kind = _ERROR_KIND.match(got[0]).group(1) if isinstance(got, tuple) else "parsed"
        seen[kind] = seen.get(kind, 0) + 1
    # a character outside the grammar, and each token the parser expects
    assert len(seen) == 7 and min(seen.values()) >= 20, seen


def _layouts(c):
    """`c` printed spaced, compact (no optional space) and one atom per line."""
    spaced = pretty(c)
    compact = spaced.replace(" {", "{").replace("{ ", "{").replace(" }", "}").replace("; ", ";")
    return spaced, compact, spaced.replace("{ ", "{\n").replace(" }", "\n}").replace("; ", ";\n")


# Comments, a numeral that is not a letter, digits, `_`, and these next to
# words and tabs.
_NOT_LETTERS = [
    "exit # c", "# c\nexit", "fork { exit }; # c\nloop skip", "fork {\texit } # }\n; loop skip",
    "ex\u00b2t", "fork { exit\u00b2 }; loop skip", "exit; 5", "exit5", "loop\t1skip",
    "fork_{ exit }; loop skip", "exit;\t_loop skip", "fo\trk { ex_it }",
]


def test_every_layout_of_small_programs_agrees_with_the_reference_parser():
    # spaced, compact and one atom per line, each gives the same command
    programs = 0
    for c in enumerate_programs(6):
        for text in _layouts(c):
            assert parse(text) is c and reference_parse(text) is c, repr(text)
        programs += 1
    assert programs > 2000
    for text in ["ex\tit", "loop\tskip", "exit exit", "fork{}", "", "loop slip", "fork { exit ; } loop"]:
        assert _parsed(parse, text) == _parsed(reference_parse, text), repr(text)


def test_text_beyond_letters_agrees_with_the_reference_parser():
    for text in _NOT_LETTERS + [text for text, _, _ in _BAD_INPUTS]:
        assert _parsed(parse, text) == _parsed(reference_parse, text), repr(text)


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
        assert parse(pretty(c)) is c
    small = list(enumerate_programs(5))
    assert len(small) == 514
    for c in small:
        assert parse(pretty(c)) is c


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


def test_identity_is_structural_equality():
    # every pair of programs of up to 5 atoms, and generated programs against
    # a random one of those and against their twins read back by the tests'
    # own parser, which builds its own commands
    small = list(enumerate_programs(5))
    for a in small:
        for b in small:
            assert (a is b) == structurally_equal(a, b)
    rng = random.Random(2)
    for seed in range(4):
        for c in _generated_commands(seed=seed, count=60):
            twin = reference_parse(pretty(c))
            assert twin is c and twin == c and hash(twin) == hash(c)
            other = rng.choice(small)
            assert (other is c) == structurally_equal(other, c) == (other == c)
    assert Exit() is EXIT and LoopSkip() is LOOP_SKIP and Fork(EXIT) is Fork(Exit())
    assert not structurally_equal(DONE, EXIT) and not structurally_equal(EXIT, DONE)


def test_commands_and_records_tell_types_apart():
    # commands compare by identity, and Bottom and run outcomes stay
    # dataclasses: as tuples, the fieldless ones would all equal (), and
    # Terminated(3) would equal AbruptExit(3)
    assert EXIT != LOOP_SKIP and EXIT != DONE and LOOP_SKIP != ()
    assert BOTTOM != () and BOTTOM != Flat((), 0)
    assert Terminated(3) != AbruptExit(3)


def test_commands_are_immutable():
    c = Seq(Fork(EXIT), LOOP_SKIP)
    for name in ("first", "second", "head", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, EXIT)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c.first is Fork(EXIT) and c.second is LOOP_SKIP


def _fork_nest(depth):
    c = EXIT
    for _ in range(depth):
        c = Fork(c)
    return c


@pytest.mark.parametrize(
    "build",
    [lambda: _fork_nest(100_000), lambda: seq_of([Fork(EXIT)] * 99_999 + [LOOP_SKIP])],
    ids=["fork-nest", "spine"],
)
def test_hash_equality_and_repr_take_100000_levels_or_atoms(build):
    c = build()
    assert hash(c) == hash(build()) and c == build()
    assert c != _fork_nest(3) and hash(c) != hash(_fork_nest(3))
    text = repr(c)
    assert text == f"parse({pretty(c)!r})" and eval(text, {"parse": parse}) is c


def _live_table_size():
    gc.collect()
    lang._sweep()
    return len(lang._table)


def test_the_intern_table_holds_its_commands_weakly():
    before = _live_table_size()
    program = parse("; ".join(["fork { exit }", "loop skip"] * 5_000))  # 10,000 atoms
    assert _live_table_size() > before + 9_900  # its 9,999 seqs, but for those other tests hold
    dropped = weakref.ref(program)
    del program
    soundness_campaign(GenConfig(count=50), 3)
    assert dropped() is None
    assert _live_table_size() == before


def test_head_and_tail_walk_the_spine():
    for c in _generated_commands(seed=5):
        assert cont_atoms(c) == seq_atoms(c) == _atoms_oracle(c)
        suffixes = _suffixes(c)
        assert suffixes[0] is c and suffixes[-1] is DONE
        assert all(s.tail is t for s, t in zip(suffixes, suffixes[1:]))

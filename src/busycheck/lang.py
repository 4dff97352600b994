"""AST, parser, and printer for the busy-waiting toy language.

The language has exactly four constructs: ``exit`` (abruptly terminates the
whole program), ``loop skip`` (busy-wait forever), ``fork { c }`` (spawn a
thread), and right-associative sequencing ``c ; c``.  Sequences are
right-associated by construction (a `Seq` whose first part is a `Seq` raises
ValueError), so a command is a chain of atoms, and each suffix of that chain
is again a command.  A running thread is what is left of its command: such a
suffix, whose `head` atom runs next and whose `tail` is the rest, or `DONE`
once nothing is left.

Commands are immutable and hash-consed (Filliâtre & Conchon, ML Workshop
2006): `Fork(b)` and `Seq(a, b)` return the live command with those parts if
there is one, and `Exit()` and `LoopSkip()` the singletons.  So equal commands
are one object, and `==` and `hash` are `object`'s, O(1) at any depth.  The
intern table keys a command by the ids of its parts, which it keeps alive, and
holds it by weak reference: a dead entry costs what a missing one does, and is
replaced or swept once the table has doubled.  It takes no lock.

Each command also carries its feasibility pair, two read-only fields set in
O(1) when it is built: `absorbing` (some thread of its spawn tree stops at
`exit`) and `need` (how many threads stop at `loop skip`).  `exit` is
(True, 0), `loop skip` (False, 1) and `DONE` (False, 0); `fork { b }` takes
b's pair; `a; r` takes a's pair when a is `exit` or `loop skip`, and
(A_a or A_r, N_a + N_r) when a is a fork.  `proofs` reads them.

Concrete grammar (whitespace-insensitive, ``#`` comments to end of line)::

    cmd  ::= atom (";" cmd)?
    atom ::= "exit" | "loop" "skip" | "fork" "{" cmd "}"

`parse` lexes by dropping comments, spacing out `{};` and calling
`str.split`, and reads the tokens' texts in one loop, without recursion;
only an error works out where it stands.
"""

from __future__ import annotations

import re
import weakref
from itertools import compress
from typing import Any, Callable, Sequence


# --- threads ---------------------------------------------------------------


class Done:
    """What a thread has left to run once it has run all its atoms."""

    __slots__ = ()
    absorbing, need = False, 0


DONE = Done()


# --- commands ---------------------------------------------------------------


class Command:
    """Base class of command AST nodes.

    `head` is the atom that runs first and `tail` what is left to run after
    it.  An atom is its own head and leaves `DONE`; a `Seq`'s are its two
    parts.  Every step and every proof node reads them.
    """

    __slots__ = ()
    head: Command
    tail: Continuation
    absorbing: bool
    need: int

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"parse({pretty(self)!r})"


class _Atom(Command):
    __slots__ = ()
    tail = DONE

    def __new__(cls) -> _Atom:  # `Exit()` and `LoopSkip()`: their singletons
        return _SINGLETONS[cls]

    @property
    def head(self) -> Command:  # type: ignore[override]
        return self


class Exit(_Atom):
    __slots__ = ()
    absorbing, need = True, 0


class LoopSkip(_Atom):
    __slots__ = ()
    absorbing, need = False, 1


_SINGLETONS = {cls: object.__new__(cls) for cls in (Exit, LoopSkip)}
EXIT, LOOP_SKIP = _SINGLETONS.values()

# id(body) of a fork, id(first) << 64 | id(second) of a seq (ids are below 2**64,
# so no two keys meet) -> a weak reference to it
_table: dict[int, weakref.ref] = {}
_DEAD = weakref.ref(set())  # its set is gone: calling it gives None, as for a missing key
_limit = 1024  # the size past which the next new entry sweeps the table


def _sweep() -> None:
    """Keep the entries of live commands only, in C loops, and allow twice as many."""
    global _table, _limit
    _table = dict(compress(_table.items(), map(weakref.ref.__call__, _table.values())))
    _limit = max(1024, 2 * len(_table))


class Fork(_Atom):
    __slots__ = ("body", "absorbing", "need", "__weakref__")

    def __new__(cls, body: Command) -> Fork:
        key = id(body)
        self = _table.get(key, _DEAD)()
        if self is None:
            self = object.__new__(cls)
            _set_body(self, body)
            _set_fork_absorbing(self, body.absorbing)
            _set_fork_need(self, body.need)
            _table[key] = weakref.ref(self)
            if len(_table) > _limit:
                _sweep()
        return self


class Seq(Command):
    """`first; second`, right-associated: `first` is an atom."""

    __slots__ = ("first", "second", "absorbing", "need", "__weakref__")

    def __new__(cls, first: Command, second: Command) -> Seq:
        key = id(first) << 64 | id(second)
        self = _table.get(key, _DEAD)()
        if self is None:
            if isinstance(first, Seq):
                raise ValueError("the first part of a seq is a seq")
            self = object.__new__(cls)
            _set_first(self, first)
            _set_second(self, second)
            rest = second if type(first) is Fork else DONE  # nothing runs after `exit` or `loop skip`
            _set_seq_absorbing(self, first.absorbing or rest.absorbing)
            _set_seq_need(self, first.need + rest.need)
            _table[key] = weakref.ref(self)
            if len(_table) > _limit:
                _sweep()
        return self


_set_body = Fork.body.__set__  # type: ignore[attr-defined]
_set_fork_absorbing, _set_fork_need = Fork.absorbing.__set__, Fork.need.__set__  # type: ignore[attr-defined]
_set_first, _set_second = Seq.first.__set__, Seq.second.__set__  # type: ignore[attr-defined]
_set_seq_absorbing, _set_seq_need = Seq.absorbing.__set__, Seq.need.__set__  # type: ignore[attr-defined]
# The slots' own descriptors read `first` and `second` under the names `head`
# and `tail` too, at the cost of a plain attribute.
Seq.head, Seq.tail = Seq.first, Seq.second  # type: ignore[attr-defined]


def seq_of(atoms: list[Command]) -> Command:
    """Right-associated sequence of the given atoms (must be non-empty)."""
    if not atoms:
        raise ValueError("a command has at least one atom")
    cmd = atoms[-1]
    for a in reversed(atoms[:-1]):
        cmd = Seq(a, cmd)
    return cmd


Continuation = Command | Done  # what a thread has left to run


def spine(c: Command):
    """The atoms of `c` in execution order."""
    while isinstance(c, Seq):
        yield c.first
        c = c.second
    yield c


# --- parser ---------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _error_at(message: str, text: str, offset: int) -> ParseError:
    """The error at `offset` in `text`, by 1-based line and column; only a newline starts a line."""
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


# An error's re-scan: a comment, `{};`, a word, or any other character.
# `[^\W\d_]` also takes the numerals that are not letters (e.g. `²`), so a
# word that is not all letters holds an unexpected character.
_LEXEME = re.compile(r"#[^\n]*|[;{}]|[^\W\d_]+|\S")
_COMMENT = re.compile(r"#[^\n]*")


def _error(text: str, at: int, expected: str) -> ParseError:
    """The error `parse` raises on token number `at`, comments not counted.

    A character outside the grammar anywhere in `text` is reported first, as
    if the text were lexed before it is parsed.  End of input after a
    trailing comment sits at its `#`.
    """
    offset, found, count = len(text), "end of input", 0
    for m in _LEXEME.finditer(text):
        lexeme = m.group()
        if lexeme[0] == "#":
            if m.end() == len(text) and count == at:
                offset = m.start()
        elif lexeme in ";{}" or lexeme.isalpha():
            if count == at:
                offset, found = m.start(), lexeme
            count += 1
        else:
            offset = m.start() + next(i for i, ch in enumerate(lexeme) if not ch.isalpha())
            return _error_at(f"unexpected character {text[offset]!r}", text, offset)
    return _error_at(f"expected {expected}, found {found!r}", text, offset)


def parse(text: str) -> Command:
    """Parse a program into the command it spells, atoms in source order.

    `open_seqs` holds, for each fork whose body is being read, the atoms read
    so far around that fork.  On text of letters the split gives the
    re-scan's words, as both split at the same whitespace; any other
    character lands in a token that is no keyword, so `parse` fails, and the
    re-scan reports the first such character."""
    tokens = _COMMENT.sub("", text).replace("{", " { ").replace("}", " } ").replace(";", " ; ").split()
    tokens.append("")  # end of input
    open_seqs: list[list[Command]] = []
    atoms: list[Command] = []
    at = 0
    while True:
        token = tokens[at]
        if token == "fork":
            if tokens[at + 1] != "{":
                raise _error(text, at + 1, "'{'")
            open_seqs.append(atoms)
            atoms = []
            at += 2
            continue
        if token == "exit":
            atoms.append(EXIT)
            at += 1
        elif token == "loop":
            if tokens[at + 1] != "skip":
                raise _error(text, at + 1, "'skip'")
            atoms.append(LOOP_SKIP)
            at += 2
        else:
            raise _error(text, at, "'exit', 'loop skip', or 'fork'")
        while tokens[at] != ";":
            if not open_seqs:
                if tokens[at]:
                    raise _error(text, at, "end of input")
                return seq_of(atoms)
            if tokens[at] != "}":
                raise _error(text, at, "'}'")
            at += 1
            body = seq_of(atoms)
            atoms = open_seqs.pop()
            atoms.append(Fork(body))
        at += 1


# --- printer ---------------------------------------------------------------


class Printer:
    """Concrete syntax of what threads have left to run, memoized by node
    identity.

    One printer serves one trace, whose steps reuse the tails of commands.
    Printing a command as a thread records, for every spine suffix on it,
    where its own text starts inside the command's text, so a later print
    of any suffix is one lookup and one slice, and the memo stays linear in
    the distinct suffixes.  `each` memoizes a trace's `(tid, entry)` pairs
    by id, and holds them, so no id is reused while the printer lives.
    """

    def __init__(self) -> None:
        self._memo: dict[Continuation, tuple[str, int]] = {DONE: ("done", 0)}  # suffix -> (text, start)
        self._texts: dict[int, str] = {}  # id -> text, for the items `each` rendered
        self._held: list[object] = []  # those items, so their ids stay theirs

    def each(self, items: Sequence[object], render: Callable[[Any], str]) -> list[str]:
        """`render(item)` for each item, computed once per item object; the
        lookups of items rendered before run without a Python loop."""
        texts = list(map(self._texts.get, map(id, items)))
        while None in texts:
            i = texts.index(None)
            texts[i] = self._texts[id(items[i])] = render(items[i])
            self._held.append(items[i])
        return texts

    def continuation(self, k: Continuation) -> str:
        """What a thread has left, atoms joined by `;` and an explicit `done`,
        e.g. `exit;done`."""
        suffixes, parts, memo = [], [], self._memo
        while k not in memo:
            suffixes.append(k)
            parts.append(pretty(k.head))
            k = k.tail
        text, start = memo[k]
        parts.append(text[start:])
        text = ";".join(parts)
        start = 0
        for suffix, part in zip(suffixes, parts):
            memo[suffix] = (text, start)
            start += len(part) + 1
        return text


def pretty(c: Command) -> str:
    """Concrete syntax for a command; parse(pretty(c)) is c.

    Iterative: `todo` holds the commands and texts still to print, next last.
    """
    out: list[str] = []
    todo: list[Command | str] = [c]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Seq):
            todo += (x.second, "; ", x.first)
        elif isinstance(x, Fork):
            todo += (" }", x.body, "fork { ")
        elif isinstance(x, Exit):
            out.append("exit")
        elif isinstance(x, LoopSkip):
            out.append("loop skip")
        else:
            raise TypeError(f"not a command: {x!r}")
    return "".join(out)

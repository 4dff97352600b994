"""AST, parser, and printer for the busy-waiting toy language.

The language has exactly four constructs: ``exit`` (abruptly terminates the
whole program), ``loop skip`` (busy-wait forever), ``fork { c }`` (spawn a
thread), and right-associative sequencing ``c ; c``.  Sequences are
right-associated by construction (a `Seq` whose first part is a `Seq` raises
ValueError), so a command is a chain of atoms, and each suffix of that chain
is again a command.  A running thread is what is left of its command: such a
suffix, whose `head` atom runs next and whose `tail` is the rest, or `DONE`
once nothing is left.

Concrete grammar (whitespace-insensitive, ``#`` comments to end of line)::

    cmd  ::= atom (";" cmd)?
    atom ::= "exit" | "loop" "skip" | "fork" "{" cmd "}"

`parse` lexes the text with one `findall` and reads the tokens' texts in one
loop, without recursion; only an error works out where it stands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence


# --- threads ---------------------------------------------------------------


@dataclass(frozen=True)
class Done:
    """What a thread has left to run once it has run all its atoms."""


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


class _Atom(Command):
    __slots__ = ()
    tail = DONE

    @property
    def head(self) -> Command:  # type: ignore[override]
        return self


@dataclass(frozen=True)
class Exit(_Atom):
    pass


@dataclass(frozen=True)
class LoopSkip(_Atom):
    pass


@dataclass(frozen=True)
class Fork(_Atom):
    body: Command


@dataclass(frozen=True)
class Seq(Command):
    """`first; second`, right-associated: `first` is an atom."""

    __slots__ = ("first", "second")
    first: Command
    second: Command

    def __post_init__(self) -> None:
        if isinstance(self.first, Seq):
            raise ValueError("the first part of a seq is a seq")


# The slots' own descriptors read `first` and `second` under the names `head`
# and `tail` too, at the cost of a plain attribute; they are not fields, so
# equality, hashing, `repr` and the certificate writer see only the two parts.
Seq.head, Seq.tail = Seq.first, Seq.second  # type: ignore[attr-defined]


EXIT = Exit()
LOOP_SKIP = LoopSkip()


def seq_of(atoms: list[Command]) -> Command:
    """Right-associated sequence of the given atoms (must be non-empty)."""
    if not atoms:
        raise ValueError("a command has at least one atom")
    cmd = atoms[-1]
    for a in reversed(atoms[:-1]):
        cmd = Seq(a, cmd)
    return cmd


Continuation = Command | Done  # what a thread has left to run


def same_command(a: Continuation, b: Continuation) -> bool:
    """`a == b` without recursion.  A pair of one object is equal at once, so
    two loaded (interned) commands that differ walk one path to a difference."""
    if a is b:
        return True
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Fork):
            todo.append((x.body, y.body))
        elif isinstance(x, Seq):
            todo += [(x.first, y.first), (x.second, y.second)]
        elif x != y:  # an atom, or not a command at all
            return False
    return True


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


# `findall` skips the whitespace between lexemes and gives each comment as ''.
# `[^\W\d_]` also takes the numerals that are not letters (e.g. `²`), so a
# word that is not all letters holds an unexpected character.
_LEXEME = re.compile(r"#[^\n]*|([;{}]|[^\W\d_]+|\S)")


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
    so far around that fork."""
    tokens = list(filter(None, _LEXEME.findall(text)))
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
    the distinct suffixes.  Each memo entry holds its suffix, so no id is
    reused while the printer lives.  `each` memoizes a trace's
    `(tid, entry)` pairs the same way.
    """

    def __init__(self) -> None:
        self._memo: dict[int, tuple[object, str, int]] = {}  # id -> (suffix, text, start)
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
        suffixes, parts = [], []
        while not isinstance(k, Done) and id(k) not in self._memo:
            suffixes.append(k)
            parts.append(pretty(k.head))
            k = k.tail
        if id(k) in self._memo:
            _, text, start = self._memo[id(k)]
            parts.append(text[start:])
        else:
            parts.append("done")
        text = ";".join(parts)
        start = 0
        for suffix, part in zip(suffixes, parts):
            self._memo[id(suffix)] = (suffix, text, start)
            start += len(part) + 1
        return text


def pretty(c: Command) -> str:
    """Concrete syntax for a command; parse(pretty(c)) == c.

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

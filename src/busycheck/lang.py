"""AST, parser, and printer for the busy-waiting toy language.

The language has exactly four constructs: ``exit`` (abruptly terminates the
whole program), ``loop skip`` (busy-wait forever), ``fork { c }`` (spawn a
thread), and right-associative sequencing ``c ; c``.  A running thread is a
continuation: a chain of atomic commands ending in ``done``.

Concrete grammar (whitespace-insensitive, ``#`` comments to end of line)::

    cmd  ::= atom (";" cmd)?
    atom ::= "exit" | "loop" "skip" | "fork" "{" cmd "}"
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence


class Command:
    """Base class of command AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Exit(Command):
    pass


@dataclass(frozen=True)
class LoopSkip(Command):
    pass


@dataclass(frozen=True)
class Fork(Command):
    body: Command

    @cached_property
    def thread(self) -> "Continuation":
        """The continuation `body;done` a forked thread starts with.

        Built once and kept on the node (commands are frozen), so every run
        that takes this fork, plain or annotated, starts the same object.
        """
        return to_continuation(self.body)


@dataclass(frozen=True)
class Seq(Command):
    first: Command
    second: Command


EXIT = Exit()
LOOP_SKIP = LoopSkip()


def normalize(c: Command) -> Command:
    """Right-associate sequencing: no Seq ever appears as the first child of a Seq.

    Fork bodies are normalized too.  Idempotent and iterative (any depth);
    a normal `c`, such as a parsed program, is returned as is.
    """
    if _is_normal(c):
        return c
    forks: list[Fork] = []  # every fork comes before the forks in its body
    stack = [c]
    while stack:
        for a in _spine(stack.pop()):
            if isinstance(a, Fork):
                forks.append(a)
                stack.append(a.body)
    normal: dict[int, Command] = {}  # id of a fork of c -> its normal form

    def rebuild(cmd: Command) -> Command:
        return seq_of([normal.get(id(a), a) for a in _spine(cmd)])

    for f in reversed(forks):
        normal[id(f)] = Fork(rebuild(f.body))
    return rebuild(c)


def _is_normal(c: Command) -> bool:
    """No Seq is the first child of a Seq, in `c` or in any fork body."""
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            first = node.first
            if isinstance(first, Seq):
                return False
            if isinstance(first, Fork):
                stack.append(first.body)
            stack.append(node.second)
        elif isinstance(node, Fork):
            stack.append(node.body)
    return True


def seq_of(atoms: list[Command]) -> Command:
    """Right-associated sequence of the given atoms (must be non-empty)."""
    if not atoms:
        raise ValueError("a command has at least one atom")
    cmd = atoms[-1]
    for a in reversed(atoms[:-1]):
        cmd = Seq(a, cmd)
    return cmd


# --- continuations ---------------------------------------------------------


class Continuation:
    __slots__ = ()


@dataclass(frozen=True)
class Done(Continuation):
    pass


@dataclass(frozen=True)
class SeqCont(Continuation):
    head: Command  # always atomic: Exit, LoopSkip, or Fork
    tail: Continuation


DONE = Done()


def to_continuation(c: Command, tail: Continuation = DONE) -> Continuation:
    """Turn a command into the continuation ``c;done``.

    Nested Seq is flattened so every SeqCont head is atomic.  Iterative, so
    any length and nesting of sequences works.
    """
    for a in reversed(list(_spine(c))):
        tail = SeqCont(a, tail)
    return tail


def spells(k: Continuation, c: Command) -> bool:
    """True iff `k == to_continuation(c)`, decided without building the latter.

    Iterative; each head is compared with its atom by identity first, so a
    continuation built from `c` itself is checked in one pass over its cells.
    """
    for a in _spine(c):
        if not isinstance(k, SeqCont) or (k.head is not a and k.head != a):
            return False
        k = k.tail
    return isinstance(k, Done)


def _spine(c: Command):
    """The atoms of `c` in execution order, however its sequences nest."""
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            yield node


# --- parser ---------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # 'word', 'punct', 'eof'
    text: str
    line: int
    col: int


_PUNCT = {";", "{", "}"}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
        elif ch.isalpha():
            start = i
            startcol = col
            while i < n and text[i].isalpha():
                i += 1
                col += 1
            tokens.append(_Token("word", text[start:i], line, startcol))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> None:
        self.pos += 1

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(f"expected {expected}, found {shown!r}", tok.line, tok.col)

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.error(f"'{text}'")
        self.next()

    def command(self) -> Command:
        """`cmd`, read without recursion: `open_seqs` holds, for each fork
        whose body is being read, the atoms read so far around that fork."""
        open_seqs: list[list[Command]] = []
        atoms: list[Command] = []
        while True:
            if self.peek().text == "fork":
                self.next()
                self.expect("{")
                open_seqs.append(atoms)
                atoms = []
                continue
            atoms.append(self.atom())
            while self.peek().text != ";":
                if not open_seqs:
                    return seq_of(atoms)
                self.expect("}")
                body = seq_of(atoms)
                atoms = open_seqs.pop()
                atoms.append(Fork(body))
            self.next()

    def atom(self) -> Command:
        """An atom other than a fork, which `command` reads."""
        tok = self.peek()
        if tok.text == "exit":
            self.next()
            return EXIT
        if tok.text == "loop":
            self.next()
            self.expect("skip")
            return LOOP_SKIP
        raise self.error("'exit', 'loop skip', or 'fork'")


def parse(text: str) -> Command:
    """Parse a program; the result is right-associated by construction."""
    parser = _Parser(_tokenize(text))
    cmd = parser.command()
    if parser.peek().kind != "eof":
        raise parser.error("end of input")
    return cmd


# --- printer ---------------------------------------------------------------


class Printer:
    """Concrete syntax of continuations, memoized by node identity.

    One printer serves one trace, whose steps reuse the tails of
    continuations.  Printing a continuation records, for every cell on it,
    where its own text starts inside the continuation's text, so a later
    print of any suffix is one lookup and one slice, and the memo stays
    linear in the distinct cells.  Each memo entry holds its cell, so no id
    is reused while the printer lives.  `each` memoizes a trace's
    `(tid, entry)` pairs the same way.
    """

    def __init__(self) -> None:
        self._memo: dict[int, tuple[object, str, int]] = {}  # id -> (cell, text, start)
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
        """A continuation with `done` printed explicitly, e.g. `exit;done`."""
        cells, parts = [], []
        while isinstance(k, SeqCont) and id(k) not in self._memo:
            cells.append(k)
            parts.append(pretty(k.head))
            k = k.tail
        if id(k) in self._memo:
            _, text, start = self._memo[id(k)]
            parts.append(text[start:])
        else:
            parts.append("done")
        text = ";".join(parts)
        start = 0
        for cell, part in zip(cells, parts):
            self._memo[id(cell)] = (cell, text, start)
            start += len(part) + 1
        return text


def pretty(c: Command) -> str:
    """Concrete syntax for a command; parse(pretty(c)) == normalize(c).

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


def pretty_continuation(k: Continuation) -> str:
    """Render a continuation with `done` printed explicitly, e.g. `exit;done`."""
    return Printer().continuation(k)

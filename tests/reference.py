"""References the tests hold busycheck to, kept out of the package.

- The assertion terms (`true`, `false`, `obs(n)`, `credit` and `*`) that
  busycheck holds only as normal forms, with `flat_of`, a term's normal form
  read back from the certificate table the term makes, and the
  resource-bundle model: `satisfies` is the separating-conjunction model of
  terms that `satisfies_flat` on normal forms and `assertions.view_shift`
  are held to.
- `is_fair_prefix`, the sliding-window fairness check on finite traces that
  the schedulers must pass.
- `FixedScheduler` and `run_schedule`, which replay a scripted tid sequence.
- `reference_run`, the run loop that steps every pick through
  `semantics.step_pool`, which `semantics.run`'s settled threads skip.
- `fair_run_exists`, a fair-cycle search over the reachable pool graph that
  decides divergence from the definition of fairness; the tests hold the
  lemma that `semantics.explore` rests on to it.
- `replay`, the pool a schedule reaches through `semantics.step_pool`, and
  `witness_distance`, a breadth-first search for the fewest steps to an
  all-waiting pool, which `semantics.thread_alone_schedule` is held to.
- `ReferenceRandomFairScheduler`, the random fair scheduler whose picks
  scanned the pool for the oldest thread, which `RandomFairScheduler.pick`
  replaced.
- `tree_size`, the node count of a proof tree.
- `initial_annotated_pool`, a singleton annotated pool with chosen
  obligations.
- The multi-pass prefix checks that `pog.check_leaf_balance` replaced:
  `downward_closed`, `sibling_closed` (closure asked of each node's
  siblings), `leaves`, and `reference_check_leaf_balance`, which runs them
  in turn before it sums.
- `loopfree_sc_prefixes`, every loop-edge-free sibling-closed prefix of a
  graph by brute force over its node subsets, and `prefix_distribution`,
  the exact chance of each that the campaign's random prefix walk draws.
  `NeverStops` is an rng under which that walk never stops.
- `structurally_equal`, equality of commands by a walk over both terms (the
  walk `lang.same_command` made before commands were hash-consed, without its
  identity shortcuts), and `command_parts`, a command's parts in order.
- `reference_enumerate_programs`, the recursive sweep that rebuilds every
  command of a size each time a larger size uses it, which
  `harness.enumerate_programs` replaced.
- The program-text and certificate codecs that `lang.parse`,
  `proofs.certificate_text` and `proofs.from_json_dict` replaced:
  `reference_parse` (a tokenizer with one record per lexeme, then a reader of
  the records), `reference_to_json_dict` (the certificate as a JSON value,
  which `json.dumps` writes; with `shared=False` it is the tree writer that
  wrote a shared Fork premise at each place) and `reference_from_json_dict`
  (a reader that checks each field with a call and normalizes by walking
  the table).  The tests hold the replacements to them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from busycheck.assertions import BOTTOM, Assertion, Bottom, Flat, normalize, summarize
from busycheck.ghost import RA_FORK, RA_LOOP, AnnotatedThread
from busycheck.lang import EXIT, LOOP_SKIP, Command, Exit, Fork, LoopSkip, ParseError, Seq, seq_of
from busycheck.proofs import (
    CertificateError,
    ForkSplit,
    FrameData,
    HoareTriple,
    ProofTree,
    Rule,
    ShiftData,
)
from busycheck.pog import LeafBalance, PrefixError, ProgramOrderGraph
from busycheck.semantics import (
    TP_EXIT,
    AbruptExit,
    FuelExhausted,
    RunOutcome,
    Scheduler,
    Terminated,
    ThreadPool,
    TraceStep,
    all_waiting,
    initial_pool,
    run,
    step_pool,
)

# --- assertion terms and their bundle model --------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class TrueA(Term):
    pass


@dataclass(frozen=True)
class FalseA(Term):
    pass


@dataclass(frozen=True)
class Obs(Term):
    count: int


@dataclass(frozen=True)
class Credit(Term):
    pass


@dataclass(frozen=True)
class Star(Term):
    left: Term
    right: Term


TRUE = TrueA()
FALSE = FalseA()
CREDIT = Credit()


def star(*parts: Term) -> Term:
    """Left-associated separating conjunction of the given parts."""
    if not parts:
        return TRUE
    acc = parts[0]
    for p in parts[1:]:
        acc = Star(acc, p)
    return acc


_TAGS = {TrueA: "true", FalseA: "false", Credit: "credit"}


def flat_of(a: Term) -> Assertion:
    """The normal form of `a`, written as a certificate's `asserts` table, one
    entry per subterm, summarized and normalized as `proofs` reads it."""
    table: list = []

    def entry(x: Term) -> int:
        if isinstance(x, Star):
            parts, tag = [entry(x.left), entry(x.right)], "star"
        elif isinstance(x, Obs):
            parts, tag = [x.count], "obs"
        else:
            parts, tag = [], _TAGS[type(x)]
        table.append(summarize(table, tag, parts))
        return len(table) - 1

    return normalize(table, entry(a))


@dataclass(frozen=True)
class ResourceBundle:
    """Multiset of obligations-chunk values plus a credit count."""

    chunks: tuple[int, ...]
    credits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(sorted(self.chunks)))
        if self.credits < 0 or any(v < 0 for v in self.chunks):
            raise ValueError("bundle components must be naturals")

    def union(self, other: "ResourceBundle") -> "ResourceBundle":
        return ResourceBundle(self.chunks + other.chunks, self.credits + other.credits)


def _splits(b: ResourceBundle):
    n = len(b.chunks)
    for mask in range(1 << n):
        left = tuple(v for i, v in enumerate(b.chunks) if mask >> i & 1)
        right = tuple(v for i, v in enumerate(b.chunks) if not mask >> i & 1)
        for c in range(b.credits + 1):
            yield ResourceBundle(left, c), ResourceBundle(right, b.credits - c)


def satisfies(b: ResourceBundle, a: Term) -> bool:
    """Model relation: `true` always; `a1 * a2` by existence of a bundle split;
    `obs(n)` iff some chunk holds exactly n; `credit` iff credits >= 1."""
    if isinstance(a, TrueA):
        return True
    if isinstance(a, FalseA):
        return False
    if isinstance(a, Obs):
        return a.count in b.chunks
    if isinstance(a, Credit):
        return b.credits >= 1
    if isinstance(a, Star):
        return any(
            satisfies(b1, a.left) and satisfies(b2, a.right) for b1, b2 in _splits(b)
        )
    raise TypeError(f"not an assertion: {a!r}")


def satisfies_flat(b: ResourceBundle, f: Assertion) -> bool:
    if isinstance(f, Bottom):
        return False
    return _multiset_leq(f.obs, b.chunks) and b.credits >= f.credits


def _multiset_leq(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    remaining = list(big)
    for v in small:
        if v not in remaining:
            return False
        remaining.remove(v)
    return True


# --- fairness and scripted runs --------------------------------------------------


def is_fair_prefix(trace: list[TraceStep], window: int) -> bool:
    """Window approximation of fairness on a finite trace.

    Every thread alive at step k must step at some j in [k, k+window); windows
    that extend past the end of the trace cannot be judged and pass vacuously.
    One pass over a trace whose steps chain: per live thread, the first step
    at which it has been waiting since it last stepped or was born.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    waiting = dict.fromkeys(trace[0].before.ids, 0) if trace else {}
    for j, step in enumerate(trace):
        tid = step.tid
        if j - waiting.pop(tid, j) >= window:
            return False
        if len(step.after.ids) >= len(step.before.ids):
            waiting[tid] = j + 1  # the thread outlives its step (no exit, no end)
        child = step.child
        if child is not None:
            waiting[child] = j + 1
    return all(k + window > len(trace) for k in waiting.values())


class FixedScheduler:
    """Replays an explicit tid sequence; used for scripted runs and goldens."""

    def __init__(self, tids: list[int]):
        self.tids = list(tids)

    def pick(self, pool: ThreadPool, last: TraceStep | None) -> int:
        self._steps = 0 if last is None else self._steps + 1
        return self.tids[self._steps]


def run_schedule(tp: ThreadPool, tids: list[int]) -> tuple[RunOutcome, list[TraceStep]]:
    """`run` from `tp` that steps the threads `tids` in order, or fewer if the pool empties."""
    return run(tp, FixedScheduler(tids), len(tids))


def reference_run(tp: ThreadPool, scheduler: Scheduler, fuel: int) -> tuple[RunOutcome, list[TraceStep]]:
    """The run loop `semantics.run` replaced: every pick, a settled thread's too, steps through `step_pool`."""
    trace: list[TraceStep] = []
    pool, last = tp, None
    for _ in range(fuel):
        if pool.is_empty():
            break
        tid = scheduler.pick(pool, last)
        after, rule = step_pool(pool, tid)
        last = TraceStep(pool, tid, rule, after)
        trace.append(last)
        pool = after
    if not pool.is_empty():
        return FuelExhausted(pool), trace
    if trace and trace[-1].rule == TP_EXIT:
        return AbruptExit(len(trace)), trace
    return Terminated(len(trace)), trace


def fair_run_exists(c: Command) -> tuple[bool, int]:
    """Whether `c` has a fair infinite run, decided from the definition of
    fairness, and the number of pools reachable from `initial_pool(c)`.

    An infinite run ends up inside one strongly connected component of the
    reachable pool graph, whose edges are the steps, each labelled with the
    thread that takes it; one cycle can take every edge of a component.
    Every thread is enabled in every pool it is live in, so a run that stays
    in a component is fair iff each thread live in all of its pools steps
    infinitely often (Lichtenstein & Pnueli, POPL 1985).  So a fair infinite
    run exists iff some component has an edge and each thread live in all of
    its pools labels one of its edges.  Iterative: the graph is built by a
    depth-first search and split into components by Tarjan's algorithm,
    whose `work` stack holds each open pool with its successors still to
    visit.
    """
    start = initial_pool(c)
    edges: dict[ThreadPool, list[tuple[int, ThreadPool]]] = {}
    todo = [start]
    while todo:
        pool = todo.pop()
        if pool not in edges:
            edges[pool] = [(tid, step_pool(pool, tid)[0]) for tid in pool.ids]
            todo += [after for _, after in edges[pool]]
    index: dict[ThreadPool, int] = {}
    low: dict[ThreadPool, int] = {}
    stack: list[ThreadPool] = []  # pools visited whose component is not closed yet
    on_stack: set[ThreadPool] = set()
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            pool, successors = work[-1]
            for _, after in successors:
                if after not in index:
                    index[after] = low[after] = len(index)
                    stack.append(after)
                    on_stack.add(after)
                    work.append((after, iter(edges[after])))
                    break
                if after in on_stack:
                    low[pool] = min(low[pool], index[after])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[pool])
                if low[pool] != index[pool]:
                    continue
                component = set()
                while pool not in component:
                    component.add(stack.pop())
                on_stack -= component
                stepped = {tid for p in component for tid, after in edges[p] if after in component}
                live = set.intersection(*(set(p.ids) for p in component))
                if stepped and live <= stepped:
                    return True, len(edges)
    return False, len(edges)


def replay(c: Command, schedule: list[int]) -> ThreadPool:
    """The pool `step_pool` reaches from `initial_pool(c)` stepping the threads `schedule` in order."""
    pool = initial_pool(c)
    for tid in schedule:
        pool = step_pool(pool, tid)[0]
    return pool


def witness_distance(c: Command) -> int | None:
    """The fewest steps from `initial_pool(c)` to an all-waiting pool, or None
    if no reachable pool is all-waiting: a breadth-first search, one layer of
    pools at a time."""
    layer = [initial_pool(c)]
    seen, steps = set(layer), 0
    while layer:
        if any(map(all_waiting, layer)):
            return steps
        after = {step_pool(pool, tid)[0] for pool in layer for tid in pool.ids} - seen
        seen |= after
        layer, steps = list(after), steps + 1
    return None


class ReferenceRandomFairScheduler:
    """`semantics.RandomFairScheduler` as it was before it kept the live
    threads in the order they last stepped: its history maps every thread
    seen to the index of its last step or birth, and each pick reads the
    index of every live thread to find the oldest, lowest id first.  It
    draws as that scheduler does, from one `random.Random(seed)` per run,
    once per unforced pick."""

    def __init__(self, seed: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.seed = seed
        self.window = window

    def pick(self, pool: ThreadPool, last: TraceStep | None) -> int:
        if last is None:  # a run starts
            self._rng, self._steps, self._last = random.Random(self.seed), 0, {}
        else:
            j = self._steps
            self._steps += 1
            self._last[last.tid] = j
            child = last.child
            if child is not None:
                self._last[child] = j  # born at a fork step
        tids = pool.ids
        lasts = list(map(self._last.get, tids, repeat(-1)))
        first = min(lasts)
        if self._steps - 1 - first >= max(1, self.window - len(tids)):
            return tids[lasts.index(first)]  # the oldest thread, lowest id first
        return self._rng.choice(tids)


# --- proofs and annotated pools --------------------------------------------------


def tree_size(t: ProofTree) -> int:
    """Nodes of `t`, a premise shared by two nodes counted twice; iterative."""
    count, todo = 0, [t]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.premises)
    return count


def initial_annotated_pool(c: Command, obligations: int = 0) -> ThreadPool:
    if obligations < 0:
        raise ValueError("obligations must be a natural")
    return ThreadPool.of({0: AnnotatedThread(obligations, 0, c)})


# --- prefix checks and the program sweep busycheck replaced --------------------------


def downward_closed(prefix: set[int] | frozenset[int], g: ProgramOrderGraph) -> bool:
    return all(n == g.root or g.pred.get(n) in prefix for n in prefix)


def _truncated_fork(g: ProgramOrderGraph, n: int) -> bool:
    return g.info[n].rule == RA_FORK and len(g.out[n]) < 2


def sibling_closed(prefix: set[int] | frozenset[int], g: ProgramOrderGraph) -> bool:
    """All siblings of every prefix node are in the prefix; at the trace
    boundary, a fork node with a missing successor must have none inside."""
    pset = frozenset(prefix)
    for n in pset:
        if n == g.root:
            continue
        p = g.pred.get(n)
        if p is None:
            continue
        if not pset.issuperset(g.out[p]):
            return False
    for n in pset:
        if _truncated_fork(g, n) and not pset.isdisjoint(g.out[n]):
            return False
    return True


def leaves(g: ProgramOrderGraph, prefix: set[int] | frozenset[int]) -> frozenset[int]:
    """Nodes of the prefix with no outgoing edge inside the prefix."""
    pset = frozenset(prefix)
    return frozenset(n for n in pset if pset.isdisjoint(g.out[n]))


def loopfree_sc_prefixes(g: ProgramOrderGraph) -> frozenset[frozenset[int]]:
    """Every sibling-closed downward-closed prefix of `g` that holds its root
    and no loop-labelled internal edge, found among all node subsets."""
    found = set()
    for mask in range(1, 1 << len(g.info)):
        prefix = frozenset(n for n in g.nodes if mask >> n & 1)
        if (
            g.root in prefix
            and downward_closed(prefix, g)
            and sibling_closed(prefix, g)
            and not any(src in prefix and dst in prefix and g.info[src].rule == RA_LOOP for src, dst in g.edges)
        ):
            found.add(prefix)
    return frozenset(found)


def prefix_distribution(g: ProgramOrderGraph) -> dict[frozenset[int], float]:
    """The chance of each prefix a random walk from the root ends at, when
    each round stops with probability 1/4 or else adds the successors of one
    node, drawn uniformly from those whose successors keep the prefix in
    `loopfree_sc_prefixes(g)`, and it stops where no node is left to draw."""
    prefixes = loopfree_sc_prefixes(g)
    chances: dict[frozenset[int], float] = {}

    def grow(prefix: frozenset[int], chance: float) -> None:
        bigger = [prefix.union(g.out[n]) for n in sorted(prefix) if not prefix.issuperset(g.out[n])]
        bigger = [b for b in bigger if b in prefixes]
        stop = chance / 4 if bigger else chance
        chances[prefix] = chances.get(prefix, 0.0) + stop
        for b in bigger:
            grow(b, (chance - stop) / len(bigger))

    grow(frozenset({g.root}), 1.0)
    return chances


class NeverStops:
    """An rng whose `random()` is always 1.0, so a random prefix walk never
    takes its stop and grows the maximal prefix; its other draws are those
    of `random.Random(seed)`."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def random(self) -> float:
        return 1.0

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


def reference_check_leaf_balance(g: ProgramOrderGraph, prefix: set[int] | frozenset[int]) -> LeafBalance:
    """One pass per precondition, in the order of their refusals, then the sums."""
    pset = frozenset(prefix)
    if not all(map(g.nodes.__contains__, pset)):
        raise PrefixError("prefix contains unknown nodes")
    if not downward_closed(pset, g):
        raise PrefixError("prefix is not downward-closed")
    if not sibling_closed(pset, g):
        raise PrefixError("prefix is not sibling-closed")
    o0, c0 = g.initial_bundle
    if o0 != c0:
        raise PrefixError("initial bundle is not balanced")
    leaf_nodes = tuple(sorted(leaves(g, pset)))
    entries = [g.entry(n) for n in leaf_nodes]
    total_o = sum(e.obligations for e in entries)
    total_c = sum(e.credits for e in entries)
    return LeafBalance(total_o, total_c, total_o == total_c, leaf_nodes)


def command_parts(c: Command) -> list[Command]:
    """The parts of `c`: a seq's first and second, a fork's body, or none."""
    return [c.first, c.second] if isinstance(c, Seq) else [c.body] if isinstance(c, Fork) else []


def structurally_equal(a, b) -> bool:
    """Whether `a` and `b` spell one command (or are equal non-commands), by
    a walk over both terms that never compares two commands by identity."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (Fork, Seq)):
            todo += zip(command_parts(x), command_parts(y))
        elif not isinstance(x, (Exit, LoopSkip)) and x != y:  # `DONE`, or not a command
            return False
    return True


def reference_enumerate_programs(max_atoms: int):
    """All commands with at most max_atoms atoms."""
    for n in range(1, max_atoms + 1):
        yield from _commands_of_size(n)


def _atoms_of_size(n: int):
    if n == 1:
        yield EXIT
        yield LOOP_SKIP
    else:
        for body in _commands_of_size(n - 1):
            yield Fork(body)


def _commands_of_size(n: int):
    yield from _atoms_of_size(n)
    for first_size in range(1, n):
        for first in _atoms_of_size(first_size):
            for rest in _commands_of_size(n - first_size):
                yield Seq(first, rest)


# --- the program-text and certificate codecs busycheck replaced ---------------------


class _Token(NamedTuple):
    kind: str  # 'word', 'punct', 'eof'
    text: str
    offset: int  # where it starts in the program text


def _error_at(message: str, text: str, offset: int) -> ParseError:
    """The error at `offset` in `text`, by 1-based line and column; only a newline starts a line."""
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


# `finditer` skips the whitespace between lexemes.  `[^\W\d_]` also takes the
# numerals that are not letters (e.g. `²`), so a word that is not all letters
# holds an unexpected character.
_LEXEME = re.compile(r"(?P<comment>#[^\n]*)|(?P<punct>[;{}])|(?P<word>[^\W\d_]+)|(?P<other>\S)")


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`.  End of input after a trailing comment sits at its `#`."""
    tokens, end = [], len(text)
    for m in _LEXEME.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "punct" or (kind == "word" and lexeme.isalpha()):
            tokens.append(_Token(kind, lexeme, m.start()))
        elif kind == "comment":
            if m.end() == len(text):
                end = m.start()
        else:
            offset = m.start() + next(i for i, ch in enumerate(lexeme) if not ch.isalpha())
            raise _error_at(f"unexpected character {text[offset]!r}", text, offset)
    tokens.append(_Token("eof", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> None:
        self.pos += 1

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        return _error_at(f"expected {expected}, found {shown!r}", self.text, tok.offset)

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


def reference_parse(text: str) -> Command:
    """`lang.parse` as a tokenizer, one record per lexeme, and a reader of the record list."""
    parser = _Parser(text)
    cmd = parser.command()
    if parser.peek().kind != "eof":
        raise parser.error("end of input")
    return cmd


# The tags of each table and the number of parts each takes; the class of
# each command tag, and the tag of each command class.
_COMMAND_PARTS = {"exit": 0, "loop skip": 0, "fork": 1, "seq": 2}
_ASSERTION_PARTS = {"true": 0, "false": 0, "credit": 0, "obs": 1, "star": 2}
_COMMANDS = {"exit": Exit, "loop skip": LoopSkip, "fork": Fork, "seq": Seq}
_COMMAND_TAGS = {cls: tag for tag, cls in _COMMANDS.items()}


def reference_to_json_dict(t: ProofTree, shared: bool = True) -> dict:
    """The certificate of `t` as a JSON value (the `proofs` docstring has the format).

    One iterative walk writes the nodes in post-order, the root last, and
    interns every term they name into its table, parts first, the right part
    before the left, so equal terms get one entry.  An assertion is written
    as the term `obs(n1) * ... * credit * ...`, left-associated, or `true`
    when it has no atoms and `false` for Bottom.  When `shared`, a premise of
    a Fork node is written once, by the first Fork node that names it, and
    named by its entry from then on; other nodes, and every node when not
    `shared`, are written where they occur, so the certificate is a tree.
    """
    cmds: list = []
    asserts: list = []
    by_id: dict[int, int] = {}  # id of a command of `t` -> its entry
    by_key: dict[tuple, int] = {}  # (class, entries of its parts) -> entry
    by_flat: dict[Assertion, int] = {}  # assertion of `t` -> its entry
    by_part: dict = {}  # n of obs(n), a fieldless tag, or (i, j) of a star -> entry

    def command(term: Command) -> int:
        todo = [term]
        while id(term) not in by_id:
            x = todo[-1]
            parts = command_parts(x)
            missing = [p for p in parts if id(p) not in by_id]
            if missing:
                todo += missing
                continue
            todo.pop()
            values = [by_id[id(p)] for p in parts]
            key = (type(x), *values)
            if key not in by_key:
                by_key[key] = len(cmds)
                tag = _COMMAND_TAGS[type(x)]
                cmds.append({tag: values if len(values) > 1 else values[0]} if values else tag)
            by_id[id(x)] = by_key[key]
        return by_id[id(term)]

    def put(key, entry) -> int:
        i = by_part.get(key)
        if i is None:
            i = by_part[key] = len(asserts)
            asserts.append(entry)
        return i

    def assertion(f: Assertion) -> int:
        i = by_flat.get(f)
        if i is None:
            if isinstance(f, Bottom):
                i = put("false", "false")
            else:
                atoms = [(n, {"obs": n}) for n in f.obs] + [("credit", "credit")] * f.credits
                parts = [put(*atom) for atom in reversed(atoms)] or [put("true", "true")]
                i = parts.pop()
                while parts:
                    j = parts.pop()
                    i = put((i, j), {"star": [i, j]})
            by_flat[f] = i
        return i

    nodes: list[dict] = []
    done: list[int] = []  # written nodes whose parent is not written yet
    fork_premises: dict[int, int] = {}  # id of a Fork premise written -> its entry, when `shared`
    todo: list[tuple[ProofTree, list | None]] = [(t, None)]  # a node, and the premises it has had written
    while todo:
        node, written = todo.pop()
        if written is None:
            written = list(node.premises)
            if shared and node.rule is Rule.FORK:
                written = [p for p in written if id(p) not in fork_premises]
            todo.append((node, written))
            todo += ((p, None) for p in reversed(written))
            continue
        cut = len(done) - len(written)
        premises = done[cut:]
        del done[cut:]
        if shared and node.rule is Rule.FORK:
            for p, i in zip(written, premises):
                fork_premises.setdefault(id(p), i)
            premises = [fork_premises[id(p)] for p in node.premises]
        c, data = node.conclusion, node.data
        entry = {
            "rule": node.rule.value,
            "pre": assertion(c.pre),
            "cmd": command(c.cmd),
            "post": assertion(c.post),
            "premises": premises,
        }
        if isinstance(data, ForkSplit):
            entry.update(childObs=data.child_obs, childCredits=data.child_credits)
        elif isinstance(data, ShiftData):
            entry.update(innerPre=assertion(data.inner_pre), innerPost=assertion(data.inner_post))
        elif isinstance(data, FrameData):
            entry.update(frame=assertion(data.frame))
        done.append(len(nodes))
        nodes.append(entry)
    return {"format": 2, "cmds": cmds, "asserts": asserts, "nodes": nodes, "root": len(nodes) - 1}


def reference_from_json_dict(data: dict) -> ProofTree:
    """The proof tree a certificate describes.

    One forward pass checks each table (`_reference_read_table`); equal commands load
    as one object, and only the assertions the nodes name are normalized,
    each once.  CertificateError names the fault: a format other than 2, an
    index of no earlier entry, an entry not in the form the module docstring
    gives, or a node that is the premise of two nodes that are not both
    Fork nodes (so `check_proof`, which opens each Fork premise once, walks
    no more nodes than the file has).
    """
    if not isinstance(data, dict) or data.get("format") != 2:
        raise CertificateError('unsupported certificate format: expected an object with "format": 2')
    try:
        cmds = _reference_commands(_reference_read_table(data["cmds"], "cmds", _COMMAND_PARTS))
        asserts = _reference_read_table(data["asserts"], "asserts", _ASSERTION_PARTS)
        flats: dict[int, Assertion] = {}

        def assertion(i) -> Assertion:
            _at(asserts, i)
            return _walk_normalize(asserts, i, flats)

        nodes: list[ProofTree] = []
        parents: dict[int, list[Rule]] = {}  # node -> the rules of the nodes it is a premise of
        for e in data["nodes"]:
            premises = tuple(_at(nodes, i) for i in e["premises"])
            rule = Rule(e["rule"])
            for i in e["premises"]:
                parents.setdefault(i, []).append(rule)
            extra: ForkSplit | ShiftData | FrameData | None = None
            if rule is Rule.FORK:
                extra = ForkSplit(_count(e["childObs"]), _count(e["childCredits"]))
            elif rule is Rule.VIEW_SHIFT:
                extra = ShiftData(assertion(e["innerPre"]), assertion(e["innerPost"]))
            elif rule is Rule.FRAME:
                extra = FrameData(assertion(e["frame"]))
            triple = HoareTriple(assertion(e["pre"]), _at(cmds, e["cmd"]), assertion(e["post"]))
            nodes.append(ProofTree(triple, rule, premises, extra))
        if any(len(rules) > 1 and set(rules) != {Rule.FORK} for rules in parents.values()):
            raise CertificateError(
                "malformed certificate: a node is the premise of two nodes that are not both Fork nodes"
            )
        return _at(nodes, data["root"])
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


def _reference_read_table(entries: list, name: str, arity: dict[str, int]) -> list[tuple]:
    """The entries of table `name`, each as (tag, *parts), checked in one pass.

    Each entry is a tag of the table or an object of one such tag, with as
    many parts as `arity` gives, each the index of an earlier entry (a count
    for `obs`).  The first part of a seq is no seq and the right part of a
    star no star, so a star adds at most one atom to the assertion it builds.
    """
    if not isinstance(entries, list):
        raise CertificateError(f"malformed certificate: {name} is not a list")
    table: list[tuple] = []
    for at, entry in enumerate(entries):
        if isinstance(entry, str):
            tag, parts = entry, []
        elif isinstance(entry, dict) and len(entry) == 1:
            [(tag, parts)] = entry.items()
            parts = parts if isinstance(parts, list) else [parts]
        else:
            raise CertificateError(f"malformed certificate: {name}[{at}] is not a tag or an object of one tag")
        want = arity.get(tag)
        if want is None:
            raise CertificateError(f"malformed certificate: {name}[{at}] has the unknown tag {tag!r}")
        if len(parts) != want:
            noun = "part" if want == 1 else "parts"
            raise CertificateError(f"malformed certificate: {name}[{at}]: {tag!r} takes {want} {noun}, not {len(parts)}")
        if tag == "obs":
            parts = [_count(parts[0])]
        else:
            for i in parts:
                _at(table, i)
        if tag == "seq" and table[parts[0]][0] == "seq":
            raise CertificateError("malformed certificate: the first part of a seq is a seq")
        if tag == "star" and table[parts[1]][0] == "star":
            raise CertificateError("malformed certificate: the right part of a star is a star")
        table.append((tag, *parts))
    return table


def _reference_commands(table: list[tuple]) -> list[Command]:
    """The commands of a checked `cmds` table, equal commands as one object."""
    terms: list[Command] = []
    interned: dict[tuple, Command] = {}
    for tag, *parts in table:
        args = [terms[i] for i in parts]
        key = (tag, *map(id, args))
        if key not in interned:
            interned[key] = _COMMANDS[tag](*args)
        terms.append(interned[key])
    return terms


def _at(entries: list, i):
    if type(i) is not int or not 0 <= i < len(entries):
        raise CertificateError(f"malformed certificate: {i!r} is not the index of an earlier entry")
    return entries[i]


def _count(n) -> int:
    if type(n) is not int or n < 0:
        raise CertificateError(f"malformed certificate: {n!r} is not a count")
    return n


def _walk_normalize(table: list[tuple], i: int, memo: dict[int, Assertion]) -> Assertion:
    """The normal form of entry `i` of an `asserts` table as `_reference_read_table` reads it.

    The entries are as `proofs` reads them: `("true",)`, `("false",)`,
    `("credit",)`, `("obs", n)` or `("star", j, k)` with j, k < i.  One walk
    over indices flattens the stars, `true` being the unit and any `false`
    collapsing to Bottom; `memo` keeps the form of each entry walked from,
    and a walk that meets such an entry takes its form instead.
    """
    f = memo.get(i)
    if f is None:
        obs, credits, todo = [], 0, [i]
        while todo and f is None:
            j = todo.pop()
            entry = memo.get(j) or table[j]
            if isinstance(entry, Flat):
                obs += entry.obs
                credits += entry.credits
            elif entry is BOTTOM or entry[0] == "false":
                f = BOTTOM
            elif entry[0] == "star":
                todo += entry[1:]
            elif entry[0] == "obs":
                obs.append(entry[1])
            elif entry[0] == "credit":
                credits += 1
        memo[i] = f = f or Flat(tuple(sorted(obs)), credits)
    return f

"""Hoare-triple proof objects, the certificate checker, and proof construction.

The proof system has six rules.  Exit discharges a whole obligations chunk:
{obs(n)} exit {false}.  Loop justifies busy-waiting and demands a credit but
no obligations: {obs(0) * credit} loop skip {false}.  Fork passes part of
the parent's chunk and credits to the child, which must discharge or cancel
everything: from {obs(n_f) * credit^k_f} body {obs(0)} conclude
{obs(n_f+n_m) * credit^(k_f+k_m)} fork{body} {obs(n_m) * credit^k_m}.
Seq chains through a middle assertion, ViewShift adjusts both ends of a
triple by view shifts, and Frame adds an obligation-free frame (a chunk can
never be framed: threads hold exactly one).

`check_proof` validates a proof tree node by node and reports the first
violation with its root-to-leaf path.  `derive` builds a proof of
{obs(n)} c {obs(0)} in one pass over single-chunk ghost states (o, k), read
obs(o) * credit^k.  The regression suite pins the exact certificate for
`fork { exit }; loop skip`.

Feasibility.  Each thread body and each suffix of one has a pair
(absorbing, need): `exit` gives (True, 0) and `loop skip` (False, 1),
whatever follows; `fork { b }` followed by the rest r gives
(A_b or A_r, N_b + N_r), an empty rest being (False, 0).  So a command is
absorbing iff a thread of its spawn tree stops at `exit`, and need counts
the threads that stop at `loop skip`.  A state (o, k) is *feasible* when the
command is absorbing or k - o >= need.  An infeasible state has no proof:
without an exit, pair moves keep k - o, forks split it, credits can only be
dropped, and each loop skip consumes one.  So `derive` returns None iff
`not absorbing and -n < need`; at n = 0 that is exactly the spawn tree's
divergence test, which the tests check and this module does not import.

Construction.  Walk each thread's spine from its start state, (n, 0) for
the root.  `exit` runs from (o, 0) and `loop skip` from (0, 1) (feasibility
gives k >= o + 1), both reached by a view shift; after either, the rest is
unreachable and is proved from `false` through the state
(0, 0 if absorbing else need) of the rest.  A fork adds delta ghost pairs,
hands (co, cc) of (o + delta, k + delta) to the child and keeps the rest.
With D = N_r - (k - o):

- b and r both absorbing: delta = 0, (co, cc) = (0, 0).
- b not absorbing: delta = max(0, N_b - k), (co, cc) = (0, N_b).
- only b absorbing: delta = 0 and (0, 0) if D <= 0, else
  delta = max(0, D - o) and (co, cc) = (D, 0).

Every choice leads only to feasible successors: the split fits in
(o + delta, k + delta); the child gets cc - co = N_b or is absorbing; when
r does not absorb, the parent keeps (k - o) - (cc - co) >= N_r, in the
second case because its state was feasible and b does not absorb, in the
third by the choice of D.  So a trailing fork (r = (False, 0)) shifts to
obs(0).  By induction over the
spine and the spawn tree, a feasible start always yields a proof.

It is also the smallest choice: in the order ghost delta 0, 1, -1, 2, -2,
..., then splits by ascending co + cc, then ascending co, it is the first
with feasible successors.  The child's need fixes cc - co >= N_b, or the
parent's fixes co - cc >= D; the least total puts all of it on one side,
and it fits from the least delta >= 0 on.  A negative delta only shrinks
the splits, so it never wins.  The tests keep the backtracking search over
that order as a reference, and their certificates agree byte for byte.

Certificates.  A certificate is one JSON object, `{"format": 2, "cmds":
[...], "asserts": [...], "nodes": [...], "root": i}`, whose entries name
earlier entries by index, so its size is linear in the proof and its
nesting depth is constant.  `cmds` holds commands, each `"exit"`,
`"loop skip"`, `{"fork": i}` or `{"seq": [i, j]}`; `asserts` holds
assertions, each `"true"`, `"false"`, `"credit"`, `{"obs": n}` or
`{"star": [i, j]}`.  Both tables are hash-consed (Filliâtre & Conchon, ML
2006): a term occurs once.  The checker holds an assertion only as its
normal form, which the writer renders as `obs(n1) * ... * credit * ...`,
left-associated.  Reading is linear in the file: one pass checks every
entry, refusing a seq as first part of a seq and a star as right part of a
star, so an entry adds at most one atom to the assertion it builds; then
only the entries the nodes name are normalized, each by one walk and once.
(Normalizing every entry would copy each prefix of a long chain of stars.)
`nodes` lists the proof nodes in post-order, as LRAT numbers its steps;
each has its `rule`, the indices of its `pre`, `cmd` and `post` and of its
`premises`, and its rule data: `childObs` and `childCredits` (Fork),
`innerPre` and `innerPost` (ViewShift), `frame` (Frame).  `root` is the
index of the conclusion's node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

from .assertions import (
    BOTTOM,
    OBS_ZERO,
    Assertion,
    Bottom,
    Flat,
    flat_add,
    normalize as normalize_assertion,
    state_assertion,
    view_shift,
)
from .lang import (
    DONE,
    Command,
    Done,
    Exit,
    Fork,
    LoopSkip,
    Seq,
    same_command,
)

# Not called here: certificates carry no program text.  The name stays
# importable from this module because perfbench/tracing.py wraps it.
from .lang import parse  # noqa: F401

# Not called here: the exact view-shift rule has no third answer.  The old
# name stays importable from this module because perfbench/tracing.py wraps it.
view_shift_status = view_shift


class HoareTriple(NamedTuple):
    pre: Assertion
    cmd: Command
    post: Assertion


class Rule(str, Enum):
    FRAME = "Frame"
    EXIT = "Exit"
    LOOP = "Loop"
    FORK = "Fork"
    SEQ = "Seq"
    VIEW_SHIFT = "ViewShift"


_PREMISE_COUNT = {
    Rule.EXIT: 0,
    Rule.LOOP: 0,
    Rule.FRAME: 1,
    Rule.FORK: 1,
    Rule.SEQ: 2,
    Rule.VIEW_SHIFT: 1,
}


class ForkSplit(NamedTuple):
    """Resources handed to the forked thread."""

    child_obs: int
    child_credits: int


class ShiftData(NamedTuple):
    """Intermediate pre'/post' of a ViewShift node."""

    inner_pre: Assertion
    inner_post: Assertion


class FrameData(NamedTuple):
    frame: Assertion


class ProofTree(NamedTuple):
    conclusion: HoareTriple
    rule: Rule
    premises: tuple["ProofTree", ...] = ()
    data: ForkSplit | ShiftData | FrameData | None = None


@dataclass(frozen=True)
class RuleViolation:
    path: tuple[int, ...]  # premise indices from the root
    reason: str

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.path) if self.path else "root"
        return f"{where}: {self.reason}"


# --- certificate checking ------------------------------------------------------


def check_proof(t: ProofTree) -> RuleViolation | None:
    """None when every node instantiates its rule schema; first failure otherwise.

    Nodes are checked in pre-order (a node, then its premises left to right),
    iteratively, so any depth works.  `open_nodes[d]` is the node at depth d
    of the current path and `next_premise[d]` the index of its premise to
    visit next; the path is read off them only when a node fails.
    """
    reason = _node_fault(t)
    if reason is not None:
        return RuleViolation((), reason)
    open_nodes, next_premise = [t], [0]
    while open_nodes:
        premises = open_nodes[-1].premises
        i = next_premise[-1]
        if i == len(premises):
            open_nodes.pop()
            next_premise.pop()
            continue
        next_premise[-1] = i + 1
        p = premises[i]
        reason = _node_fault(p)
        if reason is not None:
            return RuleViolation(tuple(j - 1 for j in next_premise), reason)
        if p.premises:
            open_nodes.append(p)
            next_premise.append(0)
    return None


_LOOP_PRE = Flat((0,), 1)  # obs(0) * credit


def _single_chunk(f) -> bool:
    return isinstance(f, Flat) and len(f.obs) == 1


def _node_fault(t: ProofTree) -> str | None:
    """Why `t` does not instantiate its rule given its premises' conclusions, or None."""
    c = t.conclusion
    rule = t.rule
    want = _PREMISE_COUNT.get(rule)
    if want is None:
        return f"unknown rule {rule!r}"
    premises = t.premises
    if len(premises) != want:
        return f"{rule.value} takes {want} premises, got {len(premises)}"

    if rule is Rule.EXIT:
        if not isinstance(c.cmd, Exit):
            return "Exit rule applied to a non-exit command"
        if not (_single_chunk(c.pre) and c.pre.credits == 0):
            return "Exit precondition must be obs(n)"
        if not isinstance(c.post, Bottom):
            return "Exit postcondition must be false"
    elif rule is Rule.LOOP:
        if not isinstance(c.cmd, LoopSkip):
            return "Loop rule applied to a non-loop command"
        if c.pre != _LOOP_PRE:
            return "Loop precondition must be obs(0) * credit"
        if not isinstance(c.post, Bottom):
            return "Loop postcondition must be false"
    elif rule is Rule.FORK:
        if not isinstance(c.cmd, Fork):
            return "Fork rule applied to a non-fork command"
        split = t.data
        if not isinstance(split, ForkSplit):
            return "Fork node carries no resource split"
        p = premises[0].conclusion
        if not same_command(p.cmd, c.cmd.body):
            return "Fork premise command is not the fork body"
        if p.pre != Flat((split.child_obs,), split.child_credits):
            return "Fork premise precondition does not match the split"
        if p.post != OBS_ZERO:
            return "forked thread must end with obs(0)"
        if not _single_chunk(c.post):
            return "Fork postcondition must be obs(n) * credit^k"
        if c.pre != Flat((split.child_obs + c.post.obs[0],), split.child_credits + c.post.credits):
            return "Fork precondition must be the sum of split and remainder"
    elif rule is Rule.SEQ:
        if not isinstance(c.cmd, Seq):
            return "Seq rule applied to a non-sequence command"
        c1, c2 = premises[0].conclusion, premises[1].conclusion
        if not (same_command(c1.cmd, c.cmd.first) and same_command(c2.cmd, c.cmd.second)):
            return "Seq premise commands do not match the sequence"
        if c1.pre != c.pre:
            return "Seq precondition does not match first premise"
        if c1.post != c2.pre:
            return "Seq middle assertion mismatch"
        if c2.post != c.post:
            return "Seq postcondition does not match second premise"
    elif rule is Rule.VIEW_SHIFT:
        data = t.data
        if not isinstance(data, ShiftData):
            return "ViewShift node carries no intermediate assertions"
        p = premises[0].conclusion
        if not same_command(p.cmd, c.cmd):
            return "ViewShift premise command differs from conclusion"
        if p.pre != data.inner_pre:
            return "ViewShift premise precondition mismatch"
        if p.post != data.inner_post:
            return "ViewShift premise postcondition mismatch"
        if not view_shift(c.pre, data.inner_pre):
            return "pre-side view shift invalid"
        if not view_shift(data.inner_post, c.post):
            return "post-side view shift invalid"
    elif rule is Rule.FRAME:
        if not isinstance(t.data, FrameData):
            return "Frame node carries no frame assertion"
        frame = t.data.frame
        if isinstance(frame, Flat) and frame.obs:
            return "frames must not contain obs atoms"
        p = premises[0].conclusion
        if not same_command(p.cmd, c.cmd):
            return "Frame premise command differs from conclusion"
        if c.pre != flat_add(p.pre, frame):
            return "Frame precondition is not premise * frame"
        if c.post != flat_add(p.post, frame):
            return "Frame postcondition is not premise * frame"
    return None


# --- proof construction ----------------------------------------------------------


def _features(c: Command) -> dict[int, tuple[bool, int]]:
    """(absorbing, need) of every spine suffix of `c` and of its fork bodies, by id.

    Post-order without recursion: every spine is listed before the spines of
    the fork bodies on it, and the list is read back to front, each spine
    from its last atom to its first.
    """
    spines: list[list[Command]] = []
    todo = [c]
    while todo:
        suffix, spine = todo.pop(), []
        while not isinstance(suffix, Done):
            spine.append(suffix)
            if isinstance(suffix.head, Fork):
                todo.append(suffix.head.body)
            suffix = suffix.tail
        spines.append(spine)
    features = {id(DONE): (False, 0)}  # past the last atom: nothing absorbs, nothing waits
    for spine in reversed(spines):
        rest = features[id(DONE)]
        for suffix in reversed(spine):
            atom = suffix.head
            if isinstance(atom, Exit):
                rest = (True, 0)
            elif isinstance(atom, LoopSkip):
                rest = (False, 1)
            else:
                absorbing, need = features[id(atom.body)]
                rest = (absorbing or rest[0], need + rest[1])
            features[id(suffix)] = rest
    return features


def _fork_choice(o: int, k: int, body: tuple[bool, int], rest: tuple[bool, int]):
    """(delta, child_obs, child_credits) for a fork run in the feasible state
    (o, k), given the (absorbing, need) of its body and of the atoms after it."""
    body_absorbing, body_need = body
    if not body_absorbing:
        return max(0, body_need - k), 0, body_need
    rest_absorbing, rest_need = rest
    short = rest_need - (k - o)
    if rest_absorbing or short <= 0:
        return 0, 0, 0
    return max(0, short - o), short, 0


def derive(c: Command, n: int) -> ProofTree | None:
    """The proof of {obs(n)} c {obs(0)} built in one pass, or None when the
    start state (n, 0) is infeasible for `c` and so no proof exists.

    Iterative at any depth and length.  A forward walk fixes every thread's
    states and every fork's choice, parents before children; the trees are
    then built back to front, children first.
    """
    features = _features(c)
    absorbing, need = features[id(c)]
    if not absorbing and -n < need:
        return None
    threads = [(c, (n, 0))]  # (body, start state); a fork's child comes later
    walks = []
    for body, state in threads:  # grows while it is walked
        walk, suffix = [], body
        while True:
            atom, rest = suffix.head, suffix.tail
            dead = state is None  # code after an exit or a loop skip
            if dead:
                absorbing, need = features[id(suffix)]
                state = (0, 0 if absorbing else need)
            o, k = state
            start, after, child = ((o, 0) if isinstance(atom, Exit) else (0, 1)), None, None
            if isinstance(atom, Fork):
                delta, co, cc = _fork_choice(o, k, features[id(atom.body)], features[id(rest)])
                start, after = (o + delta, k + delta), (o + delta - co, k + delta - cc)
                child = len(threads)
                threads.append((atom.body, (co, cc)))
            walk.append((suffix, atom, state, start, after, dead, child))
            if isinstance(rest, Done):
                break
            suffix, state = rest, after
        walks.append(walk)

    proofs: list[ProofTree | None] = [None] * len(threads)
    for i in reversed(range(len(threads))):
        required = OBS_ZERO if isinstance(walks[i][-1][1], Fork) else BOTTOM
        t = None
        for suffix, atom, state, start, after, dead, child in reversed(walks[i]):
            pre = state_assertion(*start)
            if child is None:
                rule = Rule.EXIT if isinstance(atom, Exit) else Rule.LOOP
                node = ProofTree(HoareTriple(pre, atom, BOTTOM), rule)
            else:
                post, split = state_assertion(*after), ForkSplit(*threads[child][1])
                node = ProofTree(HoareTriple(pre, atom, post), Rule.FORK, (proofs[child],), split)
            if t is None:  # the last atom; a trailing fork shifts to obs(0)
                t = node if required is BOTTOM or after == (0, 0) else _wrap(node, pre, required)
            else:
                t = ProofTree(HoareTriple(pre, suffix, required), Rule.SEQ, (node, t))
            if start != state:
                t = _wrap(t, state_assertion(*state), required)
            if dead:
                t = _wrap(t, BOTTOM, required)
        proofs[i] = t if required is OBS_ZERO else _wrap(t, t.conclusion.pre, OBS_ZERO)
    return proofs[0]


def _wrap(t: ProofTree, pre: Assertion, post: Assertion) -> ProofTree:
    """View-shift wrapper around `t`, merging nested shifts into one node.

    `state_assertion` hands out one object per recent state, so the ends are
    compared by identity first."""
    c = t.conclusion
    if (pre is c.pre or pre == c.pre) and (post is c.post or post == c.post):
        return t
    inner = t.premises[0] if t.rule is Rule.VIEW_SHIFT else t
    return ProofTree(
        HoareTriple(pre, t.conclusion.cmd, post),
        Rule.VIEW_SHIFT,
        (inner,),
        ShiftData(inner.conclusion.pre, inner.conclusion.post),
    )


def verify(c: Command) -> ProofTree | None:
    """Programs start without obligations or credits: prove {obs(0)} c {obs(0)}."""
    return derive(c, 0)


# --- certificates -----------------------------------------------------------------

# The tags of each table and the number of parts each takes; the class of
# each command tag, and the tag of each command class.
_COMMAND_PARTS = {"exit": 0, "loop skip": 0, "fork": 1, "seq": 2}
_ASSERTION_PARTS = {"true": 0, "false": 0, "credit": 0, "obs": 1, "star": 2}
_COMMANDS = {"exit": Exit, "loop skip": LoopSkip, "fork": Fork, "seq": Seq}
_TAGS = {cls: tag for tag, cls in _COMMANDS.items()}


def to_json_dict(t: ProofTree) -> dict:
    """The certificate of `t` (the module docstring has the format).

    One iterative walk writes the nodes in post-order, the root last, and
    interns every term they name into its table, parts first, the right part
    before the left, so equal terms get one entry.  An assertion is written
    as the term `obs(n1) * ... * credit * ...`, left-associated, or `true`
    when it has no atoms and `false` for Bottom.  Proof nodes are not
    interned.
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
            parts = [getattr(x, f.name) for f in fields(x)]
            missing = [p for p in parts if id(p) not in by_id]
            if missing:
                todo += missing
                continue
            todo.pop()
            values = [by_id[id(p)] for p in parts]
            key = (type(x), *values)
            if key not in by_key:
                by_key[key] = len(cmds)
                tag = _TAGS[type(x)]
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
    todo: list[tuple[ProofTree, bool]] = [(t, False)]
    while todo:
        node, ready = todo.pop()
        if not ready:
            todo.append((node, True))
            todo += ((p, False) for p in reversed(node.premises))
            continue
        c, data, cut = node.conclusion, node.data, len(done) - len(node.premises)
        entry = {
            "rule": node.rule.value,
            "pre": assertion(c.pre),
            "cmd": command(c.cmd),
            "post": assertion(c.post),
            "premises": done[cut:],
        }
        del done[cut:]
        if isinstance(data, ForkSplit):
            entry.update(childObs=data.child_obs, childCredits=data.child_credits)
        elif isinstance(data, ShiftData):
            entry.update(innerPre=assertion(data.inner_pre), innerPost=assertion(data.inner_post))
        elif isinstance(data, FrameData):
            entry.update(frame=assertion(data.frame))
        done.append(len(nodes))
        nodes.append(entry)
    return {"format": 2, "cmds": cmds, "asserts": asserts, "nodes": nodes, "root": len(nodes) - 1}


class CertificateError(ValueError):
    pass


def from_json_dict(data: dict) -> ProofTree:
    """The proof tree a certificate describes.

    One forward pass checks each table (`_read_table`); equal commands load
    as one object, and only the assertions the nodes name are normalized,
    each once.  CertificateError names the fault: a format other than 2, an
    index of no earlier entry, an entry not in the form the module docstring
    gives, or a node that is the premise of two nodes (so `check_proof`
    walks a tree no larger than the file).
    """
    if not isinstance(data, dict) or data.get("format") != 2:
        raise CertificateError('unsupported certificate format: expected an object with "format": 2')
    try:
        cmds = _commands(_read_table(data["cmds"], "cmds", _COMMAND_PARTS))
        asserts = _read_table(data["asserts"], "asserts", _ASSERTION_PARTS)
        flats: dict[int, Assertion] = {}

        def assertion(i) -> Assertion:
            _at(asserts, i)
            return normalize_assertion(asserts, i, flats)

        nodes: list[ProofTree] = []
        used: list[int] = []  # the premise indices of every node
        for e in data["nodes"]:
            premises = tuple(_at(nodes, i) for i in e["premises"])
            used += e["premises"]
            rule = Rule(e["rule"])
            extra: ForkSplit | ShiftData | FrameData | None = None
            if rule is Rule.FORK:
                extra = ForkSplit(_count(e["childObs"]), _count(e["childCredits"]))
            elif rule is Rule.VIEW_SHIFT:
                extra = ShiftData(assertion(e["innerPre"]), assertion(e["innerPost"]))
            elif rule is Rule.FRAME:
                extra = FrameData(assertion(e["frame"]))
            triple = HoareTriple(assertion(e["pre"]), _at(cmds, e["cmd"]), assertion(e["post"]))
            nodes.append(ProofTree(triple, rule, premises, extra))
        if len(set(used)) < len(used):
            raise CertificateError("malformed certificate: a node is the premise of two nodes")
        return _at(nodes, data["root"])
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


def _read_table(entries: list, name: str, arity: dict[str, int]) -> list[tuple]:
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


def _commands(table: list[tuple]) -> list[Command]:
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


def save_certificate(t: ProofTree, path: str) -> None:
    """Write the certificate as single-line JSON."""
    text = json.dumps(to_json_dict(t), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_certificate(path: str) -> ProofTree:
    with open(path, encoding="utf-8") as fh:
        try:
            entry = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise CertificateError(f"not valid JSON: {exc}") from exc
    return from_json_dict(entry)

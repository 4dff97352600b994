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

Feasibility.  Each command carries its pair (absorbing, need), which `lang`
sets when it builds it: `exit` gives (True, 0) and `loop skip` (False, 1),
whatever follows; `fork { b }` followed by the rest r gives
(A_b or A_r, N_b + N_r), an empty rest (`DONE`) being (False, 0).  So a
command is absorbing iff a thread of its spawn tree stops at `exit`, and
need counts the threads that stop at `loop skip`.  A state (o, k) is
*feasible* when the command is absorbing or k - o >= need.  An infeasible
state has no proof: without an exit, pair moves keep k - o, forks split it,
credits can only be dropped, and each loop skip consumes one.  So `derive`
returns None iff `not absorbing and -n < need`; at n = 0 that is exactly the
spawn tree's divergence test, which the tests check and this module does
not import.

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

Equal threads, by (body, co, cc), share one proof object within a call,
which `check_proof` visits once and a certificate writes once.
So do equal dead suffixes, which `check_proof` visits once, a certificate
writes where each occurs, and `ghost` never reads: it reads a thread's
proof as the thread runs, up to its first stop.  Given a `ThreadTables`,
the sharing outlives the call: `derive` takes a forked thread's or dead
suffix's proof from an earlier call's, and `check_proof` does not reopen a
Fork premise or dead node object an earlier call passed.  A soundness
campaign passes one set to every program it checks, so it proves and
checks each dead suffix once; a CLI request passes none.

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
nesting depth is constant.  A node may be the premise of any number of Fork
nodes, and the writer writes each Fork premise once; a node that a Seq,
ViewShift or Frame node names is named by no other node.  So `check_proof`,
which opens each Fork premise once, visits each node of the file at most
once.  `cmds` holds commands, each `"exit"`, `"loop skip"`,
`{"fork": i}` or `{"seq": [i, j]}`; `asserts` holds assertions, each
`"true"`, `"false"`, `"credit"`, `{"obs": n}` or `{"star": [i, j]}`.  Both
tables are hash-consed: a term occurs once, and the commands' sharing comes
from their constructors, which `lang` interns.  The checker holds an
assertion only as its normal form, which the writer renders as
`obs(n1) * ... * credit * ...`, left-associated.  `certificate_text` writes
the text in one walk of the proof, byte for byte what `json.dumps` writes
with separators "," and ":".
Reading is linear in the file: one pass checks every entry, refusing a seq
as first part of a seq and a star as right part of a star, so an entry adds
at most one atom to the assertion it builds, and summarizes it in constant
time (`assertions.summarize`); an entry is normalized only when a node first
names it, and the entries the nodes name may hold no more obs atoms in all
than `asserts` has entries.  (Normalizing every entry would copy each prefix
of a long chain of stars, and naming every entry of one would too.)  The
writer gives each assertion at most one obs atom, so it never meets that
bound.
`nodes` lists the proof nodes in post-order, as LRAT numbers its steps;
each has its `rule`, the indices of its `pre`, `cmd` and `post` and of its
`premises`, and its rule data: `childObs` and `childCredits` (Fork),
`innerPre` and `innerPost` (ViewShift), `frame` (Frame).  `root` is the
index of the conclusion's node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    summarize,
    view_shift,
)
from .lang import DONE, EXIT, Command, Continuation, Exit, Fork, LoopSkip, Seq

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


# The members in definition order, each one global lookup where `Rule.X` is two.
RULE_FRAME, RULE_EXIT, RULE_LOOP, RULE_FORK, RULE_SEQ, RULE_VIEW_SHIFT = Rule

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


class ThreadTables:
    """What `derive` and `check_proof` keep across calls (`ghost.annotate`
    passes its tables to `check_proof`): `proofs` maps a forked thread's
    (body, co, cc), or a suffix after an exit or a loop skip, to its proof,
    and `checked` the id of a Fork premise or false-precondition node whose
    whole proof passed to that node.  An id is unique only among live
    objects, so an entry holds its object and a lookup counts only when the
    held object is the one looked up."""

    __slots__ = ("proofs", "checked")

    def __init__(self) -> None:
        self.proofs: dict[tuple[Command, int, int] | Command, ProofTree] = {}
        self.checked: dict[int, ProofTree] = {}


@dataclass(frozen=True)
class RuleViolation:
    path: tuple[int, ...]  # premise indices from the root
    reason: str

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.path) if self.path else "root"
        return f"{where}: {self.reason}"


# --- certificate checking ------------------------------------------------------


def check_proof(t: ProofTree, tables: ThreadTables | None = None) -> RuleViolation | None:
    """None when every node instantiates its rule schema; first failure otherwise.

    Nodes are checked in pre-order (a node, then its premises left to right),
    iteratively, so any depth works.  `open_premises[d]` holds the premises
    of the node at depth d - 1 of the current path, `(t,)` at d = 0, and
    `next_premise[d]` the index of the one to visit next; the path is read
    off them only when a node fails.  A Fork premise object or a node whose
    precondition is false (dead code, which `derive` proves once per suffix)
    that passed is not opened again: one opened in this call, or one held in
    `tables.checked`, whose entries this call adds to only when all of `t`
    passed.  A skipped node passed, so the first failure and its path are
    those of the unshared tree.
    """
    open_premises, next_premise = [(t,)], [0]
    opened: dict[int, ProofTree] = {}  # id of each Fork premise and dead node opened -> it
    checked = {} if tables is None else tables.checked
    while open_premises:
        premises = open_premises[-1]
        i = next_premise[-1]
        if i == len(premises):
            open_premises.pop()
            next_premise.pop()
            continue
        next_premise[-1] = i + 1
        p = premises[i]
        if type(p.conclusion.pre) is Bottom:
            if opened.get(id(p)) is p or checked.get(id(p)) is p:
                continue
            opened[id(p)] = p
        reason = _node_fault(p)
        if reason is not None:
            return RuleViolation(tuple(j - 1 for j in next_premise[1:]), reason)
        premises = p.premises
        if premises:
            if p.rule is RULE_FORK:
                premise = premises[0]
                if opened.get(id(premise)) is premise or checked.get(id(premise)) is premise:
                    continue
                opened[id(premise)] = premise
            open_premises.append(premises)
            next_premise.append(0)
    checked.update(opened)
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

    if rule is RULE_EXIT:
        if not isinstance(c.cmd, Exit):
            return "Exit rule applied to a non-exit command"
        if not (_single_chunk(c.pre) and c.pre.credits == 0):
            return "Exit precondition must be obs(n)"
        if not isinstance(c.post, Bottom):
            return "Exit postcondition must be false"
    elif rule is RULE_LOOP:
        if not isinstance(c.cmd, LoopSkip):
            return "Loop rule applied to a non-loop command"
        if c.pre != _LOOP_PRE:
            return "Loop precondition must be obs(0) * credit"
        if not isinstance(c.post, Bottom):
            return "Loop postcondition must be false"
    elif rule is RULE_FORK:
        if not isinstance(c.cmd, Fork):
            return "Fork rule applied to a non-fork command"
        split = t.data
        if not isinstance(split, ForkSplit):
            return "Fork node carries no resource split"
        p = premises[0].conclusion
        if p.cmd is not c.cmd.body:
            return "Fork premise command is not the fork body"
        if p.pre != Flat((split.child_obs,), split.child_credits):
            return "Fork premise precondition does not match the split"
        if p.post != OBS_ZERO:
            return "forked thread must end with obs(0)"
        if not _single_chunk(c.post):
            return "Fork postcondition must be obs(n) * credit^k"
        if c.pre != Flat((split.child_obs + c.post.obs[0],), split.child_credits + c.post.credits):
            return "Fork precondition must be the sum of split and remainder"
    elif rule is RULE_SEQ:
        if not isinstance(c.cmd, Seq):
            return "Seq rule applied to a non-sequence command"
        c1, c2 = premises[0].conclusion, premises[1].conclusion
        if c1.cmd is not c.cmd.first or c2.cmd is not c.cmd.second:
            return "Seq premise commands do not match the sequence"
        if c1.pre != c.pre:
            return "Seq precondition does not match first premise"
        if c1.post != c2.pre:
            return "Seq middle assertion mismatch"
        if c2.post != c.post:
            return "Seq postcondition does not match second premise"
    elif rule is RULE_VIEW_SHIFT:
        data = t.data
        if not isinstance(data, ShiftData):
            return "ViewShift node carries no intermediate assertions"
        p = premises[0].conclusion
        if p.cmd is not c.cmd:
            return "ViewShift premise command differs from conclusion"
        if p.pre != data.inner_pre:
            return "ViewShift premise precondition mismatch"
        if p.post != data.inner_post:
            return "ViewShift premise postcondition mismatch"
        if not view_shift(c.pre, data.inner_pre):
            return "pre-side view shift invalid"
        if not view_shift(data.inner_post, c.post):
            return "post-side view shift invalid"
    elif rule is RULE_FRAME:
        if not isinstance(t.data, FrameData):
            return "Frame node carries no frame assertion"
        frame = t.data.frame
        if isinstance(frame, Flat) and frame.obs:
            return "frames must not contain obs atoms"
        p = premises[0].conclusion
        if p.cmd is not c.cmd:
            return "Frame premise command differs from conclusion"
        if c.pre != flat_add(p.pre, frame):
            return "Frame precondition is not premise * frame"
        if c.post != flat_add(p.post, frame):
            return "Frame postcondition is not premise * frame"
    return None


# --- proof construction ----------------------------------------------------------


def _fork_choice(o: int, k: int, body: Command, rest: Continuation):
    """(delta, child_obs, child_credits) for a fork run in the feasible state
    (o, k), given its body and the atoms after it."""
    if not body.absorbing:
        return max(0, body.need - k), 0, body.need
    short = rest.need - (k - o)
    if rest.absorbing or short <= 0:
        return 0, 0, 0
    return max(0, short - o), short, 0


def derive(c: Command, n: int, tables: ThreadTables | None = None) -> ProofTree | None:
    """The proof of {obs(n)} c {obs(0)} built in one pass, or None when the
    start state (n, 0) is infeasible for `c` and so no proof exists.

    Iterative at any depth and length.  A thread's forward walk fixes its
    states and its forks' choices, and stops at a fork whose child (body,
    co, cc) has no proof yet to walk the child first; its proof is then
    built back to front, and every fork with that child names it.  It also
    stops at dead code (a suffix after an exit or a loop skip) that has a
    proof, which depends on the suffix alone.  The forked threads' and dead
    suffixes' proofs go to `tables.proofs` when given, and one found there
    is not walked again; the root's proof is not kept.
    """
    if not c.absorbing and -n < c.need:
        return None
    # (body, co, cc) of a forked thread, None for the root, or dead code -> its proof
    proofs: dict = {} if tables is None else tables.proofs
    todo = [(None, c, (n, 0), [])]  # threads walked: (key, next suffix, its state, walk so far)
    while todo:
        key, suffix, state, walk = todo.pop()
        while suffix is not DONE and (state is not None or suffix not in proofs):
            atom, rest = suffix.head, suffix.tail
            dead = state is None  # code after an exit or a loop skip
            if dead:
                state = (0, 0 if suffix.absorbing else suffix.need)
            o, k = state
            start, after, child = ((o, 0) if atom is EXIT else (0, 1)), None, None
            if isinstance(atom, Fork):
                delta, co, cc = _fork_choice(o, k, atom.body, rest)
                start, after = (o + delta, k + delta), (o + delta - co, k + delta - cc)
                child = (atom.body, co, cc)
            walk.append((suffix, atom, state, start, after, dead, child))
            suffix, state = rest, after
            if child is not None and child not in proofs:
                todo += ((key, suffix, state, walk), (child, atom.body, (co, cc), []))
                break
        else:  # the thread is walked: its proof, from its last atom or its dead code back
            t = proofs.get(suffix)
            required = t.conclusion.post if t is not None else OBS_ZERO if isinstance(walk[-1][1], Fork) else BOTTOM
            for suffix, atom, state, start, after, dead, child in reversed(walk):
                pre = state_assertion(*start)
                if child is None:
                    rule = RULE_EXIT if atom is EXIT else RULE_LOOP
                    node = ProofTree(HoareTriple(pre, atom, BOTTOM), rule)
                else:
                    post, split = state_assertion(*after), ForkSplit(child[1], child[2])
                    node = ProofTree(HoareTriple(pre, atom, post), RULE_FORK, (proofs[child],), split)
                if t is None:  # the last atom; a trailing fork shifts to obs(0)
                    t = node if required is BOTTOM or after == (0, 0) else _wrap(node, pre, required)
                else:
                    t = ProofTree(HoareTriple(pre, suffix, required), RULE_SEQ, (node, t))
                if start != state:
                    t = _wrap(t, state_assertion(*state), required)
                if dead:
                    t = proofs[suffix] = _wrap(t, BOTTOM, required)
            proofs[key] = t if required is OBS_ZERO else _wrap(t, t.conclusion.pre, OBS_ZERO)
    return proofs.pop(None)


def _wrap(t: ProofTree, pre: Assertion, post: Assertion) -> ProofTree:
    """View-shift wrapper around `t`, merging nested shifts into one node;
    every caller changes an end."""
    inner = t.premises[0] if t.rule is RULE_VIEW_SHIFT else t
    return ProofTree(
        HoareTriple(pre, t.conclusion.cmd, post),
        RULE_VIEW_SHIFT,
        (inner,),
        ShiftData(inner.conclusion.pre, inner.conclusion.post),
    )


def verify(c: Command, tables: ThreadTables | None = None) -> ProofTree | None:
    """Programs start without obligations or credits: prove {obs(0)} c {obs(0)}."""
    return derive(c, 0, tables)


# --- certificates -----------------------------------------------------------------

# The tags of each table and the number of parts each takes; the text of each
# command class's entry, and of each rule's node up to its `pre`.
_COMMAND_PARTS = {"exit": 0, "loop skip": 0, "fork": 1, "seq": 2}
_ASSERTION_PARTS = {"true": 0, "false": 0, "credit": 0, "obs": 1, "star": 2}
_COMMANDS = {"exit": Exit, "loop skip": LoopSkip, "fork": Fork, "seq": Seq}
_COMMAND_TEXT = {Exit: '"exit"', LoopSkip: '"loop skip"', Fork: '{"fork":%s}', Seq: '{"seq":[%s,%s]}'}
_NODE_HEAD = {rule: '{"rule":"%s","pre":' % rule.value for rule in Rule}
_RULES = {rule.value: rule for rule in Rule}
_WRITE = object()  # on `certificate_text`'s stack, just above a node that was opened


def certificate_text(t: ProofTree) -> str:
    """The certificate of `t` as one line of JSON (the module docstring has
    the format), as `json.dumps` writes it with separators "," and ":".

    The nodes are written in post-order, the root last, in one walk: popping
    a node opens it, putting it back under `_WRITE` with its premises on top,
    the first uppermost, and popping `_WRITE` writes the node beneath it.  A
    Fork premise is written once, just before the first Fork node that names
    it, and found again by its object's id in `shared`, which a Fork node
    whose premise is not there yet fills.  Every other node is written where
    it occurs, so a proof whose Fork nodes share no premise is written as a
    tree.  Each term the nodes name gets an entry the first time it is met,
    parts first, the right part before the left, and is found again by its
    object's id, or an assertion by value, so equal terms get one entry.  An
    assertion is written as the term `obs(n1) * ... * credit * ...`,
    left-associated, or `true` when it has no atoms and `false` for Bottom.
    """
    cmds: list[str] = []
    asserts: list[str] = []
    known: dict[int, str] = {}  # id of a term of `t` -> its entry, as text
    by_flat: dict[Assertion, str] = {}  # assertion -> its entry, as text
    by_part: dict = {}  # n of obs(n), a fieldless tag, or (i, j) of a star -> entry

    def command(term: Command) -> str:
        todo = [term]
        while id(term) not in known:
            x = todo[-1]
            parts = (x.first, x.second) if type(x) is Seq else (x.body,) if type(x) is Fork else ()
            missing = [p for p in parts if id(p) not in known]
            if missing:
                todo += missing
                continue
            todo.pop()
            if id(x) not in known:  # a shared part may be on `todo` twice
                known[id(x)] = str(len(cmds))
                cmds.append(_COMMAND_TEXT[type(x)] % tuple(map(known.__getitem__, map(id, parts))))
        return known[id(term)]

    def put(key, text: str) -> int:
        i = by_part.get(key)
        if i is None:
            i = by_part[key] = len(asserts)
            asserts.append(text)
        return i

    def assertion(f: Assertion) -> str:
        i = by_flat.get(f)
        if i is None:
            if isinstance(f, Bottom):
                i = put("false", '"false"')
            else:
                # obs(..) * credit^k stars obs(..) * credit^(k-1) with credit:
                # extend the longest such chain with an entry, or build the
                # one-credit chain as `f`'s atoms would be, registering each
                obs, k, start = f.obs, f.credits, None
                while k > 1 and start is None:
                    k -= 1
                    start = by_flat.get(Flat(obs, k))
                if start is None:
                    atoms = [(n, '{"obs":%d}' % n) for n in obs] + [("credit", '"credit"')] * k
                    parts = [put(*atom) for atom in reversed(atoms)] or [put("true", '"true"')]
                    i = parts.pop()
                    while parts:
                        j = parts.pop()
                        i = put((i, j), '{"star":[%d,%d]}' % (i, j))
                else:
                    i = int(start)
                for k in range(k + 1, f.credits + 1):
                    j = put("credit", '"credit"')
                    i = put((i, j), '{"star":[%d,%d]}' % (i, j))
                    by_flat[Flat(obs, k)] = str(i)
            i = by_flat[f] = str(i)
        known[id(f)] = i
        return i

    get = known.get
    nodes: list[str] = []
    done: list[str] = []  # written nodes whose parent is not written yet
    shared: dict[int, str] = {}  # id of a written Fork premise -> its entry
    todo: list = [t]  # nodes to open, and each opened node under `_WRITE`
    while todo:
        node = todo.pop()
        if node is _WRITE:
            node = todo.pop()
        elif node.premises and not (node.rule is RULE_FORK and id(node.premises[0]) in shared):
            todo += node, _WRITE, *node.premises[::-1]
            continue
        if node.rule is RULE_FORK:
            (premise,) = node.premises  # the rule takes one; any other count raises
            premises = shared.get(id(premise)) or shared.setdefault(id(premise), done.pop())
        else:
            cut = len(done) - len(node.premises)
            premises = ",".join(done[cut:])
            del done[cut:]
        c, data = node.conclusion, node.data
        text = (
            f'{_NODE_HEAD[node.rule]}{get(id(c.pre)) or assertion(c.pre)},"cmd":{get(id(c.cmd)) or command(c.cmd)},'
            f'"post":{get(id(c.post)) or assertion(c.post)},"premises":[{premises}]'
        )
        if type(data) is ForkSplit:
            text += f',"childObs":{data.child_obs},"childCredits":{data.child_credits}'
        elif type(data) is ShiftData:
            pre, post = data
            text += f',"innerPre":{get(id(pre)) or assertion(pre)},"innerPost":{get(id(post)) or assertion(post)}'
        elif type(data) is FrameData:
            text += f',"frame":{assertion(data.frame)}'
        done.append(str(len(nodes)))
        nodes.append(text + "}")
    return '{"format":2,"cmds":[%s],"asserts":[%s],"nodes":[%s],"root":%d}' % (
        ",".join(cmds), ",".join(asserts), ",".join(nodes), len(nodes) - 1
    )


class CertificateError(ValueError):
    pass


def from_json_dict(data: dict) -> ProofTree:
    """The proof tree a certificate describes.

    One forward pass checks each table (`_read_table`); equal commands load
    as one object, and each assertion entry is summarized from the entries
    it names (`summarize`).  One loop then checks and builds the nodes; an
    entry a node names is normalized the first time it is named.
    A node is built once and stands for each place it is named, so the
    premise of several Fork nodes loads as one object.
    CertificateError names the fault: a format other than 2, an index of no
    earlier entry, an entry not in the form the module docstring gives, named
    assertions that hold more obs atoms in all than `asserts` has entries (so
    reading stays linear in the file), or a node that is the premise of two
    nodes that are not both Fork nodes (so `check_proof`, which opens each
    Fork premise once, visits no more nodes than the file has).
    """
    if not isinstance(data, dict) or data.get("format") != 2:
        raise CertificateError('unsupported certificate format: expected an object with "format": 2')
    try:
        cmds: list[Command] = []  # equal entries build one object (`lang` interns)
        for tag, parts in _read_table(data["cmds"], "cmds", _COMMAND_PARTS):
            cmds.append(_COMMANDS[tag](*map(cmds.__getitem__, parts)))
        asserts: list = []
        for tag, parts in _read_table(data["asserts"], "asserts", _ASSERTION_PARTS):
            asserts.append(summarize(asserts, tag, parts))
        flats: dict[int, Assertion] = {}  # entry -> its normal form, once a node names it
        room = len(asserts)  # obs atoms the named entries may still hold

        def assertion(i) -> Assertion:
            nonlocal room
            _at(asserts, i)
            f = flats[i] = normalize_assertion(asserts, i)
            room -= 0 if f is BOTTOM else len(f.obs)
            if room < 0:
                raise CertificateError(
                    "malformed certificate: the assertions the nodes name hold more obs atoms than asserts has entries"
                )
            return f

        # local names, since a global or an Enum member costs a lookup per node; records are
        # built by `tuple.__new__`, as NamedTuple's generated `__new__` is a Python call
        new, rules, fork, view_shift_rule, frame = tuple.__new__, _RULES, Rule.FORK, Rule.VIEW_SHIFT, Rule.FRAME
        nodes: list[ProofTree] = []
        forked: list[int] = []  # the premise indices of the Fork nodes
        named: list[int] = []  # those of the other nodes
        for e in data["nodes"]:
            ps = e["premises"]
            premises = tuple([nodes[i] for i in ps if type(i) is int and 0 <= i < len(nodes)])
            if len(premises) != len(ps):
                _at(nodes, next(i for i in ps if type(i) is not int or not 0 <= i < len(nodes)))
            r = e["rule"]
            rule = type(r) is str and rules.get(r) or Rule(r)
            extra: ForkSplit | ShiftData | FrameData | None = None
            if rule is fork:
                forked += ps
                extra = new(ForkSplit, (_count(e["childObs"]), _count(e["childCredits"])))
            else:
                named += ps
                if rule is view_shift_rule:
                    x = e["innerPre"]
                    x = type(x) is int and flats.get(x) or assertion(x)
                    y = e["innerPost"]
                    extra = new(ShiftData, (x, type(y) is int and flats.get(y) or assertion(y)))
                elif rule is frame:
                    x = e["frame"]
                    extra = new(FrameData, (type(x) is int and flats.get(x) or assertion(x),))
            x = e["pre"]
            pre = type(x) is int and flats.get(x) or assertion(x)
            x = e["cmd"]
            cmd = cmds[x] if type(x) is int and 0 <= x < len(cmds) else _at(cmds, x)
            x = e["post"]
            post = type(x) is int and flats.get(x) or assertion(x)
            nodes.append(new(ProofTree, (new(HoareTriple, (pre, cmd, post)), rule, premises, extra)))
        once = set(named)
        if len(once) < len(named) or not once.isdisjoint(forked):
            raise CertificateError(
                "malformed certificate: a node is the premise of two nodes that are not both Fork nodes"
            )
        return _at(nodes, data["root"])
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


def _read_table(entries: list, name: str, arity: dict[str, int]):
    """The entries of table `name`, each as (tag, parts), checked one by one
    as the caller takes them.

    Each entry is a tag of the table or an object of one such tag, with as
    many parts as `arity` gives, each the index of an earlier entry (a count
    for `obs`).  The first part of a seq is no seq and the right part of a
    star no star, so a star adds at most one atom to the assertion it builds.
    """
    if not isinstance(entries, list):
        raise CertificateError(f"malformed certificate: {name} is not a list")
    tags: list[str] = []
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
                _at(tags, i)
        if tag == "seq" and tags[parts[0]] == "seq":
            raise CertificateError("malformed certificate: the first part of a seq is a seq")
        if tag == "star" and tags[parts[1]] == "star":
            raise CertificateError("malformed certificate: the right part of a star is a star")
        tags.append(tag)
        yield tag, parts


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_text(t) + "\n")


def load_certificate(path: str) -> ProofTree:
    with open(path, encoding="utf-8") as fh:
        try:
            entry = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise CertificateError(f"not valid JSON: {exc}") from exc
    return from_json_dict(entry)

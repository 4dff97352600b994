"""Hoare-triple proof objects, the certificate checker, and proof search.

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
violation with its root-to-leaf path.  `derive` searches for a proof of
{obs(n)} c {obs(0)} by symbolic execution over single-chunk ghost states
(obligations, credits), trying ghost pair moves and fork splits smallest
first, so the returned certificate is minimal; the regression suite pins
the exact certificate shape for `fork { exit }; loop skip`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .assertions import (
    FALSE,
    Assertion,
    Bottom,
    Flat,
    Obs,
    OBS_ZERO,
    Star,
    flat_add,
    flat_eq,
    normalize as normalize_assertion,
    parse_assertion,
    pretty_assertion,
    state_assertion,
    view_shift,
)
from .lang import (
    Command,
    Exit,
    Fork,
    LoopSkip,
    Printer,
    Seq,
    last_atom,
    normalize,
    parse,
    size,
)

# Not called here: the exact view-shift rule has no third answer.  The old
# name stays importable from this module because perfbench/tracing.py wraps it.
view_shift_status = view_shift


@dataclass(frozen=True)
class HoareTriple:
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


@dataclass(frozen=True)
class ForkSplit:
    """Resources handed to the forked thread."""

    child_obs: int
    child_credits: int


@dataclass(frozen=True)
class ShiftData:
    """Intermediate pre'/post' of a ViewShift node."""

    inner_pre: Assertion
    inner_post: Assertion


@dataclass(frozen=True)
class FrameData:
    frame: Assertion


@dataclass(frozen=True)
class ProofTree:
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


def tree_size(t: ProofTree) -> int:
    return 1 + sum(tree_size(p) for p in t.premises)


# --- certificate checking ------------------------------------------------------


def check_proof(t: ProofTree) -> RuleViolation | None:
    """None when every node instantiates its rule schema; first failure otherwise."""
    return _check_node(t, ())


def _violation(path: tuple[int, ...], reason: str) -> RuleViolation:
    return RuleViolation(path, reason)


def _single_chunk(f) -> bool:
    return isinstance(f, Flat) and len(f.obs) == 1


def _has_obs_atom(a: Assertion) -> bool:
    if isinstance(a, Obs):
        return True
    if isinstance(a, Star):
        return _has_obs_atom(a.left) or _has_obs_atom(a.right)
    return False


def _check_node(t: ProofTree, path: tuple[int, ...]) -> RuleViolation | None:
    c = t.conclusion
    want = _PREMISE_COUNT.get(t.rule)
    if want is None:
        return _violation(path, f"unknown rule {t.rule!r}")
    if len(t.premises) != want:
        return _violation(path, f"{t.rule.value} takes {want} premises, got {len(t.premises)}")

    npre = normalize_assertion(c.pre)
    npost = normalize_assertion(c.post)

    if t.rule is Rule.EXIT:
        if not isinstance(c.cmd, Exit):
            return _violation(path, "Exit rule applied to a non-exit command")
        if not (_single_chunk(npre) and npre.credits == 0):
            return _violation(path, "Exit precondition must be obs(n)")
        if not isinstance(npost, Bottom):
            return _violation(path, "Exit postcondition must be false")
    elif t.rule is Rule.LOOP:
        if not isinstance(c.cmd, LoopSkip):
            return _violation(path, "Loop rule applied to a non-loop command")
        if npre != Flat((0,), 1):
            return _violation(path, "Loop precondition must be obs(0) * credit")
        if not isinstance(npost, Bottom):
            return _violation(path, "Loop postcondition must be false")
    elif t.rule is Rule.FORK:
        if not isinstance(c.cmd, Fork):
            return _violation(path, "Fork rule applied to a non-fork command")
        if not isinstance(t.data, ForkSplit):
            return _violation(path, "Fork node carries no resource split")
        p = t.premises[0]
        if p.conclusion.cmd != c.cmd.body:
            return _violation(path, "Fork premise command is not the fork body")
        if normalize_assertion(p.conclusion.pre) != Flat((t.data.child_obs,), t.data.child_credits):
            return _violation(path, "Fork premise precondition does not match the split")
        if normalize_assertion(p.conclusion.post) != Flat((0,), 0):
            return _violation(path, "forked thread must end with obs(0)")
        if not _single_chunk(npost):
            return _violation(path, "Fork postcondition must be obs(n) * credit^k")
        if npre != Flat(
            (t.data.child_obs + npost.obs[0],), t.data.child_credits + npost.credits
        ):
            return _violation(path, "Fork precondition must be the sum of split and remainder")
    elif t.rule is Rule.SEQ:
        if not isinstance(c.cmd, Seq):
            return _violation(path, "Seq rule applied to a non-sequence command")
        p1, p2 = t.premises
        if p1.conclusion.cmd != c.cmd.first or p2.conclusion.cmd != c.cmd.second:
            return _violation(path, "Seq premise commands do not match the sequence")
        if normalize_assertion(p1.conclusion.pre) != npre:
            return _violation(path, "Seq precondition does not match first premise")
        if normalize_assertion(p1.conclusion.post) != normalize_assertion(p2.conclusion.pre):
            return _violation(path, "Seq middle assertion mismatch")
        if normalize_assertion(p2.conclusion.post) != npost:
            return _violation(path, "Seq postcondition does not match second premise")
    elif t.rule is Rule.VIEW_SHIFT:
        if not isinstance(t.data, ShiftData):
            return _violation(path, "ViewShift node carries no intermediate assertions")
        p = t.premises[0]
        if p.conclusion.cmd != c.cmd:
            return _violation(path, "ViewShift premise command differs from conclusion")
        if normalize_assertion(p.conclusion.pre) != normalize_assertion(t.data.inner_pre):
            return _violation(path, "ViewShift premise precondition mismatch")
        if normalize_assertion(p.conclusion.post) != normalize_assertion(t.data.inner_post):
            return _violation(path, "ViewShift premise postcondition mismatch")
        if not view_shift(c.pre, t.data.inner_pre):
            return _violation(path, "pre-side view shift invalid")
        if not view_shift(t.data.inner_post, c.post):
            return _violation(path, "post-side view shift invalid")
    elif t.rule is Rule.FRAME:
        if not isinstance(t.data, FrameData):
            return _violation(path, "Frame node carries no frame assertion")
        if _has_obs_atom(t.data.frame):
            return _violation(path, "frames must not contain obs atoms")
        p = t.premises[0]
        if p.conclusion.cmd != c.cmd:
            return _violation(path, "Frame premise command differs from conclusion")
        if npre != flat_add(normalize_assertion(p.conclusion.pre), normalize_assertion(t.data.frame)):
            return _violation(path, "Frame precondition is not premise * frame")
        if npost != flat_add(normalize_assertion(p.conclusion.post), normalize_assertion(t.data.frame)):
            return _violation(path, "Frame postcondition is not premise * frame")

    for i, p in enumerate(t.premises):
        bad = _check_node(p, path + (i,))
        if bad is not None:
            return bad
    return None


# --- proof search ----------------------------------------------------------------

_DeadState = None  # symbolic state after a verified exit or loop: assertion `false`


def _deadly(atom: Command) -> bool:
    return isinstance(atom, (Exit, LoopSkip))


class _Search:
    """Bounded search for {obs(o) * credit^c} cmd {obs(0)} derivations.

    Symbolic state is the thread's single chunk value plus credit count; the
    dead state (after exit/loop, assertion `false`) is None.  Ghost pair
    moves per atom are bounded by the root command's atom count, which
    suffices: extra introductions only ever add matched pairs.

    Branches are pruned by an exact feasibility measure.  A command is
    *absorbing* when its live path ends in exit, directly or through a live
    fork child: such a thread can discharge any chunk.  Otherwise ghost pair
    moves preserve credits-minus-obligations, splits distribute it, and each
    live busy-wait ending consumes one credit, so a state (o, c) works iff
    c - o covers the count of live loop endings.
    """

    def __init__(self, intro_budget: int):
        self.intro_budget = intro_budget
        self.memo: dict = {}
        self.features: dict[int, tuple[bool, int]] = {}

    def _features(self, cmd: Command) -> tuple[bool, int]:
        """(absorbing, credits needed) of `cmd` run as a thread body."""
        cached = self.features.get(id(cmd))
        if cached is not None:
            return cached
        if isinstance(cmd, Seq):
            head, rest = cmd.first, cmd.second
            if isinstance(head, Exit):
                result = (True, 0)
            elif isinstance(head, LoopSkip):
                result = (False, 1)
            else:
                absorbing_body, need_body = self._features(head.body)
                absorbing_rest, need_rest = self._features(rest)
                result = (absorbing_body or absorbing_rest, need_body + need_rest)
        elif isinstance(cmd, Exit):
            result = (True, 0)
        elif isinstance(cmd, LoopSkip):
            result = (False, 1)
        else:
            result = self._features(cmd.body)
        self.features[id(cmd)] = result
        return result

    def feasible(self, cmd: Command, obs_count: int, credit_count: int) -> bool:
        absorbing, need = self._features(cmd)
        return absorbing or credit_count - obs_count >= need

    def thread(self, obs_count: int, credit_count: int, cmd: Command) -> ProofTree | None:
        """Derivation of {obs(o) * credit^c} cmd {obs(0)}, or None."""
        key = (id(cmd), obs_count, credit_count)
        if key in self.memo:
            return self.memo[key]
        required = FALSE if _deadly(last_atom(cmd)) else OBS_ZERO
        t = self.seq((obs_count, credit_count), cmd, required)
        if t is not None and required is FALSE:
            t = _wrap(t, t.conclusion.pre, OBS_ZERO)
        self.memo[key] = t
        return t

    def seq(self, state, cmd: Command, required: Assertion) -> ProofTree | None:
        key = (id(cmd), state, required is FALSE)
        if key in self.memo:
            return self.memo[key]
        t = self._seq_uncached(state, cmd, required)
        self.memo[key] = t
        return t

    def _seq_uncached(self, state, cmd: Command, required: Assertion) -> ProofTree | None:
        if state is _DeadState:
            # unreachable code after exit/loop: conjure the weakest workable
            # start from `false`; obligations only burden, so none are taken
            absorbing, need = self._features(cmd)
            t = self.seq((0, 0 if absorbing else need), cmd, required)
            if t is None:
                return None
            return _wrap_dead(t, required)
        if not self.feasible(cmd, *state):
            return None

        if isinstance(cmd, Seq):
            first, rest = cmd.first, cmd.second
        else:
            first, rest = cmd, None
        for state1, node1, after in self._atom_options(state, first, rest):
            if rest is None:
                t = self._finish_atom(node1, after, required)
            else:
                t2 = self.seq(after, rest, required)
                if t2 is None:
                    continue
                t = ProofTree(
                    HoareTriple(node1.conclusion.pre, cmd, required),
                    Rule.SEQ,
                    (node1, t2),
                )
            if t is None:
                continue
            if state1 != state:
                t = _wrap(t, state_assertion(*state), t.conclusion.post)
            return t
        return None

    def _finish_atom(self, node1: ProofTree, after, required: Assertion) -> ProofTree | None:
        post = node1.conclusion.post
        if flat_eq(post, required):
            return node1
        if view_shift(post, required):
            return _wrap(node1, node1.conclusion.pre, required)
        return None

    def _atom_options(self, state, atom: Command, rest: Command | None):
        """Yield (pre-shift state, proof node, state after) smallest first."""
        o, c = state
        if isinstance(atom, Exit):
            pre = state_assertion(o, 0)
            node = ProofTree(HoareTriple(pre, atom, FALSE), Rule.EXIT)
            yield (o, 0), node, _DeadState
            return
        if isinstance(atom, LoopSkip):
            if c >= o + 1:  # cancel the chunk away and keep one credit
                pre = state_assertion(0, 1)
                node = ProofTree(HoareTriple(pre, atom, FALSE), Rule.LOOP)
                yield (0, 1), node, _DeadState
            return
        assert isinstance(atom, Fork)
        for delta in _ghost_deltas(o, c, self.intro_budget):
            o1, c1 = o + delta, c + delta
            for child_obs, child_credits in _splits_ascending(o1, c1):
                if not self.feasible(atom.body, child_obs, child_credits):
                    continue
                keep = (o1 - child_obs, c1 - child_credits)
                if rest is None:
                    # trailing fork: the remainder must shift to obs(0)
                    if keep[1] - keep[0] < 0:
                        continue
                elif not self.feasible(rest, *keep):
                    continue
                child = self.thread(child_obs, child_credits, atom.body)
                if child is None:
                    continue
                node = ProofTree(
                    HoareTriple(state_assertion(o1, c1), atom, state_assertion(*keep)),
                    Rule.FORK,
                    (child,),
                    ForkSplit(child_obs, child_credits),
                )
                yield (o1, c1), node, keep


def _ghost_deltas(o: int, c: int, budget: int):
    yield 0
    for d in range(1, budget + 1):
        yield d
        if o - d >= 0 and c - d >= 0:
            yield -d


def _splits_ascending(o: int, c: int):
    for total in range(o + c + 1):
        for child_obs in range(min(total, o) + 1):
            child_credits = total - child_obs
            if child_credits <= c:
                yield child_obs, child_credits


def _wrap(t: ProofTree, pre: Assertion, post: Assertion) -> ProofTree:
    """View-shift wrapper around `t`, merging nested shifts into one node."""
    if pre == t.conclusion.pre and post == t.conclusion.post:
        return t
    if t.rule is Rule.VIEW_SHIFT:
        inner = t.premises[0]
        return ProofTree(
            HoareTriple(pre, t.conclusion.cmd, post),
            Rule.VIEW_SHIFT,
            (inner,),
            ShiftData(inner.conclusion.pre, inner.conclusion.post),
        )
    return ProofTree(
        HoareTriple(pre, t.conclusion.cmd, post),
        Rule.VIEW_SHIFT,
        (t,),
        ShiftData(t.conclusion.pre, t.conclusion.post),
    )


def _wrap_dead(t: ProofTree, required: Assertion) -> ProofTree:
    return _wrap(t, FALSE, required)


def derive(c: Command, n: int) -> ProofTree | None:
    """Search for a proof of {obs(n)} c {obs(0)}; None when the bounded
    search is exhaustive for its budget and fails."""
    c = normalize(c)
    search = _Search(intro_budget=size(c))
    return search.thread(n, 0, c)


def verify(c: Command) -> ProofTree | None:
    """Programs start without obligations or credits: prove {obs(0)} c {obs(0)}."""
    return derive(c, 0)


# --- certificates -----------------------------------------------------------------


def to_json_dict(t: ProofTree) -> dict:
    return _to_entry(t, Printer())


def _to_entry(t: ProofTree, printer: Printer) -> dict:
    entry: dict = {
        "rule": t.rule.value,
        "pre": pretty_assertion(t.conclusion.pre),
        "cmd": printer.command(t.conclusion.cmd),
        "post": pretty_assertion(t.conclusion.post),
        "premises": [_to_entry(p, printer) for p in t.premises],
    }
    if isinstance(t.data, ForkSplit):
        entry["ruleData"] = {"childObs": t.data.child_obs, "childCredits": t.data.child_credits}
    elif isinstance(t.data, ShiftData):
        entry["ruleData"] = {
            "innerPre": pretty_assertion(t.data.inner_pre),
            "innerPost": pretty_assertion(t.data.inner_post),
        }
    elif isinstance(t.data, FrameData):
        entry["ruleData"] = {"frame": pretty_assertion(t.data.frame)}
    else:
        entry["ruleData"] = None
    return entry


class CertificateError(ValueError):
    pass


def from_json_dict(entry: dict) -> ProofTree:
    """The proof tree a certificate entry describes.

    The root `cmd` is parsed.  A premise whose `cmd` text is the printed
    form of the sub-command its rule implies (Seq: `first`/`second`, Fork:
    `body`, ViewShift/Frame: the same command) gets that very object, so the
    shared subterms compare by identity in `check_proof`; any other text is
    parsed.  Either way the premise's command equals `parse` of its text.
    """
    return _from_entry(entry, None, Printer())


def _implied_cmds(rule: Rule, cmd: Command) -> tuple[Command, ...]:
    """The premise commands `rule` demands of a conclusion about `cmd`."""
    if rule is Rule.SEQ and isinstance(cmd, Seq):
        return (cmd.first, cmd.second)
    if rule is Rule.FORK and isinstance(cmd, Fork):
        return (cmd.body,)
    if rule is Rule.VIEW_SHIFT or rule is Rule.FRAME:
        return (cmd,)
    return ()


def _from_entry(entry: dict, implied: Command | None, printer: Printer) -> ProofTree:
    # `implied` is None or a subterm of a parsed command, hence normalized:
    # equal text means parse(text) == implied
    try:
        rule = Rule(entry["rule"])
        pre = parse_assertion(entry["pre"])
        text = entry["cmd"]
        cmd = implied if implied is not None and text == printer.command(implied) else parse(text)
        triple = HoareTriple(pre, cmd, parse_assertion(entry["post"]))
        hints = _implied_cmds(rule, cmd)
        premises = []
        for i, p in enumerate(entry.get("premises", [])):
            premises.append(_from_entry(p, hints[i] if i < len(hints) else None, printer))
        raw = entry.get("ruleData")
        data: ForkSplit | ShiftData | FrameData | None = None
        if rule is Rule.FORK and raw is not None:
            data = ForkSplit(int(raw["childObs"]), int(raw["childCredits"]))
        elif rule is Rule.VIEW_SHIFT and raw is not None:
            data = ShiftData(parse_assertion(raw["innerPre"]), parse_assertion(raw["innerPost"]))
        elif rule is Rule.FRAME and raw is not None:
            data = FrameData(parse_assertion(raw["frame"]))
    except CertificateError:
        raise  # from a premise, already worded
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    return ProofTree(triple, rule, tuple(premises), data)


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

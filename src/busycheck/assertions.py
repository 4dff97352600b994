"""Ghost-resource assertions: terms, normal forms, view shifts.

`obs(n)` asserts possession of one full chunk holding exactly n exit
obligations; `credit` asserts at least one busy-wait credit.  Assertions are
built from `true`, `false`, `*`, `obs(n)`, and `credit` only.

Their meaning is the standard separating-conjunction model over resource
bundles (multisets of chunk values plus a credit count), so the model is
affine: extra resources never falsify an assertion.  The tests hold the
closed forms here to that model (`satisfies` in `tests/reference.py`).
Every assertion normalizes to either Bottom (contains `false`) or a flat form
(multiset of obs atoms, credit-atom count); view shifts, the logic's only
implication (weakening included), are decided on flats.

A view shift may (i) trade `obs(n)` for `obs(n+1) * credit` and back (pairs
are spawned and cancelled together, never one-sided), (ii) weaken
semantically, and (iii) chain transitively.  On flats this relation has an
exact closed form (`view_shift`): a target with fewer obs atoms is always
reached, one with more never, and with equal counts the shift holds iff
sum(obs) - k <= sum(obs') - k'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple


# --- assertion terms --------------------------------------------------------


class Assertion:
    __slots__ = ()

    @cached_property
    def normal_form(self) -> "NormalizedAssertion":
        """`normalize(self)`, computed on first use and kept on the object.

        Assertions are frozen, so the kept form never goes stale, and an
        assertion shared by many proof nodes is flattened once.
        """
        return _flatten(self)


@dataclass(frozen=True)
class TrueA(Assertion):
    pass


@dataclass(frozen=True)
class FalseA(Assertion):
    pass


@dataclass(frozen=True)
class Obs(Assertion):
    count: int


@dataclass(frozen=True)
class Credit(Assertion):
    pass


@dataclass(frozen=True)
class Star(Assertion):
    left: Assertion
    right: Assertion


TRUE = TrueA()
FALSE = FalseA()
CREDIT = Credit()
OBS_ZERO = Obs(0)


def star(*parts: Assertion) -> Assertion:
    """Left-associated separating conjunction of the given parts."""
    if not parts:
        return TRUE
    acc = parts[0]
    for p in parts[1:]:
        acc = Star(acc, p)
    return acc


@lru_cache(maxsize=1024)
def state_assertion(obs_count: int, credit_count: int) -> Assertion:
    """Canonical rendering of a single-chunk ghost state: obs(n) * credit^k.

    The recently used states are kept, so the proof nodes built for one state
    share one assertion object and its normal form.
    """
    return star(Obs(obs_count), *([CREDIT] * credit_count))


# --- normal form --------------------------------------------------------------


@dataclass(frozen=True)
class Bottom:
    pass


class Flat(NamedTuple):
    obs: tuple[int, ...]  # sorted multiset of obs atoms
    credits: int  # number of credit atoms


BOTTOM = Bottom()

NormalizedAssertion = Bottom | Flat


def normalize(a: Assertion) -> NormalizedAssertion:
    """Flatten stars; `true` is the unit, any `false` collapses to Bottom.

    Computed once per assertion object (`Assertion.normal_form`).
    """
    if not isinstance(a, Assertion):
        raise TypeError(f"not an assertion: {a!r}")
    return a.normal_form


def _flatten(a: Assertion) -> NormalizedAssertion:
    obs: list[int] = []
    credits = 0
    stack = [a]
    while stack:
        node = stack.pop()
        if isinstance(node, Star):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Obs):
            obs.append(node.count)
        elif isinstance(node, Credit):
            credits += 1
        elif isinstance(node, FalseA):
            return BOTTOM
        elif not isinstance(node, TrueA):
            raise TypeError(f"not an assertion: {node!r}")
    return Flat(tuple(sorted(obs)), credits)


def flat_add(x: NormalizedAssertion, y: NormalizedAssertion) -> NormalizedAssertion:
    if isinstance(x, Bottom) or isinstance(y, Bottom):
        return BOTTOM
    return Flat(tuple(sorted(x.obs + y.obs)), x.credits + y.credits)


# --- view shifts ----------------------------------------------------------------


def view_shift(a: Assertion, b: Assertion) -> bool:
    """Exact view-shift decision on normalized flats.

    A pair move turns `obs(n)` into `obs(n+1) * credit` or back, so it keeps
    the sum of obs atoms minus credits; no move creates or merges obs atoms.
    Hence with equal atom counts the target is reachable iff
    `sum(obs) - k <= sum(obs') - k'`: move every atom to its target value,
    raising before lowering so credits never run out, then drop the spare
    credits.  A target with more atoms is out of reach, and one with fewer is
    always reached: inflate a spare atom to mint the credits, then drop it.
    """
    na, nb = normalize(a), normalize(b)
    if isinstance(na, Bottom):
        return True
    if isinstance(nb, Bottom):
        return False
    if len(nb.obs) != len(na.obs):
        return len(nb.obs) < len(na.obs)
    return sum(na.obs) - na.credits <= sum(nb.obs) - nb.credits

"""Ghost-resource assertions: bundles, satisfaction, entailment, view shifts.

A resource bundle is a multiset of obligations-chunk values plus a credit
count.  `obs(n)` asserts possession of one full chunk holding exactly n exit
obligations; `credit` asserts at least one busy-wait credit.  Assertions are
built from `true`, `false`, `*`, `obs(n)`, and `credit` only.

Satisfaction is the standard separating-conjunction model over bundle union,
so the model is affine: extra resources never falsify an assertion.  Every
assertion normalizes to either Bottom (contains `false`) or a flat form
(multiset of obs atoms, credit-atom count); entailment and view shifts are
decided on flats.

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

    @property
    def complete(self) -> bool:
        """A thread's bundle: exactly one obligations chunk."""
        return len(self.chunks) == 1


def bundle(chunks: tuple[int, ...] | list[int], credits: int) -> ResourceBundle:
    return ResourceBundle(tuple(chunks), credits)


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


# --- satisfaction (model relation) -------------------------------------------


def _splits(b: ResourceBundle):
    n = len(b.chunks)
    for mask in range(1 << n):
        left = tuple(v for i, v in enumerate(b.chunks) if mask >> i & 1)
        right = tuple(v for i, v in enumerate(b.chunks) if not mask >> i & 1)
        for c in range(b.credits + 1):
            yield ResourceBundle(left, c), ResourceBundle(right, b.credits - c)


def satisfies(b: ResourceBundle, a: Assertion) -> bool:
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


# --- normal form --------------------------------------------------------------


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Flat:
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


def satisfies_flat(b: ResourceBundle, f: NormalizedAssertion) -> bool:
    if isinstance(f, Bottom):
        return False
    return _multiset_leq(f.obs, b.chunks) and b.credits >= f.credits


def flat_eq(a: Assertion, b: Assertion) -> bool:
    return normalize(a) == normalize(b)


def flat_add(x: NormalizedAssertion, y: NormalizedAssertion) -> NormalizedAssertion:
    if isinstance(x, Bottom) or isinstance(y, Bottom):
        return BOTTOM
    return Flat(tuple(sorted(x.obs + y.obs)), x.credits + y.credits)


# --- entailment ----------------------------------------------------------------


def entails(a: Assertion, b: Assertion) -> bool:
    """Semantic implication: every bundle satisfying `a` satisfies `b`.

    On flats this is multiset inclusion of obs atoms plus a credit bound; the
    witness bundle equal to `a`'s own flat makes the criterion complete.
    """
    na, nb = normalize(a), normalize(b)
    if isinstance(na, Bottom):
        return True
    if isinstance(nb, Bottom):
        return False
    return _multiset_leq(nb.obs, na.obs) and nb.credits <= na.credits


def _multiset_leq(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    remaining = list(big)
    for v in small:
        if v not in remaining:
            return False
        remaining.remove(v)
    return True


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

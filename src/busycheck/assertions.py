"""Ghost-resource assertions as their normal forms, and view shifts.

`obs(n)` asserts one full chunk holding exactly n exit obligations and
`credit` at least one busy-wait credit; assertions join them with `*`, `true`
and `false`.  The verifier holds only their normal forms: Bottom when `false`
occurs, else a flat form, the multiset of obs atoms and the count of credit
atoms.  Terms exist only in certificates, whose tables `summarize` and
`normalize` read.  Their meaning is the separating-conjunction model over
resource bundles (chunk values plus a credit count), which is affine; the
tests hold the forms here to it (`satisfies` in `tests/reference.py`).

A view shift, the logic's only implication, may trade `obs(n)` for
`obs(n+1) * credit` and back (pairs are spawned and cancelled together),
weaken, and chain.  On flats it has an exact closed form (`view_shift`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


@dataclass(frozen=True)
class Bottom:
    pass


class Flat(NamedTuple):
    obs: tuple[int, ...]  # sorted multiset of obs atoms
    credits: int  # number of credit atoms


BOTTOM = Bottom()
OBS_ZERO = Flat((0,), 0)

Assertion = Flat | Bottom


@lru_cache(maxsize=1024)
def state_assertion(obs_count: int, credit_count: int) -> Flat:
    """obs(n) * credit^k; proof nodes built for one recent state share one object."""
    return Flat((obs_count,), credit_count)


def flat_add(x: Assertion, y: Assertion) -> Assertion:
    if isinstance(x, Bottom) or isinstance(y, Bottom):
        return BOTTOM
    return Flat(tuple(sorted(x.obs + y.obs)), x.credits + y.credits)


# What `summarize` gives for each entry tag that takes no parts.
_LEAVES = {"true": (0, ()), "credit": (1, ()), "false": BOTTOM}


def summarize(table: list, tag: str, parts: list):
    """The summary of a certificate's `asserts` entry, from its tag and parts
    (`[n]` for `obs(n)`, the indices of the two sides for `star`) and the
    summaries of the earlier entries in `table`.

    A summary is Bottom when `false` occurs, else (credits, obs): the number
    of credit atoms and the obs atoms as a linked list (n, rest) or ().  A
    star shares its left side's list and adds its right side's atoms to it,
    one step when the right side is no star, so a table is summarized in
    one pass however many entries name one another.
    """
    if tag == "obs":
        return 0, (parts[0], ())
    if tag != "star":
        return _LEAVES[tag]
    left, right = table[parts[0]], table[parts[1]]
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    obs, rest = left[1], right[1]
    while rest:
        n, rest = rest
        obs = (n, obs)
    return left[0] + right[0], obs


def normalize(table: list, i: int) -> Assertion:
    """The normal form of entry `i` of a table of `summarize`d entries: `true`
    is the unit of `*`, and any `false` collapses it to Bottom."""
    summary = table[i]
    if summary is BOTTOM:
        return BOTTOM
    credits, rest = summary
    obs = []
    while rest:
        n, rest = rest
        obs.append(n)
    return Flat(tuple(sorted(obs)), credits)


def view_shift(a: Assertion, b: Assertion) -> bool:
    """Exact view-shift decision on normal forms.

    A pair move turns `obs(n)` into `obs(n+1) * credit` or back, so it keeps
    the sum of obs atoms minus credits; no move creates or merges obs atoms.
    Hence with equal atom counts the target is reachable iff
    `sum(obs) - k <= sum(obs') - k'`: move every atom to its target value,
    raising before lowering so credits never run out, then drop the spare
    credits.  A target with more atoms is out of reach, and one with fewer is
    always reached: inflate a spare atom to mint the credits, then drop it.
    """
    if isinstance(a, Bottom):
        return True
    if isinstance(b, Bottom):
        return False
    if len(b.obs) != len(a.obs):
        return len(b.obs) < len(a.obs)
    return sum(a.obs) - a.credits <= sum(b.obs) - b.credits

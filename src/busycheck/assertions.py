"""Ghost-resource assertions as their normal forms, and view shifts.

`obs(n)` asserts one full chunk holding exactly n exit obligations and
`credit` at least one busy-wait credit; assertions join them with `*`, `true`
and `false`.  The verifier holds only their normal forms: Bottom when `false`
occurs, else a flat form, the multiset of obs atoms and the count of credit
atoms.  Terms exist only in certificates, whose tables `normalize` reads.
Their meaning is the separating-conjunction model over resource bundles
(chunk values plus a credit count), which is affine; the tests hold the forms
here to it (`satisfies` in `tests/reference.py`).

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


def normalize(table: list[tuple], i: int, memo: dict[int, Assertion]) -> Assertion:
    """The normal form of entry `i` of a certificate's `asserts` table.

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

import itertools
import random
from collections import Counter, deque

from busycheck.assertions import BOTTOM, Flat, normalize, state_assertion, summarize, view_shift
from reference import (
    CREDIT,
    FALSE,
    TRUE,
    Obs,
    ResourceBundle,
    Star,
    flat_of,
    satisfies,
    satisfies_flat,
    star,
)

# bundles with chunk values in 0..3, multiplicity <= 2, credits <= 3
SMALL_BUNDLES = [
    ResourceBundle(chunks, credits)
    for size in range(3)
    for chunks in itertools.combinations_with_replacement(range(4), size)
    for credits in range(4)
]


def _random_assertion(rng, depth=3):
    pick = rng.random()
    if depth == 0 or pick < 0.45:
        atom = rng.random()
        if atom < 0.4:
            return Obs(rng.randint(0, 3))
        if atom < 0.7:
            return CREDIT
        return TRUE if atom < 0.9 else FALSE
    return Star(_random_assertion(rng, depth - 1), _random_assertion(rng, depth - 1))


def test_satisfies_obs_needs_matching_chunk():
    assert satisfies(ResourceBundle((1,), 0), Obs(1))
    assert not satisfies(ResourceBundle((1,), 0), Obs(0))


def test_single_chunk_never_satisfies_two_obs():
    for n, n2, credits in itertools.product(range(3), range(3), range(3)):
        assert not satisfies(ResourceBundle((n,), credits), Star(Obs(n), Obs(n2)))


def test_satisfies_obs_and_credit():
    assert satisfies(ResourceBundle((0,), 1), Star(Obs(0), CREDIT))
    assert not satisfies(ResourceBundle((0,), 0), Star(Obs(0), CREDIT))


def test_bundle_union_is_commutative_monoid():
    a, b = ResourceBundle((1, 2), 1), ResourceBundle((0,), 2)
    assert a.union(b) == b.union(a)
    empty = ResourceBundle((), 0)
    assert a.union(empty) == a


def test_normalize_examples():
    # entries as `proofs` reads an `asserts` table, each summarized in turn
    entries = [("credit", []), ("obs", [2]), ("star", [0, 1]), ("star", [2, 0]), ("true", []), ("star", [4, 1])]
    entries += [("false", []), ("star", [6, 0]), ("obs", [1]), ("star", [3, 8])]
    table = []
    for tag, parts in entries:
        table.append(summarize(table, tag, parts))
    assert normalize(table, 3) == Flat((2,), 2)  # (credit * obs(2)) * credit
    assert normalize(table, 5) == Flat((2,), 0)  # true * obs(2)
    assert normalize(table, 7) is BOTTOM  # false * credit
    assert normalize(table, 4) == Flat((), 0)
    assert normalize(table, 9) == Flat((1, 2), 2)  # sorted obs atoms
    assert table[3][1] is table[2][1]  # a star shares its left side's obs atoms
    assert flat_of(Star(CREDIT, Star(Obs(2), CREDIT))) == Flat((2,), 2)


def test_normalize_preserves_satisfaction():
    rng = random.Random(81)
    for _ in range(1000):
        a = _random_assertion(rng)
        b = rng.choice(SMALL_BUNDLES)
        assert satisfies(b, a) == satisfies_flat(b, flat_of(a))


def test_satisfaction_monotone_under_union():
    rng = random.Random(84)
    for _ in range(400):
        a = _random_assertion(rng, depth=2)
        b = rng.choice(SMALL_BUNDLES)
        extra = rng.choice(SMALL_BUNDLES)
        if satisfies(b, a):
            assert satisfies(b.union(extra), a)


def _shift(a, b):
    """`view_shift` between the normal forms of two terms."""
    return view_shift(flat_of(a), flat_of(b))


def test_view_shift_examples():
    assert _shift(Obs(0), Star(Obs(1), CREDIT))
    assert _shift(FALSE, Obs(0))
    assert not _shift(Obs(0), Star(Obs(0), Obs(0)))


def test_view_shift_cancellation_direction():
    assert _shift(Star(Obs(1), CREDIT), Obs(0))
    assert not _shift(Obs(1), Obs(0))


def test_view_shift_cannot_mint_a_lone_credit():
    assert not _shift(Obs(0), Star(Obs(0), CREDIT))


def _term(f: Flat):
    return star(*map(Obs, f.obs), *[CREDIT] * f.credits)


def test_view_shift_includes_entailment_in_the_bundle_model():
    # weakening: when every small bundle that satisfies the term of `src`
    # satisfies the term of `dst`, `src` shifts to `dst` (the least bundle
    # of each `src` here is a small bundle, so no `src` holds vacuously)
    flats = [Flat(chunks, k) for chunks in {b.chunks for b in SMALL_BUNDLES} for k in range(3)]
    models = {f: {b for b in SMALL_BUNDLES if satisfies(b, _term(f))} for f in flats}
    for src in flats:
        assert models[src] and not view_shift(src, BOTTOM)
        for dst in flats:
            if models[src] <= models[dst]:
                assert view_shift(src, dst), (src, dst)


def _shift_reference(src: Flat, dst: Flat) -> bool:
    """Brute force: breadth-first search over pair moves, then one weakening.

    Dropping resources never enables a pair move, so weakening can come last.
    No witness needs a value above max value + sum(src's values) + dst's
    credits: kept atoms move straight to their target values, and a dropped
    atom need only mint the credits for lowering them and for dst.  Pair
    moves fix the credits once the values are known, so the search is finite.
    """
    bound = max((*src.obs, *dst.obs), default=0) + sum(src.obs) + dst.credits
    seen = {src}
    frontier = deque([src])
    while frontier:
        f = frontier.popleft()
        if not Counter(dst.obs) - Counter(f.obs) and dst.credits <= f.credits:
            return True
        for i, v in enumerate(f.obs):
            moves = []
            if v + 1 <= bound:
                moves.append((v + 1, f.credits + 1))
            if v >= 1 and f.credits >= 1:
                moves.append((v - 1, f.credits - 1))
            for v2, k2 in moves:
                g = Flat(tuple(sorted(f.obs[:i] + (v2,) + f.obs[i + 1 :])), k2)
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
    return False


def test_view_shift_decides_multi_chunk_examples():
    assert _shift(FALSE, Obs(3)) is True
    assert _shift(Obs(0), Star(Obs(0), Obs(0))) is False
    # multi-chunk shifts are decided, never left open
    for src, dst, expected in [
        (Flat((1, 2), 0), Flat((1, 2), 0), True),
        (Flat((30, 30), 0), Flat((0,), 0), True),
        (Flat((0, 30), 0), Flat((30, 30), 0), True),
        (Flat((1, 2), 0), Flat((0, 0), 0), False),
        (Flat((1, 2), 0), Flat((0, 0), 3), False),
        (Flat((1, 2), 3), Flat((0, 0), 0), True),
    ]:
        assert view_shift(src, dst) is expected, (src, dst)
        assert _shift_reference(src, dst) is expected, (src, dst)


def test_view_shift_matches_brute_force_on_single_chunks():
    for n, n2, k, k2 in itertools.product(range(4), repeat=4):
        left = Flat((n,), k)
        right = Flat((n2,), k2)
        decided = view_shift(left, right)
        assert decided == _shift_reference(left, right)
        assert decided == (n - k <= n2 - k2)


def test_view_shift_acts_under_star_context():
    # pair moves apply to one obs atom inside a larger conjunction
    assert _shift(star(Obs(0), Obs(1)), star(Obs(1), Obs(1), CREDIT))
    assert _shift(star(Obs(2), Obs(0), CREDIT), star(Obs(1), Obs(0)))
    assert not _shift(star(Obs(0), Obs(0)), star(Obs(0), Obs(0), CREDIT))


def test_saturation_agrees_with_reference_on_two_chunk_flats():
    flats = [
        Flat(tuple(sorted((v1, v2))), k)
        for v1 in range(3)
        for v2 in range(3)
        for k in range(3)
    ]
    singles = [Flat((v,), k) for v in range(3) for k in range(3)]
    empties = [Flat((), k) for k in range(3)]
    for src in flats:
        for dst in flats + singles + empties:
            expected = _shift_reference(src, dst)
            assert view_shift(src, dst) is expected, (src, dst)


def test_view_shift_never_reaches_bottom_from_satisfiable():
    rng = random.Random(85)
    for _ in range(200):
        a = flat_of(_random_assertion(rng, depth=2))
        if a is not BOTTOM:
            assert view_shift(a, BOTTOM) is False


def test_view_shift_ledger_quantity_never_decreases():
    # obligations minus credits never drops along a shift between
    # single-chunk states: pairs move together, weakening only drops credits
    for n, n2, k, k2 in itertools.product(range(5), repeat=4):
        if view_shift(state_assertion(n, k), state_assertion(n2, k2)):
            assert n2 - k2 >= n - k

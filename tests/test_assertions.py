import itertools
import random
from collections import Counter, deque

from busycheck.assertions import (
    BOTTOM,
    CREDIT,
    FALSE,
    Flat,
    Obs,
    Star,
    TRUE,
    bundle,
    entails,
    normalize,
    satisfies,
    satisfies_flat,
    star,
    state_assertion,
    view_shift,
)

# bundles with chunk values in 0..3, multiplicity <= 2, credits <= 3
SMALL_BUNDLES = [
    bundle(chunks, credits)
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
    assert satisfies(bundle((1,), 0), Obs(1))
    assert not satisfies(bundle((1,), 0), Obs(0))


def test_single_chunk_never_satisfies_two_obs():
    for n, n2, credits in itertools.product(range(3), range(3), range(3)):
        assert not satisfies(bundle((n,), credits), Star(Obs(n), Obs(n2)))


def test_satisfies_obs_and_credit():
    assert satisfies(bundle((0,), 1), Star(Obs(0), CREDIT))
    assert not satisfies(bundle((0,), 0), Star(Obs(0), CREDIT))


def test_bundle_union_is_commutative_monoid():
    a, b = bundle((1, 2), 1), bundle((0,), 2)
    assert a.union(b) == b.union(a)
    empty = bundle((), 0)
    assert a.union(empty) == a
    assert not a.union(b).complete
    assert bundle((5,), 9).complete


def test_normalize_examples():
    assert normalize(Star(CREDIT, Star(Obs(2), CREDIT))) == Flat((2,), 2)
    assert normalize(Star(TRUE, Obs(0))) == Flat((0,), 0)
    assert normalize(Star(FALSE, CREDIT)) is BOTTOM


def test_normalize_preserves_satisfaction():
    rng = random.Random(81)
    for _ in range(1000):
        a = _random_assertion(rng)
        b = rng.choice(SMALL_BUNDLES)
        assert satisfies(b, a) == satisfies_flat(b, normalize(a))


def _entails_oracle(a, b):
    return all(satisfies(r, b) for r in SMALL_BUNDLES if satisfies(r, a))


def test_entails_examples_against_brute_force():
    cases = [
        (Star(Obs(1), CREDIT), Obs(1), True),
        (FALSE, Obs(0), True),
        (Obs(1), Obs(0), False),
    ]
    for a, b, expected in cases:
        assert entails(a, b) is expected
        assert _entails_oracle(a, b) is expected


def _within_oracle_domain(a):
    # the bundle domain can only witness flats with <= 2 chunks and <= 3
    # credits; larger assertions would make the brute force vacuously true
    f = normalize(a)
    return f is BOTTOM or (len(f.obs) <= 2 and f.credits <= 3)


def test_entails_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(82)
    checked = 0
    while checked < 300:
        a = _random_assertion(rng, depth=2)
        b = _random_assertion(rng, depth=2)
        if not (_within_oracle_domain(a) and _within_oracle_domain(b)):
            continue
        assert entails(a, b) == _entails_oracle(a, b), (a, b)
        checked += 1


def test_entails_is_a_preorder():
    rng = random.Random(83)
    samples = [_random_assertion(rng, depth=2) for _ in range(40)]
    for a in samples:
        assert entails(a, a)
    for a, b, c in itertools.islice(itertools.product(samples, repeat=3), 4000):
        if entails(a, b) and entails(b, c):
            assert entails(a, c)


def test_satisfaction_monotone_under_union():
    rng = random.Random(84)
    for _ in range(400):
        a = _random_assertion(rng, depth=2)
        b = rng.choice(SMALL_BUNDLES)
        extra = rng.choice(SMALL_BUNDLES)
        if satisfies(b, a):
            assert satisfies(b.union(extra), a)


def test_view_shift_examples():
    assert view_shift(Obs(0), Star(Obs(1), CREDIT))
    assert view_shift(FALSE, Obs(0))
    assert not view_shift(Obs(0), Star(Obs(0), Obs(0)))


def test_view_shift_cancellation_direction():
    assert view_shift(Star(Obs(1), CREDIT), Obs(0))
    assert not view_shift(Obs(1), Obs(0))


def test_view_shift_cannot_mint_a_lone_credit():
    assert not view_shift(Obs(0), Star(Obs(0), CREDIT))


def _as_assertion(f: Flat):
    return star(*map(Obs, f.obs), *[CREDIT] * f.credits)


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
    assert view_shift(FALSE, Obs(3)) is True
    assert view_shift(Obs(0), Star(Obs(0), Obs(0))) is False
    # multi-chunk shifts are decided, never left open
    for src, dst, expected in [
        (Flat((1, 2), 0), Flat((1, 2), 0), True),
        (Flat((30, 30), 0), Flat((0,), 0), True),
        (Flat((0, 30), 0), Flat((30, 30), 0), True),
        (Flat((1, 2), 0), Flat((0, 0), 0), False),
        (Flat((1, 2), 0), Flat((0, 0), 3), False),
        (Flat((1, 2), 3), Flat((0, 0), 0), True),
    ]:
        assert view_shift(_as_assertion(src), _as_assertion(dst)) is expected, (src, dst)
        assert _shift_reference(src, dst) is expected, (src, dst)


def test_view_shift_matches_brute_force_on_single_chunks():
    for n, n2, k, k2 in itertools.product(range(4), repeat=4):
        left = Flat((n,), k)
        right = Flat((n2,), k2)
        decided = view_shift(_as_assertion(left), _as_assertion(right))
        assert decided == _shift_reference(left, right)
        assert decided == (n - k <= n2 - k2)


def test_view_shift_acts_under_star_context():
    # pair moves apply to one obs atom inside a larger conjunction
    assert view_shift(star(Obs(0), Obs(1)), star(Obs(1), Obs(1), CREDIT))
    assert view_shift(star(Obs(2), Obs(0), CREDIT), star(Obs(1), Obs(0)))
    assert not view_shift(star(Obs(0), Obs(0)), star(Obs(0), Obs(0), CREDIT))


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
            assert view_shift(_as_assertion(src), _as_assertion(dst)) is expected, (src, dst)


def test_view_shift_never_reaches_bottom_from_satisfiable():
    rng = random.Random(85)
    for _ in range(200):
        a = _random_assertion(rng, depth=2)
        if normalize(a) is not BOTTOM:
            assert view_shift(a, FALSE) is False


def test_view_shift_ledger_quantity_never_decreases():
    # obligations minus credits never drops along a shift between
    # single-chunk states: pairs move together, weakening only drops credits
    for n, n2, k, k2 in itertools.product(range(5), repeat=4):
        if view_shift(state_assertion(n, k), state_assertion(n2, k2)):
            assert n2 - k2 >= n - k

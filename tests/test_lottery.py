import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condlab.core import PreferenceRelation
from condlab.lottery import (
    Lottery,
    NegativeProbabilityError,
    _sd_verdict,
    affine_combine,
    constant_form,
    mix,
    sd_compare,
    sd_margins,
    sd_rows,
)

F = Fraction


@st.composite
def lotteries3(draw):
    """Random rational lotteries over 3 alternatives with denominator 12."""
    a = draw(st.integers(0, 12))
    b = draw(st.integers(0, 12 - a))
    return Lottery([F(a, 12), F(b, 12), F(12 - a - b, 12)])


preferences3 = st.permutations(range(3)).map(PreferenceRelation)


def test_lottery_validation():
    with pytest.raises(NegativeProbabilityError):
        Lottery([F(-1, 2), F(1), F(1, 2)])
    with pytest.raises(ValueError):
        Lottery([F(1, 2), F(1, 4), F(1, 8)])


def test_lottery_constructors():
    assert Lottery.point(1, 3).probs == (0, 1, 0)
    assert Lottery.uniform(3).probs == (F(1, 3),) * 3
    assert Lottery.uniform_over((0, 2), 3).probs == (F(1, 2), 0, F(1, 2))
    assert Lottery.from_map({2: F(1)}, 3) == Lottery.point(2, 3)


def test_support_and_point_detection():
    lot = Lottery([F(1, 2), F(0), F(1, 2)])
    assert lot.support() == (0, 2)
    assert lot.is_point() is None
    assert Lottery.point(2, 3).is_point() == 2
    assert lot.mass((0, 1)) == F(1, 2)


def test_json_round_trip_drops_zeros():
    lot = Lottery([F(3, 4), F(0), F(1, 4)])
    data = lot.to_json_dict()
    assert data == {"a": "3/4", "c": "1/4"}
    assert Lottery.from_json_dict(data, 3) == lot


@pytest.mark.parametrize(
    "data, key",
    [
        ({"a": "1", "d": "0"}, "d"),
        ({"a": "1/2", "d": "1/2"}, "d"),
        ({"a": "1/2", "x0": "1/2"}, "x0"),
    ],
)
def test_json_keys_name_distinct_alternatives_of_the_slate(data, key):
    with pytest.raises(ValueError, match=repr(key)):
        Lottery.from_json_dict(data, 3)


def test_incomparable_pair_with_both_cuts():
    # mass half on top and half on bottom against a point on the middle
    p = Lottery([F(1, 2), F(0), F(1, 2)])
    q = Lottery.point(1, 3)
    pref = PreferenceRelation((0, 1, 2))
    assert sd_compare(pref, p, q) == 1  # {a,b} carries 1/2 < 1
    assert sd_compare(pref, q, p) == 0  # {a} carries 0 < 1/2


def test_dominance_hand_case():
    p = Lottery([F(2, 3), F(1, 3), F(0)])
    q = Lottery([F(1, 3), F(1, 3), F(1, 3)])
    pref = PreferenceRelation((0, 1, 2))
    assert sd_compare(pref, p, q) is None
    assert sd_compare(pref, q, p) == 0  # {a} carries 1/3 < 2/3
    flipped = PreferenceRelation((2, 1, 0))
    assert sd_compare(flipped, p, q) == 2  # {c} carries 0 < 1/3
    assert sd_compare(flipped, q, p) is None


@given(preferences3, lotteries3())
def test_sd_compare_is_reflexive(pref, lot):
    assert sd_compare(pref, lot, lot) is None


@given(preferences3, lotteries3(), lotteries3())
def test_sd_compare_antisymmetric(pref, p, q):
    # each weakly dominates the other exactly when every cut carries equal mass
    both = sd_compare(pref, p, q) is None and sd_compare(pref, q, p) is None
    cuts = [pref.order[:k] for k in range(1, len(pref.order))]
    assert both == all(p.mass(cut) == q.mass(cut) for cut in cuts)


def test_sd_dominance_matches_expected_utility():
    # dominance must hold exactly for all order-consistent utility vectors
    rng = random.Random(11)
    orders = [PreferenceRelation(p) for p in ((0, 1, 2), (2, 0, 1), (1, 2, 0))]
    for _ in range(200):
        p = Lottery([F(x, 12) for x in _random_composition(rng)])
        q = Lottery([F(x, 12) for x in _random_composition(rng)])
        for pref in orders:
            cut = sd_compare(pref, p, q)
            dominates_by_eu = all(
                _eu(p, u) >= _eu(q, u) for u in _utility_vectors(pref, rng)
            )
            if cut is None:
                assert dominates_by_eu
                if sd_compare(pref, q, p) is None:
                    assert p == q or all(
                        _eu(p, u) == _eu(q, u) for u in _utility_vectors(pref, rng)
                    )
            else:
                # utility 1 on the cut's upper contour set and 0 below it
                step = [int(pref.rank(x) <= pref.rank(cut)) for x in range(3)]
                assert _eu(p, step) < _eu(q, step)


def _random_composition(rng):
    a = rng.randint(0, 12)
    b = rng.randint(0, 12 - a)
    return (a, b, 12 - a - b)


def _utility_vectors(pref, rng):
    vectors = []
    for _ in range(8):
        values = sorted((rng.randint(0, 100) for _ in range(3)), reverse=True)
        u = [0] * 3
        for slot, x in enumerate(pref.order):
            u[x] = values[slot]
        vectors.append(u)
    return vectors


def _eu(lot, utility):
    return sum(p * u for p, u in zip(lot.probs, utility))


# -- combinations -------------------------------------------------------------


def test_mix_basic():
    got = mix([(F(1, 2), Lottery.point(0, 3)), (F(1, 2), Lottery.point(2, 3))])
    assert got == Lottery([F(1, 2), F(0), F(1, 2)])
    with pytest.raises(ValueError):
        mix([(F(1, 2), Lottery.point(0, 3))])
    with pytest.raises(ValueError):
        mix([(F(3, 2), Lottery.point(0, 3)), (F(-1, 2), Lottery.point(1, 3))])


def test_affine_combine_cancellation():
    got = affine_combine(
        [(F(2), Lottery.point(0, 3)), (F(-1), Lottery.point(0, 3))]
    )
    assert got == Lottery.point(0, 3)


def test_affine_combine_detects_negative_mass():
    with pytest.raises(NegativeProbabilityError):
        affine_combine(
            [(F(2), Lottery.point(1, 3)), (F(-1), Lottery.point(0, 3))]
        )
    with pytest.raises(ValueError):
        affine_combine([(F(1, 2), Lottery.point(0, 3))])


@given(lotteries3(), lotteries3(), st.integers(0, 4))
def test_mix_interpolates(p, q, k):
    w = F(k, 4)
    got = mix([(w, p), (1 - w, q)])
    for x in range(3):
        assert got[x] == w * p[x] + (1 - w) * q[x]


@st.composite
def preference_and_lotteries(draw):
    """A random order over 2..4 alternatives and two lotteries with denominator 12."""
    m = draw(st.integers(2, 4))
    pref = PreferenceRelation(tuple(draw(st.permutations(range(m)))))

    def lottery():
        bounds = [0] + sorted(draw(st.lists(st.integers(0, 12), min_size=m - 1, max_size=m - 1))) + [12]
        return Lottery([F(hi - lo, 12) for lo, hi in zip(bounds, bounds[1:])])

    return pref, lottery(), lottery()


@given(preference_and_lotteries())
def test_sd_rows_agree_with_sd_compare(case):
    pref, p, q = case
    rows = list(sd_rows(pref, constant_form(p), constant_form(q), 0))
    losing = sd_compare(pref, p, q)
    assert [cut for cut, _, _ in rows] == list(pref.order[:-1])
    assert all(coeffs == () for _, coeffs, _ in rows)
    assert all(0 <= rhs for _, _, rhs in rows) == (losing is None)
    failing = [cut for cut, _, rhs in rows if rhs < 0]
    assert (failing[0] if failing else None) == losing


# -- integer kernel against a frozen Fraction reference -------------------------


def reference_sd_compare(pref, p, q):
    """The Fraction comparison the integer kernel replaced: the first cut where
    ``p`` loses and the first where ``q`` loses, each None if there is none."""
    cp = cq = F(0)
    against_p = against_q = None
    for x in pref.order:
        cp += p.probs[x]
        cq += q.probs[x]
        if cp < cq and against_p is None:
            against_p = x
        elif cp > cq and against_q is None:
            against_q = x
    return against_p, against_q


@st.composite
def lotteries(draw, m):
    """A lottery on ``m`` alternatives over a random denominator in 1..30."""
    den = draw(st.integers(1, 30))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1)))
    return Lottery([F(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])])


@st.composite
def order_and_two_lotteries(draw):
    m = draw(st.integers(2, 4))
    pref = PreferenceRelation(tuple(draw(st.permutations(range(m)))))
    return pref, draw(lotteries(m)), draw(lotteries(m))


@given(order_and_two_lotteries())
def test_integer_sd_compare_matches_fraction_reference(case):
    pref, p, q = case
    assert (sd_compare(pref, p, q), sd_compare(pref, q, p)) == reference_sd_compare(pref, p, q)


@given(st.integers(2, 4).flatmap(lotteries), st.integers(1, 6), st.integers(-5, 5), st.integers(1, 5))
def test_every_construction_gives_one_equal_lottery(lot, scale, num, den):
    w = F(num, den)
    built = [
        Lottery(lot.probs),
        Lottery.from_integers([a * scale for a in lot.numerators], lot.denominator * scale),
        Lottery.from_json_dict(lot.to_json_dict(), lot.m),
        affine_combine([(w, lot), (1 - w, lot)]),
        affine_combine([(F(2), lot), (F(-1), lot)]),
    ]
    for other in built:
        assert other == lot and hash(other) == hash(lot)
        assert (other.numerators, other.denominator) == (lot.numerators, lot.denominator)
        assert other.probs == lot.probs


@st.composite
def two_lotteries_and_weight(draw):
    m = draw(st.integers(2, 4))
    return draw(lotteries(m)), draw(lotteries(m)), F(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))


@given(two_lotteries_and_weight())
def test_affine_combine_matches_fraction_arithmetic(case):
    p, q, w = case
    expected = [w * a + (1 - w) * b for a, b in zip(p.probs, q.probs)]
    try:
        want = Lottery(expected)
    except NegativeProbabilityError as exc:
        with pytest.raises(NegativeProbabilityError, match=str(exc)):
            affine_combine([(w, p), (1 - w, q)])
        return
    got = affine_combine([(w, p), (1 - w, q)])
    assert got == want and hash(got) == hash(want) and got.probs == want.probs


def test_integer_form_is_canonical():
    lot = Lottery.from_integers([2, 4, 0], 6)
    assert (lot.numerators, lot.denominator) == ((1, 2, 0), 3)
    assert lot.probs == (F(1, 3), F(2, 3), F(0))
    assert Lottery([F(1, 2), F(1, 3), F(1, 6)]).numerators == (3, 2, 1)
    with pytest.raises(NegativeProbabilityError, match="-1/4 on alternative b"):
        Lottery.from_integers([5, -1, 0], 4)
    with pytest.raises(ValueError, match="sum to 3/4"):
        Lottery.from_integers([1, 2, 0], 4)


# -- the comparison memo ----------------------------------------------------------


def frozen_sd_compare(pref, p, q):
    """``sd_compare`` as it read before comparisons were memoised by value,
    reduced to its two cuts: where ``p`` loses and where ``q`` loses."""
    order = pref.order
    if not (len(order) == len(p.numerators) == len(q.numerators)):
        raise ValueError("mismatched alternative counts")
    cp = tuple(accumulate(p.numerators[x] for x in order))
    cq = tuple(accumulate(q.numerators[x] for x in order))
    against_p = against_q = None
    if cp != cq:
        if p.denominator != q.denominator:
            cp = [c * q.denominator for c in cp]
            cq = [c * p.denominator for c in cq]
        for slot in range(len(order) - 1):
            if cp[slot] < cq[slot]:
                if against_p is None:
                    against_p = order[slot]
            elif cp[slot] > cq[slot]:
                if against_q is None:
                    against_q = order[slot]
    return against_p, against_q


@given(order_and_two_lotteries())
def test_memoised_sd_compare_matches_frozen_body(case):
    pref, p, q = case
    both_ways = frozen_sd_compare(pref, p, q)
    assert (sd_compare(pref, p, q), sd_compare(pref, q, p)) == both_ways
    # a second call is a cache hit and must say the same
    assert (sd_compare(pref, p, q), sd_compare(pref, q, p)) == both_ways


@given(order_and_two_lotteries())
def test_sd_margins_are_the_sd_row_right_hand_sides(case):
    # the integer kernel and the row builder walk the same cuts
    pref, p, q = case
    margins, den = sd_margins(pref.order, p.numerators, q.numerators)
    rows = list(sd_rows(pref, constant_form(p), constant_form(q), 0))
    assert den == p.denominator * q.denominator
    assert [F(margin, den) for margin in margins] == [rhs for _, _, rhs in rows]


def test_sd_margins_over_unequal_denominators():
    third, half = Lottery([F(1, 3), F(2, 3)]), Lottery([F(1, 2), F(1, 2)])
    assert sd_margins((0, 1), third.numerators, half.numerators) == ((-1,), 6)
    assert sd_margins((1, 0), third.numerators, half.numerators) == ((1,), 6)
    p = Lottery([F(1, 4), F(1, 4), F(1, 2), F(0)])
    q = Lottery([F(1, 3), F(0), F(1, 3), F(1, 3)])
    assert sd_margins((3, 2, 1, 0), p.numerators, q.numerators) == ((-4, -2, 1), 12)
    with pytest.raises(ValueError, match="mismatched alternative counts"):
        sd_margins((0, 1, 2), third.numerators, half.numerators)


def test_equal_lotteries_built_two_ways_share_one_entry():
    pref = PreferenceRelation((1, 0, 2))
    built = Lottery([F(1, 2), F(1, 2), F(0)])
    scaled = Lottery.from_integers([2, 2, 0], 4)
    q = Lottery.uniform(3)
    _sd_verdict.cache_clear()
    first = sd_compare(pref, built, q)
    second = sd_compare(pref, scaled, q)
    info = _sd_verdict.cache_info()
    assert second is first
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_mismatched_lengths_raise_on_every_call():
    pref = PreferenceRelation((0, 1, 2))
    three, two = Lottery.uniform(3), Lottery.uniform(2)
    for p, q in ((three, two), (two, three), (two, two)):
        for _ in range(3):
            with pytest.raises(ValueError, match="mismatched alternative counts"):
                sd_compare(pref, p, q)


# -- interned point lotteries ------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 6))
def test_point_lottery_is_interned_and_equal_to_its_integer_form(m):
    for x in range(m):
        point = Lottery.point(x, m)
        assert point == Lottery.from_integers([int(y == x) for y in range(m)], 1)
        assert point.is_point() == x
        assert Lottery.point(x, m) is point


def test_point_lottery_outside_the_slate_raises_on_every_call():
    size = Lottery.point.cache_info().currsize
    for x in (-1, 3, None):
        for _ in range(3):
            with pytest.raises(ValueError, match="sum to 0"):
                Lottery.point(x, 3)
    assert Lottery.point.cache_info().currsize == size

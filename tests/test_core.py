import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condlab import core
from condlab.core import (
    InvalidSwapError,
    PreferenceRelation,
    Profile,
    ProfileParseError,
    all_profiles,
    all_relations,
    alternative_index,
    alternative_name,
    condorcet_winner,
    full_profile_count,
    majority_margin,
    pareto_dominates,
    parse_profiles,
    swap,
)

permutation3 = st.permutations(range(3))
permutation4 = st.permutations(range(4))


def rel(text):
    return PreferenceRelation.from_text(text)


def prof(text):
    return Profile.from_text(text)


def augment(profile, tiebreaker):
    """The tie-break oracle: ``profile`` with ``tiebreaker`` voting as one extra voter."""
    if tiebreaker.m != profile.m:
        raise ValueError("tie-breaker ranks a different slate")
    return Profile(profile.relations + (tiebreaker,))


# -- names --------------------------------------------------------------------


def test_alternative_names_round_trip():
    for x in range(8):
        assert alternative_index(alternative_name(x)) == x
    assert alternative_name(0) == "a"
    with pytest.raises(ValueError):
        alternative_index("not-a-name")


# -- relations ----------------------------------------------------------------


def test_relation_basics():
    r = rel("b>a>c")
    assert r.top() == 1
    assert r.rank(1) == 1 and r.rank(0) == 2 and r.rank(2) == 3
    assert r.prefers(1, 0) and r.prefers(0, 2) and not r.prefers(2, 1)
    assert r.upper_contour(0) == frozenset({0, 1})
    assert r.upper_contour(1) == frozenset({1})
    assert r.to_text() == "b>a>c"


def test_relation_rejects_non_permutations():
    with pytest.raises(ValueError):
        PreferenceRelation((0, 0, 1))
    with pytest.raises(ValueError):
        PreferenceRelation((0, 2))


@given(permutation4)
def test_rank_counts_upper_contour(order):
    r = PreferenceRelation(order)
    for x in range(4):
        assert len(r.upper_contour(x)) == r.rank(x)
        assert x in r.upper_contour(x)


@given(permutation4, st.integers(0, 3), st.integers(0, 3))
def test_prefers_is_a_strict_order(order, x, y):
    r = PreferenceRelation(order)
    if x == y:
        assert not r.prefers(x, y)
    else:
        assert r.prefers(x, y) != r.prefers(y, x)


@given(permutation4)
def test_relation_text_round_trip(order):
    r = PreferenceRelation(order)
    assert PreferenceRelation.from_text(r.to_text()) == r


def test_swapped_adjacent_pair_only():
    r = rel("a>b>c")
    assert r.swapped(0, 1) == rel("b>a>c")
    assert r.swapped(0, 1).swapped(1, 0) == r
    with pytest.raises(InvalidSwapError):
        r.swapped(0, 2)  # not adjacent
    with pytest.raises(InvalidSwapError):
        r.swapped(1, 0)  # wrong orientation


def test_all_relations_enumeration():
    rels = all_relations(3)
    assert len(rels) == 6
    assert rels[0] == rel("a>b>c")
    assert rels[-1] == rel("c>b>a")
    assert len(set(rels)) == 6


# -- profiles -----------------------------------------------------------------


def test_profile_construction_and_indexing():
    p = prof("a>b>c\nb>a>c\nc>b>a")
    assert p.n == 3 and p.m == 3
    assert p[1] == rel("b>a>c")
    assert list(p) == [rel("a>b>c"), rel("b>a>c"), rel("c>b>a")]
    with pytest.raises(ValueError):
        Profile([rel("a>b>c"), PreferenceRelation((0, 1))])


def test_profile_replace_is_persistent():
    p = prof("a>b>c\nb>a>c")
    q = p.replace(0, rel("c>b>a"))
    assert q[0] == rel("c>b>a") and p[0] == rel("a>b>c")


@given(st.lists(permutation3, min_size=1, max_size=4))
def test_profile_text_round_trip(orders):
    p = Profile([PreferenceRelation(o) for o in orders])
    assert Profile.from_text(p.to_text()) == p


def test_parse_profiles_blocks_and_comments():
    text = """
    # leading comment
    a>b>c
    b>a>c

    c>b>a   # trailing comment
    a>c>b
    """
    blocks = parse_profiles(text)
    assert blocks == [prof("a>b>c\nb>a>c"), prof("c>b>a\na>c>b")]
    with pytest.raises(ProfileParseError):
        parse_profiles("   \n# nothing here\n")


def test_parse_profiles_splits_at_a_comment_only_line():
    # a line that is blank once its comment is gone separates two profiles
    assert parse_profiles("a>b>c\n  # split\nb>a>c\n") == [prof("a>b>c"), prof("b>a>c")]


def test_all_profiles_count_and_canonical_order():
    profiles = list(all_profiles(2, 3))
    assert len(profiles) == full_profile_count(2, 3) == 36
    keys = [p.code for p in profiles]
    assert keys == sorted(keys)
    assert len(set(profiles)) == 36


def test_relation_index_is_position_in_all_relations():
    for m in range(1, 7):
        assert [r.index for r in all_relations(m)] == list(range(factorial(m)))


def test_profile_code_is_position_in_all_profiles():
    for n, m in [(1, 3), (2, 3), (3, 3), (4, 3), (2, 4)]:
        for position, p in enumerate(all_profiles(n, m)):
            assert p.code == position
            assert Profile.from_code(position, n, m) == p


@pytest.mark.parametrize(
    "code, n, m", [(-1, 2, 3), (36, 2, 3), (10**9, 3, 3), (24, 1, 4), (-216, 3, 3)]
)
def test_profile_from_code_refuses_a_code_outside_the_profile_space(code, n, m):
    # without the check, 36 and -1 wrapped round to the profiles coded 0 and 35
    with pytest.raises(ValueError, match=f"profile code {code} is outside"):
        Profile.from_code(code, n, m)


# -- identity: a relation hashes by its index, a profile by its code ------------

IDENTITY_SHAPES = [(n, m) for n in range(1, 5) for m in range(2, 5)]


def _shape_sample(n, m, size=400):
    """Every profile of the shape, or a seeded sample of ``size`` when there are more."""
    total = full_profile_count(n, m)
    if total <= size:
        return list(all_profiles(n, m))
    codes = random.Random(n * 10 + m).sample(range(total), size)
    return [Profile.from_code(code, n, m) for code in codes]


@pytest.mark.parametrize("m", range(2, 5))
def test_relation_hashes_by_its_index(m):
    for r in all_relations(m):
        copy = PreferenceRelation(r.order)
        assert copy is not r and copy == r
        assert hash(r) == r.index == hash(copy)


@pytest.mark.parametrize("n, m", IDENTITY_SHAPES)
def test_profile_hashes_by_its_code(n, m):
    for p in _shape_sample(n, m):
        copy = Profile([PreferenceRelation(r.order) for r in p])
        assert copy is not p and copy == p
        assert hash(p) == p.code == hash(copy)


def test_values_of_different_shapes_sharing_an_identity_are_distinct_keys():
    shapes = IDENTITY_SHAPES
    for i, first in enumerate(shapes):
        for second in shapes[i + 1:]:
            shared = min(full_profile_count(*first), full_profile_count(*second))
            for code in {0, 1, shared - 1}:
                p, q = Profile.from_code(code, *first), Profile.from_code(code, *second)
                assert p != q and hash(p) == hash(q)
                keys = {p: first, q: second}
                assert len(keys) == 2 and keys[p] == first and keys[q] == second
    for small, large in [(2, 3), (2, 4), (3, 4)]:
        for index in range(factorial(small)):
            r, s = all_relations(small)[index], all_relations(large)[index]
            assert r != s and hash(r) == hash(s)
            assert len({r: small, s: large}) == 2


def test_derived_profiles_get_the_canonical_code():
    canonical = list(all_profiles(3, 3))
    position = {p: i for i, p in enumerate(canonical)}
    for p in canonical:
        assert Profile.from_text(p.to_text()).code == position[p]
        for voter in range(3):
            for r in all_relations(3):
                q = p.replace(voter, r)
                assert q.code == position[q]
            top, second = p[voter].order[:2]
            q = swap(p, voter, top, second)
            assert q.code == position[q]
    for p in all_profiles(2, 3):
        for tiebreaker in all_relations(3):
            q = augment(p, tiebreaker)
            assert q.code == position[q]
    parsed = parse_profiles("\n\n".join(p.to_text() for p in canonical[::7]))
    assert [p.code for p in parsed] == list(range(0, 216, 7))


@pytest.mark.parametrize("n, m", [(n, 3) for n in range(1, 5)] + [(n, 4) for n in range(1, 4)])
def test_enumerated_profiles_equal_constructed_ones(n, m):
    # all_profiles sets each code to the enumeration index instead of computing it
    count = 0
    for index, p in enumerate(all_profiles(n, m)):
        built = Profile(p.relations)
        assert p == built and p.code == built.code == index
        assert p.relations == Profile.from_code(index, n, m).relations
        count += 1
    assert count == full_profile_count(n, m)


def test_full_profile_count_frozen_values():
    assert full_profile_count(3, 3) == 216
    assert full_profile_count(4, 3) == 1296
    assert full_profile_count(3, 4) == 13824


# -- majority relation --------------------------------------------------------


def test_majority_margin_hand_values():
    p = prof("a>b>c\nb>a>c\nc>b>a")
    assert majority_margin(p, 0, 1) == -1
    assert majority_margin(p, 1, 0) == 1
    assert majority_margin(p, 1, 2) == 1
    with pytest.raises(ValueError):
        majority_margin(p, 0, 0)


def test_margin_antisymmetry_and_parity_seeded():
    rng = random.Random(7)
    rels = all_relations(3)
    for _ in range(50):
        n = rng.choice((2, 3, 4, 5))
        p = Profile([rels[rng.randrange(6)] for _ in range(n)])
        for x in range(3):
            for y in range(x + 1, 3):
                mxy = majority_margin(p, x, y)
                assert mxy == -majority_margin(p, y, x)
                assert abs(mxy) <= n
                assert (mxy - n) % 2 == 0


def test_condorcet_winner_basic_cases():
    assert condorcet_winner(prof("a>b>c\na>c>b\nb>a>c")) == 0
    assert condorcet_winner(prof("a>b>c\nb>c>a\nc>a>b")) is None
    # even electorate with a majority tie has no winner
    assert condorcet_winner(prof("a>b>c\nb>a>c")) is None


def test_condorcet_winner_beats_everyone():
    rng = random.Random(21)
    rels = all_relations(3)
    for _ in range(100):
        p = Profile([rels[rng.randrange(6)] for _ in range(5)])
        w = condorcet_winner(p)
        if w is not None:
            assert all(
                majority_margin(p, w, y) > 0 for y in range(3) if y != w
            )


def frozen_condorcet_winner(profile):
    """The winner routine as it read before pairwise tallies: one margin row
    per candidate, rebuilt from every voter's positions."""
    for x in range(profile.m):
        row = [0] * profile.m
        for rel in profile.relations:
            px = rel.rank(x)
            for y in range(profile.m):
                if y != x:
                    row[y] += 1 if px < rel.rank(y) else -1
        if all(row[y] > 0 for y in range(profile.m) if y != x):
            return x
    return None


@pytest.mark.parametrize("n, m", [(n, 3) for n in range(1, 6)] + [(2, 4), (3, 4)])
def test_condorcet_winner_matches_frozen_routine_exhaustively(n, m):
    for p in all_profiles(n, m):
        assert condorcet_winner(p) == frozen_condorcet_winner(p), p


# -- tie-breaking -------------------------------------------------------------


def test_augment_appends_tiebreaker_as_voter():
    p = prof("a>b>c\nb>a>c")
    q = augment(p, rel("c>b>a"))
    assert q.n == 3 and q[2] == rel("c>b>a")
    with pytest.raises(ValueError):
        augment(p, PreferenceRelation((0, 1)))


def test_tiebroken_winner_resolves_ties():
    tied = prof("a>b>c\nb>a>c")
    assert condorcet_winner(tied, rel("a>b>c")) == 0
    assert condorcet_winner(tied, rel("b>c>a")) == 1


def test_tiebroken_winner_agrees_with_outright_winner():
    # when a strict majority winner exists, tie-breaking cannot change it
    rng = random.Random(3)
    rels = all_relations(3)
    for _ in range(100):
        p = Profile([rels[rng.randrange(6)] for _ in range(4)])
        w = condorcet_winner(p)
        if w is not None:
            for tb in rels:
                assert condorcet_winner(p, tb) == w


@pytest.mark.parametrize("n", range(2, 6))
def test_tiebroken_winner_matches_augmented_profile_exhaustively(n):
    for tb in all_relations(3):
        for p in all_profiles(n, 3):
            assert condorcet_winner(p, tb) == condorcet_winner(augment(p, tb)), (p, tb)
    with pytest.raises(ValueError):
        condorcet_winner(p, PreferenceRelation((0, 1)))


@pytest.mark.parametrize("n, m", [(n, 3) for n in range(1, 5)] + [(2, 4)])
def test_tiebroken_winner_matches_frozen_routine_on_augmented_profile(n, m):
    # the tie-broken kernel against margin rows rebuilt from every voter's positions
    for tb in all_relations(m):
        for p in all_profiles(n, m):
            assert condorcet_winner(p, tb) == frozen_condorcet_winner(augment(p, tb)), (p, tb)


def test_winner_memo_holds_no_domain():
    from condlab.domains import CondorcetDomain
    from condlab.sds import CondorcetRule

    condorcet_winner.cache_clear()
    members = CondorcetDomain(5, 3).members()
    rule = CondorcetRule(5, 3)
    for p in members:
        rule.at(p)
    assert condorcet_winner.cache_info().currsize < len(members) == 7_236


def margin_winner(profile):
    """The majority winner read off :func:`majority_margin`."""
    others = range(profile.m)
    for x in others:
        if all(majority_margin(profile, x, y) > 0 for y in others if y != x):
            return x
    return None


def test_packed_row_memo_is_bounded(monkeypatch):
    # each width's rows start over at _PACKED_MAX orders; a small bound shows it
    monkeypatch.setattr(core, "_PACKED_MAX", 5)
    monkeypatch.setattr(core, "_packed_rows", {})
    rng = random.Random(5)
    rels = all_relations(4)
    for _ in range(300):
        p = Profile([rels[rng.randrange(24)] for _ in range(rng.choice((3, 4, 5)))])
        assert condorcet_winner.__wrapped__(p) == margin_winner(p), p
        assert all(len(rows) <= 5 for rows in core._packed_rows.values())
    assert set(core._packed_rows) == {2, 3}


@pytest.mark.parametrize("n", [7, 8, 15, 16, 31, 32])
def test_winner_counts_at_field_boundaries(n):
    # 2**k voters fill a k-bit count field; the tally must not carry
    rng = random.Random(n)
    rels = all_relations(3)
    tb = rel("c>b>a")
    profiles = [Profile([r] * n) for r in rels]
    profiles += [Profile([rels[rng.randrange(6)] for _ in range(n)]) for _ in range(200)]
    for p in profiles:
        assert condorcet_winner(p) == margin_winner(p), p
        assert condorcet_winner(p, tb) == margin_winner(augment(p, tb)), p
    assert condorcet_winner(profiles[0]) == 0


# -- swaps and Pareto ---------------------------------------------------------


def test_swap_profile_single_voter():
    p = prof("a>b>c\nb>a>c")
    q = swap(p, 0, 0, 1)
    assert q == prof("b>a>c\nb>a>c")
    assert p == prof("a>b>c\nb>a>c")
    with pytest.raises(InvalidSwapError):
        swap(p, 1, 0, 1)


def test_pareto_dominates():
    p = prof("a>b>c\na>c>b")
    assert pareto_dominates(p, 0, 1)
    assert not pareto_dominates(p, 1, 2)
    with pytest.raises(ValueError):
        pareto_dominates(p, 2, 2)

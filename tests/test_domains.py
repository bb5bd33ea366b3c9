import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.axioms import check_strategyproof
from condlab.core import (
    PreferenceRelation,
    Profile,
    all_profiles,
    all_relations,
    condorcet_winner,
    swap,
)
from condlab.domains import (
    CapExceededError,
    capped_enumeration,
    CondorcetDomain,
    CondorcetForDomain,
    ExplicitDomain,
    ExtendedDomain,
    FullDomain,
    OutOfDomainError,
    TieBreakingCondorcetDomain,
    beyond_unilateral_reach,
    find_profiles_beyond_unilateral_reach,
    is_connected,
    is_weakly_connected,
    majority_cycle_profile,
    parse_domain,
)
from condlab.sds import parse_sds


def rel(text):
    return PreferenceRelation.from_text(text)


def prof(text):
    return Profile.from_text(text)


# -- independent counting oracles ----------------------------------------------
# These recompute membership from scratch on raw permutation tuples so the
# frozen domain sizes below are not certified by the code under test.


def _oracle_margin(orders, x, y):
    return sum(1 if o.index(x) < o.index(y) else -1 for o in orders)


def _oracle_has_winner(orders, m):
    for x in range(m):
        if all(_oracle_margin(orders, x, y) > 0 for y in range(m) if y != x):
            return True
    return False


def _oracle_count_condorcet(n, m):
    perms = list(itertools.permutations(range(m)))
    return sum(
        1
        for orders in itertools.product(perms, repeat=n)
        if _oracle_has_winner(orders, m)
    )


def _oracle_count_tiebroken(n, m, tb_order):
    perms = list(itertools.permutations(range(m)))
    return sum(
        1
        for orders in itertools.product(perms, repeat=n)
        if _oracle_has_winner(list(orders) + [tb_order], m)
    )


# -- frozen sizes ---------------------------------------------------------------


def test_full_domain_size():
    assert len(FullDomain(3, 3).members()) == 216


def test_condorcet_domain_size_matches_oracle_n3():
    dom = CondorcetDomain(3, 3)
    assert len(dom.members()) == 204
    assert _oracle_count_condorcet(3, 3) == 204


def test_cycle_profiles_n3():
    full = frozenset(FullDomain(3, 3).members())
    cond = frozenset(CondorcetDomain(3, 3).members())
    cycles = full - cond
    assert len(cycles) == 12
    assert majority_cycle_profile(3, 3) in cycles


def test_condorcet_for_partition_n3():
    dom = CondorcetDomain(3, 3)
    sizes = []
    for x in range(3):
        part = CondorcetForDomain(x, 3, 3)
        sizes.append(len(part.members()))
        assert all(condorcet_winner(p) == x for p in part.members())
    assert sizes == [68, 68, 68]
    assert sum(sizes) == len(dom.members())


def test_condorcet_domain_size_n4_matches_oracle():
    dom = CondorcetDomain(4, 3)
    assert len(dom.members()) == 576
    assert _oracle_count_condorcet(4, 3) == 576


def test_condorcet_domain_size_n5():
    assert len(CondorcetDomain(5, 3).members()) == 7236


def test_tiebreaking_domain_sizes_n4():
    for tb_text in ("a>b>c", "c>b>a"):
        dom = TieBreakingCondorcetDomain(rel(tb_text), 4, 3)
        assert len(dom.members()) == 1206
    assert _oracle_count_tiebroken(4, 3, (0, 1, 2)) == 1206


def test_tiebreaking_domain_contains_condorcet_domain():
    base = frozenset(CondorcetDomain(4, 3).members())
    tb_dom = frozenset(TieBreakingCondorcetDomain(rel("b>a>c"), 4, 3).members())
    assert base < tb_dom


# -- membership and neighborhoods ------------------------------------------------


def test_contains_shape_check():
    dom = CondorcetDomain(3, 3)
    with pytest.raises(ValueError):
        dom.contains(prof("a>b>c\nb>a>c"))


def test_member_lookup_refuses_a_code_outside_the_profile_space():
    dom = CondorcetDomain(3, 3)
    for code in (-1, 216, 10**9):
        with pytest.raises(ValueError, match="outside"):
            dom._member_at(code)
        assert code not in dom._table


def test_unilateral_deviations_stay_in_domain():
    dom = CondorcetDomain(3, 3)
    member = prof("a>b>c\nb>a>c\na>c>b")
    for voter in range(3):
        for deviation in dom.unilateral_deviations(member, voter):
            assert dom.contains(deviation)
            changed = [i for i in range(3) if deviation[i] != member[i]]
            assert changed == [voter]
    with pytest.raises(OutOfDomainError):
        list(dom.unilateral_deviations(majority_cycle_profile(3, 3), 0))


def test_adjacent_neighbors_symmetry_sampled():
    dom = CondorcetDomain(3, 3)
    rng = random.Random(5)
    members = dom.members()
    for _ in range(25):
        p = members[rng.randrange(len(members))]
        for *_, q in dom.adjacent_swaps(p):
            assert p in {r for *_, r in dom.adjacent_swaps(q)}


def test_adjacent_neighbors_fixed_preserves_contours():
    dom = CondorcetDomain(3, 3)
    p = prof("b>a>c\nb>a>c\na>c>b")
    for voter, x, y, q in dom.adjacent_swaps(p, fixed=2):
        assert 2 not in (x, y) and q == swap(p, voter, x, y)
        for i in range(3):
            assert p[i].upper_contour(2) == q[i].upper_contour(2)


# -- connectivity ----------------------------------------------------------------


def test_weak_connectivity_facts():
    assert is_weakly_connected(FullDomain(3, 3))
    assert is_weakly_connected(CondorcetDomain(3, 3))
    assert not is_weakly_connected(CondorcetDomain(4, 3))


def test_full_connectivity_n3():
    assert is_connected(CondorcetDomain(3, 3))


def test_tiebreaking_domains_connected_n4():
    for tb_text in ("a>b>c", "c>b>a"):
        assert is_connected(TieBreakingCondorcetDomain(rel(tb_text), 4, 3))


# -- cycle profile and unilateral reach ------------------------------------------


def test_majority_cycle_profile_has_no_winner():
    for n in (3, 5, 7):
        p = majority_cycle_profile(n, 3)
        assert p.n == n
        assert condorcet_winner(p) is None
    with pytest.raises(ValueError):
        majority_cycle_profile(4, 3)
    with pytest.raises(ValueError):
        majority_cycle_profile(3, 2)


def test_no_profile_beyond_unilateral_reach_n3():
    # at three voters a single swap always restores a majority winner
    assert find_profiles_beyond_unilateral_reach(CondorcetDomain(3, 3)) == []


def test_beyond_unilateral_reach_demonstration_n9():
    # three copies of each cycle rotation: every pairwise margin is 3, and
    # one voter can shift a margin by at most 2, so no deviation creates
    # a majority winner
    rotations = [rel("a>b>c"), rel("b>c>a"), rel("c>a>b")]
    stacked = Profile([r for r in rotations for _ in range(3)])
    dom = CondorcetDomain(9, 3)
    assert beyond_unilateral_reach(stacked, dom)
    near = majority_cycle_profile(3, 3)
    assert not beyond_unilateral_reach(near, CondorcetDomain(3, 3))


def test_beyond_reach_search_pins_the_smallest_even_electorate_at_m3():
    found = find_profiles_beyond_unilateral_reach(CondorcetDomain(6, 3))
    assert len(found) == 180
    assert "|".join(r.to_text() for r in found[0]) == "a>b>c|a>b>c|b>c>a|b>c>a|c>a>b|c>a>b"


@pytest.mark.slow
def test_beyond_reach_search_pins_four_voters_at_m4():
    found = find_profiles_beyond_unilateral_reach(CondorcetDomain(4, 4))
    assert len(found) == 144
    assert "|".join(r.to_text() for r in found[0]) == "a>b>c>d|b>c>d>a|c>d>a>b|d>a>b>c"


def test_find_beyond_reach_respects_cap():
    with capped_enumeration(1000), pytest.raises(CapExceededError):
        find_profiles_beyond_unilateral_reach(CondorcetDomain(9, 3))


def _reference_beyond_reach(base):
    """The reach search through one extended domain per tested profile."""
    found = []
    for profile in all_profiles(base.n, base.m):
        if base.contains(profile):
            continue
        reach = ExtendedDomain(base, [profile])
        if all(next(reach.unilateral_deviations(profile, v), None) is None for v in range(base.n)):
            found.append(profile)
    return found


@pytest.mark.parametrize("n, m, most", [(2, 3, 3), (3, 3, 8), (2, 4, 8)])
def test_find_beyond_reach_matches_extended_domain_reference(n, m, most):
    rng = random.Random(100 * n + m)
    full = list(all_profiles(n, m))
    non_empty = 0
    for _ in range(6):
        base = ExplicitDomain(rng.sample(full, rng.randint(1, most)))
        expected = _reference_beyond_reach(base)
        assert find_profiles_beyond_unilateral_reach(base) == expected
        non_empty += bool(expected)
    assert non_empty >= 4


# -- explicit and extended domains ------------------------------------------------


def test_explicit_domain():
    profiles = [prof("a>b>c\nb>a>c\na>c>b"), prof("b>a>c\nb>a>c\na>c>b")]
    dom = ExplicitDomain(profiles)
    assert len(dom.members()) == 2
    assert dom.contains(profiles[0])
    assert not dom.contains(prof("c>b>a\nc>b>a\nc>b>a"))


def test_extended_domain_membership_and_disjointness():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    dom = ExtendedDomain(base, [cycle])
    assert dom.contains(cycle)
    assert len(dom.members()) == len(base.members()) + 1
    keys = [p.code for p in dom.members()]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        ExtendedDomain(base, [prof("a>b>c\na>b>c\na>b>c")])


EXTENSION_BASES = {
    "condorcet": lambda: CondorcetDomain(3, 3),
    "condorcet-for:a": lambda: CondorcetForDomain(0, 3, 3),
    "tb-condorcet:a>b>c": lambda: TieBreakingCondorcetDomain(rel("a>b>c"), 4),
    "explicit": lambda: ExplicitDomain(list(all_profiles(3, 3))[::7]),
    "extended": lambda: ExtendedDomain(CondorcetDomain(3, 3), [majority_cycle_profile(3, 3)]),
}


@pytest.mark.parametrize("make_base", EXTENSION_BASES.values(), ids=EXTENSION_BASES)
def test_extended_members_are_the_base_members_merged_with_the_extras(make_base):
    reference = make_base()
    outside = [p for p in all_profiles(reference.n, reference.m) if not reference.contains(p)]
    extras = outside[:: len(outside) // 3][:3]
    base = make_base()
    base.members()  # enumerated first, as a scan of the base leaves it
    dom = ExtendedDomain(base, extras)
    # brute force: every profile of the full space, decided by a fresh base
    expected = [p.code for p in all_profiles(base.n, base.m) if reference.contains(p) or p in extras]
    assert [p.code for p in dom.members()] == expected
    own = {p.code: p for p in (*base.members(), *dom.extras)}
    assert all(p is own[p.code] for p in dom.members())


@pytest.mark.parametrize("members_first", [True, False])
def test_explicit_and_extended_contains(members_first):
    cycle = majority_cycle_profile(3, 3)
    unanimous = prof("a>b>c\na>b>c\na>b>c")
    for dom in (ExplicitDomain([cycle, unanimous]), ExtendedDomain(CondorcetDomain(3, 3), [cycle])):
        if members_first:
            dom.members()
        for member in (cycle, unanimous):
            twin = prof(member.to_text())
            assert twin is not member and dom.contains(member) and dom.contains(twin)
        assert not dom.contains(prof("a>c>b\nc>b>a\nb>a>c"))  # the other cycle
        # a base member outside the explicit list
        assert dom.contains(prof("a>b>c\na>b>c\nb>c>a")) == isinstance(dom, ExtendedDomain)
        for wrong in (prof("a>b>c\nb>c>a"), prof("a>b>c>d\nb>c>d>a\nc>d>a>b")):
            with pytest.raises(ValueError):
                dom.contains(wrong)


def test_enumeration_cap_enforced():
    dom = FullDomain(3, 3)
    with capped_enumeration(100), pytest.raises(CapExceededError):
        dom.members()


def test_members_cap_checked_on_every_call():
    dom = CondorcetDomain(3, 3)
    assert len(dom.members()) == 204
    with capped_enumeration(10):
        with pytest.raises(CapExceededError):
            dom.members()
        with pytest.raises(CapExceededError):
            is_weakly_connected(dom)


def test_relation_table_refused_over_the_cap():
    # the table is cached per m, so this needs an m no other test builds: 7! > 100
    profile = Profile([PreferenceRelation(range(7))] * 3)
    misses = all_relations.cache_info().misses
    with capped_enumeration(100):
        # single-profile work never needs the table
        assert CondorcetDomain(3, 7).contains(profile)
        assert all_relations.cache_info().misses == misses
        with pytest.raises(CapExceededError):
            all_relations(7)
        with pytest.raises(CapExceededError):
            CondorcetDomain(3, 7).members()


# -- parsing ----------------------------------------------------------------------


def test_parse_domain_kinds():
    assert parse_domain("full", 3, 3) == FullDomain(3, 3)
    assert parse_domain("condorcet", 3, 3) == CondorcetDomain(3, 3)
    assert parse_domain("condorcet-for:b", 3, 3) == CondorcetForDomain(1, 3, 3)
    tb_dom = parse_domain("tb-condorcet:c>b>a", 4, 3)
    assert tb_dom == TieBreakingCondorcetDomain(rel("c>b>a"), 4, 3)
    with pytest.raises(ValueError):
        parse_domain("mystery", 3, 3)


def test_parse_domain_with_extras_file(tmp_path):
    extras = tmp_path / "extras.txt"
    extras.write_text(majority_cycle_profile(3, 3).to_text() + "\n")
    dom = parse_domain(f"condorcet+file:{extras}", 3, 3)
    assert dom.contains(majority_cycle_profile(3, 3))
    assert len(dom.members()) == 205


# -- neighbourhood walk against a brute-force reference ------------------------------


def reference_deviations(dom, profile, coalition):
    """Every in-domain profile that differs from ``profile`` exactly on ``coalition``."""
    return [
        other
        for other in all_profiles(dom.n, dom.m)
        if all((other[i] != profile[i]) == (i in coalition) for i in range(dom.n))
        and dom.contains(other)
    ]


# Factories, so that each example can also start from a domain whose
# neighbour table and member list are still empty.
NEIGHBOURHOOD_DOMAINS = (
    lambda: CondorcetDomain(3, 3),
    lambda: CondorcetDomain(2, 4),
    lambda: TieBreakingCondorcetDomain(rel("b>a>c"), 4, 3),
    lambda: ExtendedDomain(CondorcetDomain(3, 3), [majority_cycle_profile(3, 3)]),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deviations_match_brute_force(data):
    make = data.draw(st.sampled_from(NEIGHBOURHOOD_DOMAINS))
    members = make().members()
    index = data.draw(st.integers(0, len(members) - 1))
    profile = members[index]
    voters = data.draw(st.sets(st.integers(0, len(profile.relations) - 1), min_size=1))
    coalition = tuple(sorted(voters))
    expected = reference_deviations(make(), profile, coalition)
    dom = make()
    if data.draw(st.booleans()):
        dom.members()
    assert list(dom.deviations(profile, coalition)) == expected
    dom.members()
    assert list(dom.deviations(profile, coalition)) == expected
    found = list(dom.deviations(dom.members()[index], coalition))
    assert found == expected
    if len(coalition) == 1:
        assert list(dom.unilateral_deviations(profile, coalition[0])) == expected
    # an equal profile that is not the table's member object walks to the same objects
    copy = Profile.from_text(profile.to_text())
    assert [id(q) for q in dom.deviations(copy, coalition)] == [id(q) for q in found]


def test_deviations_reject_malformed_coalitions():
    dom = CondorcetDomain(3, 3)
    profile = dom.members()[0]
    for coalition in ((0, 0), (-1,), (3,)):
        with pytest.raises(ValueError):
            list(dom.deviations(profile, coalition))
    outsider = next(p for p in all_profiles(3, 3) if not dom.contains(p))
    with pytest.raises(OutOfDomainError):
        list(dom.unilateral_deviations(outsider, 0))
    # the table holds a member at these codes, but not of these shapes
    member = dom.members()[-1]
    for n, m in ((4, 3), (3, 4)):
        wrong = Profile.from_code(member.code, n, m)
        assert wrong.code == member.code
        with pytest.raises(ValueError):
            list(dom.unilateral_deviations(wrong, 0))


def reference_adjacent_swaps(dom, profile, fixed):
    """Every in-domain profile where one voter's order is an adjacent
    transposition of the truthful one, found by comparing with every order."""
    found = []
    for voter in range(dom.n):
        order = profile[voter].order
        by_slot = []
        for other in all_relations(dom.m):
            moved = [s for s in range(dom.m) if other.order[s] != order[s]]
            if len(moved) != 2 or moved[1] != moved[0] + 1:
                continue
            x, y = order[moved[0]], order[moved[1]]
            neighbour = profile.replace(voter, other)
            if fixed not in (x, y) and dom.contains(neighbour):
                by_slot.append((moved[0], (voter, x, y, neighbour)))
        found.extend(item for _, item in sorted(by_slot, key=lambda pair: pair[0]))
    return found


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjacent_swaps_match_brute_force(data):
    make = data.draw(st.sampled_from(NEIGHBOURHOOD_DOMAINS))
    dom = make()
    members = make().members()
    profile = members[data.draw(st.integers(0, len(members) - 1))]
    fixed = data.draw(st.sampled_from((None,) + tuple(range(dom.m))))
    expected = reference_adjacent_swaps(make(), profile, fixed)
    assert list(dom.adjacent_swaps(profile, fixed)) == expected
    dom.members()
    assert list(dom.adjacent_swaps(profile, fixed)) == expected


# -- the member table ------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    NEIGHBOURHOOD_DOMAINS[:1]
    + NEIGHBOURHOOD_DOMAINS[2:]
    + (lambda: ExplicitDomain(CondorcetDomain(3, 3).members()[:40]),),
    ids=["condorcet", "tb-condorcet", "extended", "explicit"],
)
@pytest.mark.parametrize("members_first", [True, False])
def test_neighbour_lookups_yield_member_objects(make, members_first):
    dom = make()
    if members_first:
        dom.members()
    yielded = []
    for profile in make().members():
        for voter in range(dom.n):
            yielded.extend(dom.unilateral_deviations(profile, voter))
        yielded.extend(neighbour for *_, neighbour in dom.adjacent_swaps(profile))
    by_code = {p.code: p for p in dom.members()}
    assert yielded
    assert all(p is by_code[p.code] for p in yielded)


def test_membership_decided_once_per_profile():
    dom = CondorcetDomain(3, 3)
    decide, decided = dom._contains, []

    def counted(profile):
        decided.append(profile)
        return decide(profile)

    dom._contains = counted
    assert len(dom.members()) == 204
    assert sum(map(dom.contains, all_profiles(3, 3))) == 204
    scheme = parse_sds("mix:1/2*cond+1/2*rd:1/3,1/3,1/3", 3, 3)
    assert check_strategyproof(scheme, dom).comparisons == 2880
    assert len(decided) == 216


def test_neighbour_lookups_on_a_large_domain_stay_small():
    # 6**9 profiles: a table with a slot per profile would take 80 MB
    rotations = [rel("a>b>c"), rel("b>c>a"), rel("c>a>b")]
    stacked = Profile([r for r in rotations for _ in range(3)])
    tracemalloc.start()
    try:
        assert beyond_unilateral_reach(stacked, CondorcetDomain(9, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20

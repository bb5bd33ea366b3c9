import itertools
import random
from collections import deque

import pytest

from condlab.adpath import (
    AdPath,
    ParityMismatchError,
    PreconditionViolatedError,
    build_adpath,
    build_adpath_fixing,
    validate_adpath,
)
from condlab.core import PreferenceRelation, Profile, swap
from condlab.domains import (
    CondorcetDomain,
    FullDomain,
    OutOfDomainError,
    TieBreakingCondorcetDomain,
    majority_cycle_profile,
)
from test_core import majority_margin


def rel(text):
    return PreferenceRelation.from_text(text)


def prof(text):
    return Profile.from_text(text)


DOM3 = CondorcetDomain(3, 3)

# Frozen by the exhaustive sweep in test_every_pair_in_small_domain: the
# adjacency graph of the 204-member domain has diameter 9 and the builder
# never needs more than 13 swaps.
DIAMETER_3_3 = 9
BUILDER_BOUND_3_3 = 13


def bfs_distances(dom, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for *_, nb in dom.adjacent_swaps(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


# -- path objects and the validator ------------------------------------------------


def test_trivial_path():
    p = prof("a>b>c\na>b>c\nb>a>c")
    path = build_adpath(DOM3, p, p)
    assert len(path) == 1 and path.start == path.end == p
    assert validate_adpath(DOM3, path).holds
    with pytest.raises(ValueError):
        AdPath(())


def test_validator_accepts_hand_built_step():
    p = prof("a>b>c\na>b>c\nb>a>c")
    q = swap(p, 2, 1, 0)
    path = AdPath((p, q))
    verdict = validate_adpath(DOM3, path)
    assert verdict.holds
    assert path.swaps == [{"voter": 2, "x": "b", "y": "a"}]
    # the same swap touches alternative a, so fixing a must flag it
    flagged = validate_adpath(DOM3, path, fixed=0)
    assert not flagged.holds
    assert "fixed alternative a" in flagged.witness.reason
    assert validate_adpath(DOM3, path, fixed=2).holds


def test_validator_flags_profile_outside_domain():
    cycle = majority_cycle_profile(3, 3)
    verdict = validate_adpath(DOM3, AdPath((cycle,)))
    assert not verdict.holds
    assert verdict.witness.step == 0
    assert verdict.witness.reason == "profile outside the domain"


def test_validator_flags_bad_transitions():
    p = prof("a>b>c\na>b>c\na>b>c")
    two_voters = prof("b>a>c\na>b>c\nb>a>c")
    verdict = validate_adpath(DOM3, AdPath((p, two_voters)))
    assert not verdict.holds and "exactly one voter" in verdict.witness.reason
    rotated = prof("b>c>a\na>b>c\na>b>c")
    verdict = validate_adpath(DOM3, AdPath((p, rotated)))
    assert not verdict.holds and "one adjacent swap" in verdict.witness.reason
    assert verdict.witness.step == 1


def test_path_json_round_trip():
    start = prof("a>b>c\nb>a>c\nc>a>b")
    goal = prof("b>c>a\nb>a>c\na>b>c")
    path = build_adpath(DOM3, start, goal)
    data = path.to_json_dict()
    assert data["steps"][0] == start.to_text()
    assert data["steps"][-1] == goal.to_text()
    assert len(data["swaps"]) == len(path) - 1
    assert AdPath(tuple(prof(text) for text in data["steps"])) == path


# -- builder entry conditions --------------------------------------------------------


def test_builder_parity_and_kind_errors():
    even = prof("a>b>c\na>b>c\na>b>c\na>b>c")
    with pytest.raises(ParityMismatchError):
        build_adpath(CondorcetDomain(4, 3), even, even)
    odd = prof("a>b>c\na>b>c\na>b>c")
    with pytest.raises(ParityMismatchError):
        build_adpath(TieBreakingCondorcetDomain(rel("a>b>c"), 3), odd, odd)
    with pytest.raises(ValueError):
        build_adpath(FullDomain(3, 3), odd, odd)


def test_builder_rejects_non_member_endpoints():
    member = prof("a>b>c\na>b>c\nb>a>c")
    cycle = majority_cycle_profile(3, 3)
    with pytest.raises(OutOfDomainError):
        build_adpath(DOM3, cycle, member)
    with pytest.raises(OutOfDomainError):
        build_adpath(DOM3, member, cycle)


# -- plain builder, sampled and exhaustive ----------------------------------------------


def test_sampled_pairs_three_voters():
    members = DOM3.members()
    rng = random.Random(7)
    for _ in range(40):
        start, goal = rng.choice(members), rng.choice(members)
        path = build_adpath(DOM3, start, goal)
        assert path.start == start and path.end == goal
        assert validate_adpath(DOM3, path).holds
        shortest = bfs_distances(DOM3, start)[goal]
        assert shortest <= len(path) - 1 <= 2 * DIAMETER_3_3


def test_sampled_pairs_five_voters():
    dom = CondorcetDomain(5, 3)
    members = dom.members()
    rng = random.Random(11)
    for _ in range(15):
        start, goal = rng.choice(members), rng.choice(members)
        path = build_adpath(dom, start, goal)
        assert path.start == start and path.end == goal
        assert validate_adpath(dom, path).holds


def test_five_voter_paths_commute_with_relabelling_but_not_with_voter_permutations():
    # orbits of pairs under relabelling the alternatives would suffice to
    # validate every n=5 path, but orbits under voter permutations would not
    dom = CondorcetDomain(5, 3)
    members = dom.members()

    def relabel(profile, image):
        return Profile([PreferenceRelation(tuple(image[x] for x in r.order)) for r in profile.relations])

    rng = random.Random(5)
    for _ in range(10):
        start, goal = rng.choice(members), rng.choice(members)
        steps = build_adpath(dom, start, goal).steps
        for image in itertools.permutations(range(3)):
            mapped = build_adpath(dom, relabel(start, image), relabel(goal, image)).steps
            assert mapped == tuple(relabel(step, image) for step in steps)

    # voters 3 and 4 agree at both ends, so swapping them fixes the pair,
    # yet the path moves them at different steps
    start = prof("c>b>a\nc>a>b\nb>a>c\nc>a>b\nc>a>b")
    goal = prof("b>a>c\nb>c>a\nb>c>a\nc>b>a\nc>b>a")
    steps = build_adpath(dom, start, goal).steps
    swapped = tuple(Profile([p[0], p[1], p[2], p[4], p[3]]) for p in steps)
    assert swapped != steps


def test_sampled_pairs_tiebreaking_domain():
    dom = TieBreakingCondorcetDomain(rel("b>c>a"), 4)
    members = dom.members()
    rng = random.Random(13)
    for _ in range(25):
        start, goal = rng.choice(members), rng.choice(members)
        path = build_adpath(dom, start, goal)
        assert path.start == start and path.end == goal
        assert validate_adpath(dom, path).holds


def test_every_pair_in_small_domain():
    members = DOM3.members()
    dist = {src: bfs_distances(DOM3, src) for src in members}
    assert max(max(d.values()) for d in dist.values()) == DIAMETER_3_3
    worst = 0
    for start in members:
        for goal in members:
            length = len(build_adpath(DOM3, start, goal)) - 1
            assert length >= dist[start][goal]
            worst = max(worst, length)
    assert worst == BUILDER_BOUND_3_3


@pytest.mark.slow
def test_every_pair_in_tiebreaking_domain():
    dom = TieBreakingCondorcetDomain(rel("a>b>c"), 4)
    members = dom.members()
    assert len(members) == 1206
    for start in members:
        for goal in members:
            path = build_adpath(dom, start, goal)
            assert path.start == start and path.end == goal
            assert validate_adpath(dom, path).holds


# -- fixing builder ------------------------------------------------------------------


def test_fixing_requires_contour_agreement():
    start = prof("a>b>c\na>b>c\na>b>c")
    goal = prof("b>a>c\nb>a>c\nb>a>c")
    with pytest.raises(PreconditionViolatedError):
        build_adpath_fixing(DOM3, start, goal, 0)
    with pytest.raises(ValueError):
        build_adpath_fixing(DOM3, start, goal, 5)


def test_fixing_path_between_equal_endpoints_is_the_start_alone():
    start = prof("a>b>c\na>b>c\nb>a>c")
    path = build_adpath_fixing(DOM3, start, prof("a>b>c\na>b>c\nb>a>c"), 1)
    assert path.steps == (start,)
    assert validate_adpath(DOM3, path, fixed=1).holds


def test_fixing_path_with_fixed_winner():
    start = prof("a>b>c\na>b>c\na>b>c")
    goal = prof("a>c>b\na>c>b\na>c>b")
    path = build_adpath_fixing(DOM3, start, goal, 0)
    assert path.start == start and path.end == goal
    assert validate_adpath(DOM3, path, fixed=0).holds


def test_fixing_path_across_winner_change():
    start = prof("a>b>c\na>b>c\nb>a>c")
    goal = prof("b>a>c\nb>a>c\na>b>c")
    path = build_adpath_fixing(DOM3, start, goal, 2)
    assert path.start == start and path.end == goal
    assert validate_adpath(DOM3, path, fixed=2).holds
    # never swapping c pins every margin against c along the way
    for step in path.steps:
        assert majority_margin(step, 0, 2) == majority_margin(start, 0, 2)
        assert majority_margin(step, 1, 2) == majority_margin(start, 1, 2)


def test_fixing_path_every_qualifying_pair():
    # group members by the per-voter upper contour sets of the fixed
    # alternative; pairs inside one class are exactly the qualifying inputs
    members = DOM3.members()
    by_signature = {}
    for p in members:
        for fixed in range(3):
            sig = (fixed, tuple(p[v].upper_contour(fixed) for v in range(3)))
            by_signature.setdefault(sig, []).append(p)
    pairs = 0
    for (fixed, contours), bucket in by_signature.items():
        for start in bucket:
            for goal in bucket:
                if start is goal:
                    continue
                pairs += 1
                path = build_adpath_fixing(DOM3, start, goal, fixed)
                assert path.start == start and path.end == goal
                assert validate_adpath(DOM3, path, fixed=fixed).holds
                # never swapping the fixed alternative must preserve every
                # voter's upper contour set of it, step by step
                for step in path.steps:
                    assert tuple(step[v].upper_contour(fixed) for v in range(3)) == contours
    assert pairs == 2136


def test_fixing_path_hands_over_the_winner_at_four_alternatives():
    # at m=4 the handover midpoint has a fourth alternative, c, to place:
    # below the fixed b for voter 0 and above it for voters 1 and 2
    dom = CondorcetDomain(3, 4)
    start = prof("b>c>d>a\na>d>c>b\na>c>d>b")
    goal = prof("b>d>c>a\na>c>d>b\nd>a>c>b")
    assert (dom.majority_winner(start), dom.majority_winner(goal)) == (0, 3)
    path = build_adpath_fixing(dom, start, goal, 1)
    assert validate_adpath(dom, path, fixed=1).holds
    assert path.start == start and path.end == goal
    assert all("b" not in (record["x"], record["y"]) for record in path.swaps)
    assert len(path) == 11

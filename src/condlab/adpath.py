"""Adjacency paths: constructive connectedness of majority domains.

A path is a sequence of profiles, each obtained from the previous one by a
single adjacent swap in a single voter's ranking, with every intermediate
profile still inside the domain. ``build_adpath`` produces such a path
between any two members of a majority domain. ``build_adpath_fixing``
additionally never touches a designated alternative, which is possible
whenever the endpoints agree on every voter's upper contour set of that
alternative. Builders exist for the plain majority domain with an odd
electorate and for the tie-breaking variant with an even electorate; the
parity is what keeps intermediate winners well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import PreferenceRelation, Profile, alternative_name, swap
from .axioms import Verdict
from .domains import (
    CondorcetDomain,
    Domain,
    OutOfDomainError,
    ParityMismatchError,
    TieBreakingCondorcetDomain,
)


class PreconditionViolatedError(ValueError):
    """The endpoints do not satisfy the builder's entry condition."""


class PathFlawWitness(NamedTuple):
    step: int
    reason: str
    profile: Profile

    def to_json_dict(self) -> dict:
        return {"step": self.step, "reason": self.reason, "profile": self.profile.to_text()}


def _transition(before: Profile, after: Profile) -> Tuple[int, int, int]:
    """The (voter, upper, lower) of the single adjacent swap between two
    profiles, or ValueError if they do not differ by exactly one."""
    changed = [v for v in range(before.n) if before[v] != after[v]]
    if len(changed) != 1:
        raise ValueError("steps must differ in exactly one voter")
    voter = changed[0]
    a, b = before[voter].order, after[voter].order
    spots = [i for i in range(len(a)) if a[i] != b[i]]
    if (
        len(spots) != 2
        or spots[1] != spots[0] + 1
        or a[spots[0]] != b[spots[1]]
        or a[spots[1]] != b[spots[0]]
    ):
        raise ValueError("steps must differ by one adjacent swap")
    return voter, a[spots[0]], a[spots[1]]


@dataclass(frozen=True)
class AdPath:
    steps: Tuple[Profile, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a path has at least one profile")

    @property
    def start(self) -> Profile:
        return self.steps[0]

    @property
    def end(self) -> Profile:
        return self.steps[-1]

    @property
    def swaps(self) -> List[dict]:
        records = []
        for before, after in zip(self.steps, self.steps[1:]):
            voter, upper, lower = _transition(before, after)
            records.append(
                {"voter": voter, "x": alternative_name(upper), "y": alternative_name(lower)}
            )
        return records

    def __len__(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {"steps": [step.to_text() for step in self.steps], "swaps": self.swaps}

    @classmethod
    def from_json_dict(cls, data) -> "AdPath":
        return cls(tuple(Profile.from_text(text) for text in data["steps"]))


def _endpoint_winners(dom: Domain, start: Profile, goal: Profile) -> Tuple[int, int]:
    """The majority winners of a path's endpoints, once ``dom`` is known to
    have a path builder and to hold both endpoints."""
    if isinstance(dom, TieBreakingCondorcetDomain):
        if dom.n % 2 != 0:
            raise ParityMismatchError("tie-breaking majority domains take an even electorate")
    elif isinstance(dom, CondorcetDomain):
        if dom.n % 2 == 0:
            raise ParityMismatchError("majority domains take an odd electorate")
    else:
        raise ValueError(f"no path builder for domain {dom.describe()!r}")
    for label, profile in (("start", start), ("goal", goal)):
        if not dom.contains(profile):
            raise OutOfDomainError(f"{label} profile is outside the domain")
    return dom.majority_winner(start), dom.majority_winner(goal)


class _Walk:
    """Mutable cursor over a path under construction."""

    def __init__(self, start: Profile):
        self.steps: List[Profile] = [start]

    @property
    def current(self) -> Profile:
        return self.steps[-1]

    def swap(self, voter: int, x: int, y: int) -> None:
        self.steps.append(swap(self.current, voter, x, y))

    def move_to_rank(self, voter: int, alt: int, target: int) -> None:
        rel = self.current[voter]
        while rel.rank(alt) > target:
            self.swap(voter, rel.order[rel.rank(alt) - 2], alt)
            rel = self.current[voter]
        while rel.rank(alt) < target:
            self.swap(voter, alt, rel.order[rel.rank(alt)])
            rel = self.current[voter]

    def reorder_slots(self, voter: int, target: Sequence[int], lo: int, hi: int) -> None:
        """Selection-sort slots ``lo..hi`` (0-based, inclusive) into ``target``
        order using adjacent swaps that stay inside the block."""
        for slot in range(lo, hi + 1):
            want = target[slot - lo]
            pos = self.current[voter].order.index(want)
            while pos > slot:
                self.swap(voter, self.current[voter].order[pos - 1], want)
                pos -= 1


def build_adpath(dom: Domain, start: Profile, goal: Profile) -> AdPath:
    """A swap path between two domain members, every step in the domain.

    The route reinforces the starting winner to a unanimous top, hands over
    to the goal winner while both sit in the top two slots of every ranking,
    rebuilds everything below the top in the goal's order, and finally lets
    the winner sink to its goal ranks.
    """
    c, c2 = _endpoint_winners(dom, start, goal)
    if start == goal:
        return AdPath((start,))
    n, m = start.n, start.m
    walk = _Walk(start)
    for voter in range(n):
        walk.move_to_rank(voter, c, 1)
    if c2 != c:
        for voter in range(n):
            walk.move_to_rank(voter, c2, 2)
        for voter in range(n):
            walk.swap(voter, c, c2)
    for voter in range(n):
        target = [y for y in goal[voter].order if y != c2]
        walk.reorder_slots(voter, target, 1, m - 1)
    for voter in range(n):
        walk.move_to_rank(voter, c2, goal[voter].rank(c2))
    return AdPath(tuple(walk.steps))


def _split(rel: PreferenceRelation, fixed: int, skip: Sequence[int] = ()) -> Tuple[list, list]:
    """The alternatives outside ``skip`` that ``rel`` ranks above ``fixed``, and
    those it ranks below, each in ``rel``'s order."""
    slot = rel.rank(fixed) - 1
    return (
        [y for y in rel.order[:slot] if y not in skip],
        [y for y in rel.order[slot + 1:] if y not in skip],
    )


def _same_winner_steps(walk: _Walk, goal: Profile, fixed: int, winner: int) -> None:
    """Extend the walk to ``goal`` without touching ``fixed``, assuming the
    current profile and the goal share the winner and agree on every voter's
    upper contour set of ``fixed``."""
    n, m = goal.n, goal.m
    for voter in range(n):
        rel = walk.current[voter]
        if rel.prefers(winner, fixed):
            walk.move_to_rank(voter, winner, 1)
        else:
            walk.move_to_rank(voter, winner, rel.rank(fixed) + 1)
    for voter in range(n):
        rel = walk.current[voter]
        slot_x = rel.rank(fixed) - 1
        above, below = _split(goal[voter], fixed, (winner,))
        if rel.prefers(winner, fixed):
            walk.reorder_slots(voter, above, 1, slot_x - 1)
            walk.reorder_slots(voter, below, slot_x + 1, m - 1)
        else:
            walk.reorder_slots(voter, above, 0, slot_x - 1)
            walk.reorder_slots(voter, below, slot_x + 2, m - 1)
    for voter in range(n):
        walk.move_to_rank(voter, winner, goal[voter].rank(winner))


def build_adpath_fixing(dom: Domain, start: Profile, goal: Profile, fixed: int) -> AdPath:
    """A swap path between two domain members in which no swap ever involves
    the alternative ``fixed``.

    Requires the endpoints to agree, voter by voter, on the upper contour
    set of ``fixed``; this pins all pairwise comparisons against ``fixed``,
    so its standing with the majority never changes along the path.
    """
    c, c2 = _endpoint_winners(dom, start, goal)
    if not 0 <= fixed < start.m:
        raise ValueError("fixed alternative out of range")
    for voter in range(start.n):
        if start[voter].upper_contour(fixed) != goal[voter].upper_contour(fixed):
            raise PreconditionViolatedError(
                f"endpoints disagree on voter {voter}'s upper contour set "
                f"of {alternative_name(fixed)}"
            )
    if start == goal:
        return AdPath((start,))
    n = start.n
    walk = _Walk(start)
    if c == c2 == fixed:
        for voter in range(n):
            above, below = _split(goal[voter], fixed)
            slot_x = len(above)  # the endpoints agree on every voter's slot of fixed
            walk.reorder_slots(voter, above, 0, slot_x - 1)
            walk.reorder_slots(voter, below, slot_x + 1, start.m - 1)
        return AdPath(tuple(walk.steps))
    if c == c2:
        _same_winner_steps(walk, goal, fixed, c)
        return AdPath(tuple(walk.steps))
    # Winners differ, so neither can be the fixed alternative: the fixed
    # alternative's margins are the same at both endpoints, and a majority
    # winner is determined by its own margins alone.
    handover = _handover_profile(goal, fixed, c, c2)
    _same_winner_steps(walk, handover, fixed, c)
    for voter in range(n):
        if goal[voter].prefers(c, fixed) == goal[voter].prefers(c2, fixed):
            walk.swap(voter, c, c2)
    _same_winner_steps(walk, goal, fixed, c2)
    return AdPath(tuple(walk.steps))


def _handover_profile(goal: Profile, fixed: int, c: int, c2: int) -> Profile:
    """The midpoint for a fixing path whose endpoint winners differ.

    Both winners sit as high as their sides of the fixed alternative allow;
    voters with both on the same side keep them adjacent, so the handover to
    the second winner is a single swap per such voter.
    """
    relations = []
    for voter in range(goal.n):
        goal_rel = goal[voter]
        above, below = _split(goal_rel, fixed, (c, c2))
        c_up = goal_rel.prefers(c, fixed)
        c2_up = goal_rel.prefers(c2, fixed)
        if c_up and not c2_up:
            order = [c] + above + [fixed, c2] + below
        elif c2_up and not c_up:
            order = [c2] + above + [fixed, c] + below
        elif c_up and c2_up:
            order = [c, c2] + above + [fixed] + below
        else:
            order = above + [fixed, c, c2] + below
        relations.append(PreferenceRelation(order))
    return Profile(relations)


def validate_adpath(dom: Domain, path: AdPath, fixed: Optional[int] = None) -> Verdict:
    """Check a path: every step a domain member, every transition one
    adjacent swap, and the fixed alternative (if any) never swapped."""
    checked = 0
    comparisons = 0

    def flaw(step: int, reason: str, profile: Profile) -> Verdict:
        witness = PathFlawWitness(step, reason, profile)
        return Verdict("adjacency-path", False, witness, checked, comparisons)

    for index, step in enumerate(path.steps):
        checked += 1
        if not dom.contains(step):
            return flaw(index, "profile outside the domain", step)
    for index, (before, after) in enumerate(zip(path.steps, path.steps[1:])):
        comparisons += 1
        try:
            voter, upper, lower = _transition(before, after)
        except ValueError as err:
            return flaw(index + 1, str(err), after)
        if fixed is not None and fixed in (upper, lower):
            return flaw(
                index + 1, f"swap touches the fixed alternative {alternative_name(fixed)}", after
            )
    return Verdict("adjacency-path", True, None, checked, comparisons)

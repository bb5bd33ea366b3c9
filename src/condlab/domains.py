"""Preference domains: membership, canonical enumeration, neighborhood structure.

A domain is a set of profiles for fixed ``n`` and ``m``. The kinds defined
here are the full domain, the domain of profiles with a majority winner
(optionally pinned to one alternative), its tie-breaking relaxation for even
electorates, explicit finite sets, and a base domain extended by extra
profiles. Enumeration is always in canonical order, by ``Profile.code``.
One member table per domain, shared by enumeration, ``contains`` and the
neighbour walks, records membership.
Every enumeration here (members, connectivity, the reach search) is bounded
by the one cap of :func:`enumeration_cap`; no function takes its own.

Two graph views matter for the theory. Weak connectedness links profiles
that differ in a single adjacent swap. Full connectedness additionally asks
that any two profiles agreeing on every voter's upper contour set of some
alternative ``x`` are linked by swaps that never touch ``x``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

# The cap lives in core, which also caps the relation table; it is re-exported here.
from .core import CapExceededError, capped_enumeration  # noqa: F401
from .core import (
    PreferenceRelation,
    Profile,
    TieBreaker,
    alternative_index,
    alternative_name,
    all_profiles,
    all_relations,
    condorcet_winner,
    enumeration_cap,
    full_profile_count,
    parse_profiles,
    profile_key,
    tiebroken_winner,
)


class OutOfDomainError(ValueError):
    """A profile outside the relevant domain was passed where a member is required."""


class Domain:
    kind = "abstract"

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise ValueError("need at least one voter and one alternative")
        self.n = n
        self.m = m
        self._members: Optional[tuple] = None
        # code -> member, or None outside the domain: the only membership record
        self._table: dict = {}

    # -- identity ---------------------------------------------------------

    def _key(self) -> tuple:
        return (self.kind, self.n, self.m)

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<Domain {self.describe()} n={self.n} m={self.m}>"

    # -- the member table ---------------------------------------------------
    #
    # Members are keyed by ``Profile.code``, their position in ``all_profiles``.
    # Enumeration, ``contains`` and the neighbour walks all go through
    # ``_member_at``, so each profile is decided and built at most once per
    # domain, and every walk yields the objects that ``members()`` returns.

    def _contains(self, profile: Profile) -> bool:
        raise NotImplementedError

    def _check_shape(self, profile: Profile) -> None:
        rels = profile.relations
        if len(rels) != self.n or len(rels[0].order) != self.m:
            raise ValueError(
                f"profile shape ({profile.n}, {profile.m}) does not match "
                f"domain shape ({self.n}, {self.m})"
            )

    def _code(self, profile: Profile) -> int:
        self._check_shape(profile)
        return profile.code

    def _member_at(self, code: int, profile: Optional[Profile] = None) -> Optional[Profile]:
        """The member with ``code``, or None outside the domain. On a miss,
        ``profile`` (built from the code when not given) is decided and recorded."""
        if code in self._table:
            return self._table[code]
        if profile is None:
            profile = Profile.from_code(code, self.n, self.m)
        member = self._table[code] = profile if self._contains(profile) else None
        return member

    def contains(self, profile: Profile) -> bool:
        return self._member_at(self._code(profile), profile) is not None

    def _member_code(self, profile: Profile, what: str) -> int:
        code = self._code(profile)
        if self._member_at(code, profile) is None:
            raise OutOfDomainError(f"{what} are only defined for domain members")
        return code

    def _candidates(self) -> Iterator[Tuple[int, Profile]]:
        """``(code, profile)`` in code order, covering every member."""
        return enumerate(all_profiles(self.n, self.m))

    def size_bound(self) -> int:
        """Upper bound on the work needed to enumerate this domain."""
        return full_profile_count(self.n, self.m)

    def members(self) -> tuple:
        """Every member in canonical order. The enumeration cap is checked on
        every call, so a table built under a larger cap is still refused."""
        cap = enumeration_cap()
        if self.size_bound() > cap:
            raise CapExceededError(
                f"enumerating {self.describe()} needs {self.size_bound()} profiles, "
                f"cap is {cap}"
            )
        if self._members is None:
            found = itertools.starmap(self._member_at, self._candidates())
            self._members = tuple(p for p in found if p is not None)
        return self._members

    # -- neighborhood structure -------------------------------------------

    def deviations(self, profile: Profile, coalition: Sequence[int]) -> Iterator[Profile]:
        """In-domain profiles where every coalition member reports a different
        relation and everyone else reports the same, in lexicographic product
        order of the members' new relations."""
        code = self._member_code(profile, "deviations")
        if len(set(coalition)) != len(coalition) or not all(0 <= v < self.n for v in coalition):
            raise ValueError(f"coalition must list distinct voters of 0..{self.n - 1}")
        radix = factorial(self.m)
        steps = []
        for voter in coalition:
            own = profile.relations[voter].index
            place = radix ** (self.n - 1 - voter)
            steps.append([(r - own) * place for r in range(radix) if r != own])
        table, member_at = self._table, self._member_at
        # one voter's shifts are its own steps: no 1-tuples to build and sum
        shifts = steps[0] if len(steps) == 1 else map(sum, itertools.product(*steps))
        for shift in shifts:
            key = code + shift
            candidate = table[key] if key in table else member_at(key)
            if candidate is not None:
                yield candidate

    def unilateral_deviations(self, profile: Profile, voter: int) -> Iterator[Profile]:
        """In-domain profiles obtained by replacing one voter's relation."""
        return self.deviations(profile, (voter,))

    def adjacent_swaps(
        self, profile: Profile, fixed: Optional[int] = None
    ) -> Iterator[Tuple[int, int, int, Profile]]:
        """In-domain profiles one adjacent swap away, optionally avoiding ``fixed``.

        Yields ``(voter, x, y, neighbor)`` where ``x`` sat directly above ``y``
        in the voter's order; voters ascend, then slots top-down.
        """
        code = self._member_code(profile, "neighbors")
        radix = factorial(self.m)
        for voter in range(self.n):
            rel = profile[voter]
            place = radix ** (self.n - 1 - voter)
            order = rel.order
            for slot in range(self.m - 1):
                x, y = order[slot], order[slot + 1]
                if fixed in (x, y):
                    continue
                shift = (rel.swapped(x, y).index - rel.index) * place
                candidate = self._member_at(code + shift)
                if candidate is not None:
                    yield voter, x, y, candidate


class FullDomain(Domain):
    kind = "full"

    def _contains(self, profile: Profile) -> bool:
        return True

    def contains(self, profile: Profile) -> bool:
        self._check_shape(profile)
        return True


class CondorcetDomain(Domain):
    """Profiles that have a majority winner."""

    kind = "condorcet"

    def majority_winner(self, profile: Profile) -> Optional[int]:
        """The majority winner of ``profile``, or None; decided without the member table."""
        return condorcet_winner(profile)

    def _contains(self, profile: Profile) -> bool:
        return self.majority_winner(profile) is not None


class CondorcetForDomain(Domain):
    """Profiles whose majority winner is one pinned alternative."""

    kind = "condorcet-for"

    def __init__(self, winner: int, n: int, m: int):
        super().__init__(n, m)
        if not 0 <= winner < m:
            raise ValueError("pinned winner out of range")
        self.winner = winner

    def _key(self) -> tuple:
        return (self.kind, self.winner, self.n, self.m)

    def describe(self) -> str:
        return f"condorcet-for:{alternative_name(self.winner)}"

    def _contains(self, profile: Profile) -> bool:
        return condorcet_winner(profile) == self.winner


class TieBreakingCondorcetDomain(CondorcetDomain):
    """Profiles with a majority winner once the tie-breaking order votes too."""

    kind = "tb-condorcet"

    def __init__(self, tiebreaker: TieBreaker, n: int, m: Optional[int] = None):
        super().__init__(n, tiebreaker.m if m is None else m)
        if tiebreaker.m != self.m:
            raise ValueError("tie-breaker ranks a different slate")
        self.tiebreaker = tiebreaker

    def _key(self) -> tuple:
        return (self.kind, self.tiebreaker, self.n, self.m)

    def describe(self) -> str:
        return f"tb-condorcet:{self.tiebreaker.to_text()}"

    def majority_winner(self, profile: Profile) -> Optional[int]:
        return tiebroken_winner(profile, self.tiebreaker)


class ExplicitDomain(Domain):
    kind = "explicit"

    def __init__(self, profiles: Iterable[Profile]):
        profiles = sorted(set(profiles), key=profile_key)
        if not profiles:
            raise ValueError("explicit domain needs at least one profile")
        super().__init__(profiles[0].n, profiles[0].m)
        for p in profiles:
            if p.n != self.n or p.m != self.m:
                raise ValueError("explicit domain mixes profile shapes")
        self.profiles = tuple(profiles)
        self._explicit_set = frozenset(profiles)

    def _key(self) -> tuple:
        return (self.kind, self.profiles)

    def describe(self) -> str:
        return f"explicit({len(self.profiles)})"

    def size_bound(self) -> int:
        return len(self.profiles)

    def _contains(self, profile: Profile) -> bool:
        return profile in self._explicit_set

    def _candidates(self) -> Iterator[Tuple[int, Profile]]:
        return ((self._code(p), p) for p in self.profiles)


class ExtendedDomain(Domain):
    """A base domain plus finitely many extra profiles outside it."""

    kind = "extended"

    def __init__(self, base: Domain, extras: Iterable[Profile]):
        extras = sorted(set(extras), key=profile_key)
        super().__init__(base.n, base.m)
        for extra in extras:
            if base.contains(extra):
                raise ValueError(
                    f"extra profile already belongs to the base domain:\n{extra.to_text()}"
                )
        self.base = base
        self.extras = tuple(extras)
        self._extra_set = frozenset(extras)

    def _key(self) -> tuple:
        return (self.kind, self.base._key(), self.extras)

    def describe(self) -> str:
        return f"{self.base.describe()}+extras({len(self.extras)})"

    def size_bound(self) -> int:
        return self.base.size_bound() + len(self.extras)

    def _contains(self, profile: Profile) -> bool:
        return profile in self._extra_set or self.base.contains(profile)

    def _candidates(self) -> Iterator[Tuple[int, Profile]]:
        extras = {self._code(p): p for p in self.extras}
        # a generic base lists the extras too: keep each code once
        rest = (pair for pair in self.base._candidates() if pair[0] not in extras)
        return heapq.merge(rest, extras.items(), key=itemgetter(0))


# -- connectivity -----------------------------------------------------------


def _bfs_cover(dom: Domain, start: Profile, fixed: Optional[int] = None) -> set:
    seen = {start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for *_, neighbor in dom.adjacent_swaps(current, fixed=fixed):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def is_weakly_connected(dom: Domain) -> bool:
    """True when the adjacent-swap graph on the domain has one component."""
    members = dom.members()
    if len(members) <= 1:
        return True
    return len(_bfs_cover(dom, members[0])) == len(members)


def _contour_signature(profile: Profile, x: int) -> tuple:
    return tuple(rel.upper_contour(x) for rel in profile.relations)


def is_connected(dom: Domain) -> bool:
    """Weak connectedness plus x-avoiding reachability within contour classes.

    For every alternative ``x``, profiles sharing all voters' upper contour
    sets of ``x`` must be mutually reachable through swaps that never move
    ``x``. Swaps avoiding ``x`` preserve the contour signature, so it is
    enough to examine each signature class separately.
    """
    if not is_weakly_connected(dom):
        return False
    members = dom.members()
    for x in range(dom.m):
        classes: dict = {}
        for profile in members:
            classes.setdefault(_contour_signature(profile, x), []).append(profile)
        for group in classes.values():
            if len(group) == 1:
                continue
            if len(_bfs_cover(dom, group[0], fixed=x)) < len(group):
                return False
    return True


# -- named profiles and searches --------------------------------------------


def majority_cycle_profile(n: int, m: int = 3) -> Profile:
    """The canonical majority-cycle profile for an odd electorate.

    Three voters report the rotations of ``a > b > c``; each remaining pair
    of voters adds one ``a > b > c`` and one ``c > b > a``, which cancels,
    so every alternative stays majority-beaten. Alternatives beyond the
    first three are appended in fixed order at the bottom.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the cycle profile needs an odd electorate of at least 3")
    if m < 3:
        raise ValueError("the cycle profile needs at least three alternatives")
    tail = tuple(range(3, m))
    rels = [
        PreferenceRelation((0, 1, 2) + tail),
        PreferenceRelation((1, 2, 0) + tail),
        PreferenceRelation((2, 0, 1) + tail),
    ]
    for voter in range(4, n + 1):
        if voter % 2 == 0:
            rels.append(PreferenceRelation((0, 1, 2) + tail))
        else:
            rels.append(PreferenceRelation((2, 1, 0) + tail))
    return Profile(rels)


def beyond_unilateral_reach(profile: Profile, base: Domain) -> bool:
    """True when neither ``profile`` nor any single-voter change of it is in ``base``."""
    return not any(
        base.contains(profile.replace(voter, rel))
        for voter in range(profile.n)
        for rel in all_relations(profile.m)
    )


def find_profiles_beyond_unilateral_reach(base: Domain) -> list:
    """Exhaustively search the full domain, in canonical order, for profiles at
    unilateral distance >= 2 from ``base``."""
    return [
        profile
        for profile in FullDomain(base.n, base.m).members()
        if beyond_unilateral_reach(profile, base)
    ]


# -- textual domain specifications ------------------------------------------


def parse_domain(text: str, n: int, m: int) -> Domain:
    """Parse a domain specification string.

    Grammar: ``full | condorcet | condorcet-for:<alt> | tb-condorcet:<order>``,
    optionally followed by ``+file:<path>`` naming a file of extra profiles.
    """
    text = text.strip()
    base_text, extras_path = text, None
    if "+file:" in text:
        base_text, extras_path = text.split("+file:", 1)
    base_text = base_text.strip()
    if base_text == "full":
        dom: Domain = FullDomain(n, m)
    elif base_text == "condorcet":
        dom = CondorcetDomain(n, m)
    elif base_text.startswith("condorcet-for:"):
        dom = CondorcetForDomain(alternative_index(base_text.split(":", 1)[1]), n, m)
    elif base_text.startswith("tb-condorcet:"):
        tb = PreferenceRelation.from_text(base_text.split(":", 1)[1])
        dom = TieBreakingCondorcetDomain(tb, n, m)
    else:
        raise ValueError(f"unknown domain specification {text!r}")
    if extras_path is not None:
        with open(extras_path.strip(), "r", encoding="utf-8") as handle:
            extras = parse_profiles(handle.read())
        dom = ExtendedDomain(dom, extras)
    return dom

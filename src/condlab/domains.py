"""Preference domains: membership, canonical enumeration, neighborhood structure.

A domain is a set of profiles for fixed ``n`` and ``m``. The kinds defined
here are the full domain, the domain of profiles with a majority winner
(optionally pinned to one alternative), its tie-breaking relaxation for even
electorates, explicit finite sets, and a base domain extended by extra
profiles. Enumeration is always in canonical order, by ``Profile.code``.
One member table per domain, shared by enumeration, ``contains`` and the
neighbour walks, records membership. An explicit domain seeds it with its
profiles; an extended domain records only its extras there and leaves every
other profile to its base, whose member objects it enumerates and walks.
A deviation walk reads its code shifts from one row per voter, indexed by
relation index and filled slot by slot as relations are met, so no ``m! x m!``
table of shifts is ever built. These rows are the domain's only neighbour
structure; a swap walk scales each relation's own swap table by a code place.
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
    condorcet_winner,
    enumeration_cap,
    full_profile_count,
    parse_profiles,
)


class OutOfDomainError(ValueError):
    """A profile outside the relevant domain was passed where a member is required."""


class ParityMismatchError(ValueError):
    """The electorate parity does not fit the requested domain kind."""


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
        # One shift row per voter, None until the voter's first walk: a list
        # indexed by relation index whose slot holds, once that relation is met,
        # the code shifts onto every other relation (see _shifts)
        self._shift_rows: list = [None] * n
        self._voters = frozenset(range(n))

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
    # An explicit domain's table is seeded and never grows; an extended domain's
    # holds its extras alone, and its base answers for the rest with its own objects.

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
        ``profile`` (built from the code when not given) is decided and recorded
        under its own ``code`` object, so a member adds no second integer."""
        if code in self._table:
            return self._table[code]
        if profile is None:
            profile = Profile.from_code(code, self.n, self.m)
        member = self._table[profile.code] = profile if self._contains(profile) else None
        return member

    def contains(self, profile: Profile) -> bool:
        # the object the table holds at its own code is a member of this shape
        if self._table.get(profile.code) is profile:
            return True
        return self._member_at(self._code(profile), profile) is not None

    def _member_code(self, profile: Profile, what: str) -> int:
        if not self.contains(profile):
            raise OutOfDomainError(f"{what} are only defined for domain members")
        return profile.code

    def _candidates(self) -> Iterator[Profile]:
        """Profiles in code order, covering every member."""
        return all_profiles(self.n, self.m)

    def size_bound(self) -> int:
        """Upper bound on the work needed to enumerate this domain."""
        return full_profile_count(self.n, self.m)

    def _check_cap(self) -> None:
        """Refuse to enumerate this domain when its size bound exceeds the cap."""
        cap = enumeration_cap()
        if self.size_bound() > cap:
            raise CapExceededError(
                f"enumerating {self.describe()} needs {self.size_bound()} profiles, "
                f"cap is {cap}"
            )

    def members(self) -> tuple:
        """Every member in canonical order. The enumeration cap is checked on
        every call, so a table built under a larger cap is still refused."""
        self._check_cap()
        if self._members is None:
            found = (self._member_at(p.code, p) for p in self._candidates())
            self._members = tuple(p for p in found if p is not None)
        return self._members

    # -- neighborhood structure -------------------------------------------

    def _shifts(self, voter: int, rel: PreferenceRelation) -> Tuple[int, ...]:
        """The code shifts moving ``voter`` off ``rel`` onto every other relation,
        in relation order, built on first use and kept in the voter's shift row."""
        row = self._shift_rows[voter]
        if row is None:
            row = self._shift_rows[voter] = [None] * factorial(self.m)
        own = rel.index
        shifts = row[own]
        if shifts is None:
            place = len(row) ** (self.n - 1 - voter)
            shifts = row[own] = tuple([(r - own) * place for r in range(len(row)) if r != own])
        return shifts

    def _walk(self, code: int, shifts: Iterable[int]) -> Iterator[Profile]:
        """The members at ``code`` plus each shift, in shift order."""
        table, member_at = self._table, self._member_at
        for shift in shifts:
            key = code + shift
            candidate = table[key] if key in table else member_at(key)
            if candidate is not None:
                yield candidate

    def deviations(self, profile: Profile, coalition: Sequence[int]) -> Iterator[Profile]:
        """In-domain profiles where every coalition member reports a different
        relation and everyone else reports the same, in lexicographic product
        order of the members' new relations."""
        code = self._member_code(profile, "deviations")
        voters = set(coalition)
        if len(voters) != len(coalition) or not voters <= self._voters:
            raise ValueError(f"coalition must list distinct voters of 0..{self.n - 1}")
        rels = profile.relations
        shifts = itertools.product(*[self._shifts(v, rels[v]) for v in coalition])
        return self._walk(code, map(sum, shifts))

    def unilateral_deviations(self, profile: Profile, voter: int) -> Iterator[Profile]:
        """In-domain profiles obtained by replacing one voter's relation."""
        code = profile.code
        # the object the table holds at its own code is a member of this shape
        if self._table.get(code) is not profile:
            code = self._member_code(profile, "deviations")
        if not 0 <= voter < self.n:
            raise ValueError(f"voter must be one of 0..{self.n - 1}")
        rel = profile.relations[voter]
        row = self._shift_rows[voter]  # read the filled slot here; _shifts fills an empty one
        return self._walk(code, row and row[rel.index] or self._shifts(voter, rel))

    def adjacent_swaps(
        self, profile: Profile, fixed: Optional[int] = None
    ) -> Iterator[Tuple[int, int, int, Profile]]:
        """In-domain profiles one adjacent swap away, optionally avoiding ``fixed``.

        Yields ``(voter, x, y, neighbor)`` where ``x`` sat directly above ``y``
        in the voter's order; voters ascend, then slots top-down.
        """
        code = self._member_code(profile, "neighbors")
        table, member_at, radix = self._table, self._member_at, factorial(self.m)
        for voter, rel in enumerate(profile.relations):
            place, own = radix ** (self.n - 1 - voter), rel.index
            for x, y, index in rel.swap_table():
                if fixed in (x, y):
                    continue
                key = code + (index - own) * place
                candidate = table[key] if key in table else member_at(key)
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

    def __init__(self, tiebreaker: TieBreaker, n: int):
        super().__init__(n, tiebreaker.m)
        self.tiebreaker = tiebreaker

    def _key(self) -> tuple:
        return (self.kind, self.tiebreaker, self.n)

    def describe(self) -> str:
        return f"tb-condorcet:{self.tiebreaker.to_text()}"

    def majority_winner(self, profile: Profile) -> Optional[int]:
        return condorcet_winner(profile, self.tiebreaker)


class ExplicitDomain(Domain):
    kind = "explicit"

    def __init__(self, profiles: Iterable[Profile]):
        profiles = sorted(set(profiles), key=lambda p: p.code)
        if not profiles:
            raise ValueError("explicit domain needs at least one profile")
        super().__init__(profiles[0].n, profiles[0].m)
        for p in profiles:
            if p.n != self.n or p.m != self.m:
                raise ValueError("explicit domain mixes profile shapes")
        self.profiles = self._members = tuple(profiles)
        self._table.update((p.code, p) for p in profiles)

    def _key(self) -> tuple:
        return (self.kind, self.profiles)

    def describe(self) -> str:
        return f"explicit({len(self.profiles)})"

    def size_bound(self) -> int:
        return len(self.profiles)

    def _member_at(self, code: int, profile: Optional[Profile] = None) -> Optional[Profile]:
        return self._table.get(code)  # seeded with every member; nothing else is recorded


class ExtendedDomain(Domain):
    """A base domain plus finitely many extra profiles outside it."""

    kind = "extended"

    def __init__(self, base: Domain, extras: Iterable[Profile]):
        extras = sorted(set(extras), key=lambda p: p.code)
        super().__init__(base.n, base.m)
        for extra in extras:
            if base.contains(extra):
                raise ValueError(
                    f"extra profile already belongs to the base domain:\n{extra.to_text()}"
                )
        self.base = base
        self.extras = tuple(extras)
        self._table.update((p.code, p) for p in extras)

    def _key(self) -> tuple:
        return (self.kind, self.base._key(), self.extras)

    def describe(self) -> str:
        return f"{self.base.describe()}+extras({len(self.extras)})"

    def size_bound(self) -> int:
        return self.base.size_bound() + len(self.extras)

    def _member_at(self, code: int, profile: Optional[Profile] = None) -> Optional[Profile]:
        return self._table[code] if code in self._table else self.base._member_at(code, profile)

    def _candidates(self) -> Iterator[Profile]:
        # the base's own member objects: the base decides each profile once
        return heapq.merge(self.base.members(), self.extras, key=lambda p: p.code)


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
    """True when neither ``profile`` nor any single-voter change of it is in ``base``.

    The changes are read by code from ``base``'s shift table and decided
    by the deviation walk, every voter's shifts in one."""
    code = base._code(profile)
    if base._member_at(code, profile) is not None:
        return False
    shifts = itertools.chain.from_iterable(
        base._shifts(voter, rel) for voter, rel in enumerate(profile.relations)
    )
    return next(base._walk(code, shifts), None) is None


def find_profiles_beyond_unilateral_reach(base: Domain) -> list:
    """Exhaustively search the full domain, in canonical order, for profiles at
    unilateral distance >= 2 from ``base``. Only ``base``'s table records the
    profiles; the full domain is consulted for its cap check alone."""
    FullDomain(base.n, base.m)._check_cap()
    return [p for p in all_profiles(base.n, base.m) if beyond_unilateral_reach(p, base)]


# -- textual domain specifications ------------------------------------------


def parse_tiebreaker(text: str, m: int) -> TieBreaker:
    """A tie-breaking order read from text; it must rank the ``m`` alternatives
    of the slate it breaks ties on."""
    tiebreaker = PreferenceRelation.from_text(text)
    if tiebreaker.m != m:
        raise ValueError("tie-breaker ranks a different slate")
    return tiebreaker


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
        dom = TieBreakingCondorcetDomain(parse_tiebreaker(base_text.split(":", 1)[1], m), n)
    else:
        raise ValueError(f"unknown domain specification {text!r}")
    if extras_path is not None:
        with open(extras_path.strip(), "r", encoding="utf-8") as handle:
            extras = parse_profiles(handle.read())
        dom = ExtendedDomain(dom, extras)
    return dom

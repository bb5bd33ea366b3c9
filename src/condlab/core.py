"""Exact primitives for ordinal elections.

Alternatives are dense integer indices ``0..m-1`` shown to users as letters
(0 = ``a``, 1 = ``b``, ...). Preference relations are strict total orders,
profiles are fixed-length voter tuples of relations. Everything here is
immutable and hashable so values can be cached, interned and used as
dictionary keys; all arithmetic on top of these types stays in exact
rationals elsewhere in the package.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional, Sequence, Tuple

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

DEFAULT_ENUM_CAP = 10**6


class CapExceededError(RuntimeError):
    """An enumeration or graph computation would exceed its configured cap."""


_cap_override: ContextVar[Optional[int]] = ContextVar("enumeration_cap", default=None)


def enumeration_cap() -> int:
    """Active enumeration cap: a :func:`capped_enumeration` override, then the
    CONDLAB_MAX_PROFILES env var, then the default."""
    override = _cap_override.get()
    if override is not None:
        return override
    raw = os.environ.get("CONDLAB_MAX_PROFILES")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"CONDLAB_MAX_PROFILES must be an integer, got {raw!r}") from None
    return DEFAULT_ENUM_CAP


@contextmanager
def capped_enumeration(cap: Optional[int]) -> Iterator[None]:
    """Make ``cap`` the enumeration cap inside the block; ``None`` changes nothing."""
    token = _cap_override.set(cap)
    try:
        yield
    finally:
        _cap_override.reset(token)


class InvalidSwapError(ValueError):
    """Requested swap is not an adjacent, correctly oriented pair."""


class ProfileParseError(ValueError):
    """Malformed preference or profile text."""


def alternative_name(x: int) -> str:
    """Presentation letter for alternative index ``x``."""
    if 0 <= x < len(_LETTERS):
        return _LETTERS[x]
    return f"x{x}"


def alternative_index(name: str) -> int:
    """Inverse of :func:`alternative_name`."""
    token = name.strip().lower()
    if len(token) == 1 and token in _LETTERS:
        return _LETTERS.index(token)
    if token.startswith("x") and token[1:].isdigit():
        return int(token[1:])
    raise ProfileParseError(f"unknown alternative {name!r}")


def parse_rational(text) -> Fraction:
    """``Fraction(text)``, with a zero denominator a ValueError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


class PreferenceRelation:
    """A strict total order over ``{0, ..., m-1}``, most preferred first.

    ``index`` is the relation's position in :func:`all_relations`: its Lehmer
    code, each slot's digit counting the smaller alternatives not yet placed."""

    __slots__ = ("order", "index", "_pos", "_hash")

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        m = len(order)
        if sorted(order) != list(range(m)):
            raise ValueError(f"not a permutation of 0..{m - 1}: {order!r}")
        pos = [0] * m
        index = seen = 0
        for slot, x in enumerate(order):
            pos[x] = slot
            index = index * (m - slot) + x - (seen & ((1 << x) - 1)).bit_count()
            seen |= 1 << x
        self.order = order
        self.index = index
        self._pos = tuple(pos)
        self._hash = hash(order)

    @property
    def m(self) -> int:
        return len(self.order)

    def top(self) -> int:
        return self.order[0]

    def rank(self, x: int) -> int:
        """1-based rank of ``x`` (1 = most preferred)."""
        return self._pos[x] + 1

    def prefers(self, x: int, y: int) -> bool:
        return self._pos[x] < self._pos[y]

    def upper_contour(self, x: int) -> frozenset:
        """Alternatives weakly preferred to ``x`` (always contains ``x``)."""
        return frozenset(self.order[: self._pos[x] + 1])

    def swapped(self, x: int, y: int) -> "PreferenceRelation":
        """Relation with adjacent pair ``x`` directly above ``y`` exchanged."""
        px, py = self._pos[x], self._pos[y]
        if py != px + 1:
            raise InvalidSwapError(
                f"{alternative_name(x)},{alternative_name(y)} is not an adjacent "
                f"x-above-y pair in {self.to_text()}"
            )
        new = list(self.order)
        new[px], new[py] = new[py], new[px]
        return PreferenceRelation(new)

    def to_text(self) -> str:
        return ">".join(alternative_name(x) for x in self.order)

    @classmethod
    def from_text(cls, text: str) -> "PreferenceRelation":
        parts = [p for p in text.strip().split(">") if p.strip()]
        if len(parts) < 1:
            raise ProfileParseError(f"empty preference line: {text!r}")
        return cls(tuple(alternative_index(p) for p in parts))

    def __eq__(self, other) -> bool:
        return isinstance(other, PreferenceRelation) and self.order == other.order

    def __lt__(self, other) -> bool:
        return self.order < other.order

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PreferenceRelation({self.to_text()})"


# A tie-breaking order is just one more strict total order over the slate.
TieBreaker = PreferenceRelation


@lru_cache(maxsize=None)
def all_relations(m: int) -> tuple:
    """Every preference relation on ``m`` alternatives, lexicographically ordered.

    The table is built once per ``m``, and only when its ``m!`` entries fit
    the enumeration cap."""
    cap = enumeration_cap()
    if factorial(m) > cap:
        raise CapExceededError(
            f"enumerating relations on {m} alternatives needs {factorial(m)} relations, cap is {cap}"
        )
    return tuple(PreferenceRelation(p) for p in itertools.permutations(range(m)))


class Profile:
    """An ordered tuple of voter preference relations over one slate.

    ``code`` is the profile's position in :func:`all_profiles`: the voters'
    relation indices as digits in base m!, the first voter most significant."""

    __slots__ = ("relations", "code", "_hash")

    def __init__(self, relations: Sequence[PreferenceRelation]):
        relations = tuple(relations)
        if not relations:
            raise ValueError("a profile needs at least one voter")
        m = relations[0].m
        radix = factorial(m)
        code = 0
        for rel in relations:
            if rel.m != m:
                raise ValueError("voters rank different numbers of alternatives")
            code = code * radix + rel.index
        self.relations = relations
        self.code = code
        self._hash = hash(relations)

    @classmethod
    def from_code(cls, code: int, n: int, m: int) -> "Profile":
        """The profile of ``n`` voters over ``m`` alternatives with ``code``."""
        rels = all_relations(m)
        radix = len(rels)
        if not 0 <= code < radix ** n:
            raise ValueError(f"profile code {code} is outside 0..{radix ** n - 1} for n={n}, m={m}")
        return cls([rels[code // radix ** (n - 1 - v) % radix] for v in range(n)])

    @property
    def n(self) -> int:
        return len(self.relations)

    @property
    def m(self) -> int:
        return self.relations[0].m

    def __getitem__(self, voter: int) -> PreferenceRelation:
        return self.relations[voter]

    def __iter__(self):
        return iter(self.relations)

    def replace(self, voter: int, rel: PreferenceRelation) -> "Profile":
        if rel.m != self.m:
            raise ValueError("replacement ranks a different slate")
        rels = list(self.relations)
        rels[voter] = rel
        return Profile(rels)

    def to_text(self) -> str:
        return "\n".join(rel.to_text() for rel in self.relations)

    @classmethod
    def from_text(cls, text: str) -> "Profile":
        rels = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            rels.append(PreferenceRelation.from_text(line))
        if not rels:
            raise ProfileParseError("no preference lines found")
        return cls(rels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Profile) and self.relations == other.relations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Profile(" + "; ".join(rel.to_text() for rel in self.relations) + ")"


def parse_profiles(text: str) -> list:
    """Parse a file of profiles: blocks of preference lines separated by blank lines."""
    blocks: list = []
    current: list = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            if current:
                blocks.append(Profile(current))
                current = []
            continue
        current.append(PreferenceRelation.from_text(stripped))
    if current:
        blocks.append(Profile(current))
    if not blocks:
        raise ProfileParseError("no profiles found")
    return blocks


def all_profiles(n: int, m: int) -> Iterator[Profile]:
    """All profiles for ``n`` voters over ``m`` alternatives, canonically ordered."""
    for combo in itertools.product(all_relations(m), repeat=n):
        yield Profile(combo)


def full_profile_count(n: int, m: int) -> int:
    return factorial(m) ** n


def majority_margin(profile: Profile, x: int, y: int) -> int:
    """Voters preferring x to y minus voters preferring y to x."""
    if x == y:
        raise ValueError("margin needs two distinct alternatives")
    if not (0 <= x < profile.m and 0 <= y < profile.m):
        raise ValueError("alternative out of range")
    margin = 0
    for rel in profile.relations:
        margin += 1 if rel.prefers(x, y) else -1
    return margin


@lru_cache(maxsize=1 << 12)  # one entry per relation order and field width: all up to m = 6
def _packed(order: Tuple[int, ...], width: int) -> int:
    """``order``'s pairwise preferences in one integer: field ``x * m + y``,
    ``width`` bits wide, holds 1 when ``order`` ranks ``x`` above ``y``."""
    m = len(order)
    return sum(1 << width * (x * m + y) for i, x in enumerate(order) for y in order[i + 1:])


# Keyed by value: at m = 3 a tally has three free counts, so scans repeat a few hundred.
@lru_cache(maxsize=1 << 14)
def _tally_winner(tally: int, n: int, m: int) -> Optional[int]:
    """The majority winner among ``n`` voters whose tally, in fields
    ``n.bit_length()`` bits wide, is ``tally``."""
    width, half = n.bit_length(), n // 2
    mask = (1 << width) - 1
    for x in range(m):
        row = tally >> (width * x * m)
        # x beats y by strict majority when more than half the voters say so
        if all((row >> (width * y)) & mask > half for y in range(m) if y != x):
            return x
    return None


def _majority_winner(relations: Tuple[PreferenceRelation, ...]) -> Optional[int]:
    n = len(relations)
    # n.bit_length() bits count up to n voters, so no field carries into the next
    tally = sum([_packed(rel.order, n.bit_length()) for rel in relations])
    return _tally_winner(tally, n, len(relations[0].order))


# Bounded: scans read membership from the domain's table and lotteries from the
# scheme's evaluation cache, so this cache and the next only spare nearby repeats.
@lru_cache(maxsize=1 << 14)
def condorcet_winner(profile: Profile, tiebreaker: Optional[TieBreaker] = None) -> Optional[int]:
    """The alternative beating every other by strict majority, if one exists;
    with ``tiebreaker``, after that order votes as one extra voter."""
    if tiebreaker is None:
        return _majority_winner(profile.relations)
    if tiebreaker.m != profile.m:
        raise ValueError("tie-breaker ranks a different slate")
    return _majority_winner(profile.relations + (tiebreaker,))


def augment(profile: Profile, tiebreaker: TieBreaker) -> Profile:
    """Profile extended by the tie-breaking order as one extra voter."""
    if tiebreaker.m != profile.m:
        raise ValueError("tie-breaker ranks a different slate")
    return Profile(profile.relations + (tiebreaker,))


def swap(profile: Profile, voter: int, x: int, y: int) -> Profile:
    """Exchange the adjacent pair ``x`` directly above ``y`` in one voter's order."""
    return profile.replace(voter, profile[voter].swapped(x, y))


def pareto_dominates(profile: Profile, x: int, y: int) -> bool:
    """True when every voter strictly prefers x to y."""
    if x == y:
        raise ValueError("Pareto comparison needs two distinct alternatives")
    return all(rel.prefers(x, y) for rel in profile.relations)

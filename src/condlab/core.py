"""Exact primitives for ordinal elections.

Alternatives are dense integer indices ``0..m-1`` shown to users as letters
(0 = ``a``, 1 = ``b``, ...). Preference relations are strict total orders,
profiles are fixed-length voter tuples of relations. Everything here is
immutable and hashable so values can be cached, interned and used as
dictionary keys; a relation hashes by its ``index`` and a profile by its
``code``. Each relation keeps its pairwise row and its swap table, both
built on first use; a profile keeps its majority winner, read on first use
from the sum of its voters' rows, and finds its adjacent-swap neighbours in
their swap tables. All arithmetic on top of these types stays in exact
rationals elsewhere.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional, Sequence

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

DEFAULT_ENUM_CAP = 10**6


class CapExceededError(RuntimeError):
    """An enumeration or graph computation would exceed its configured cap."""


_cap_override: ContextVar[Optional[int]] = ContextVar("enumeration_cap", default=None)


def enumeration_cap() -> int:
    """Active enumeration cap: a :func:`capped_enumeration` override, else the default."""
    override = _cap_override.get()
    return DEFAULT_ENUM_CAP if override is None else override


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

    __slots__ = ("order", "index", "_pos", "_row", "_swaps")

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
        self._row = None  # built by pairwise_row on first use
        self._swaps = None  # built by swap_table on first use

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

    def pairwise_row(self) -> int:
        """The relation's pairwise preferences in one integer, built on first use:
        field ``x * m + y``, ``_FIELD_WIDTH`` bits wide, holds 1 when ``x`` is
        ranked above ``y``, so a sum of rows counts the relations that do."""
        if self._row is None:
            order, m = self.order, len(self.order)
            self._row = sum(
                1 << _FIELD_WIDTH * (x * m + y) for i, x in enumerate(order) for y in order[i + 1:]
            )
        return self._row

    def swap_table(self) -> tuple:
        """One ``(x, y, index)`` per slot top-down, built on first use: ``x`` sits
        directly above ``y``, and ``index`` is the relation with the two exchanged."""
        if self._swaps is None:
            order = self.order
            self._swaps = tuple((x, y, self.swapped(x, y).index) for x, y in zip(order, order[1:]))
        return self._swaps

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

    def __hash__(self) -> int:
        return self.index

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


def _encode(digits: list, radix: int) -> int:
    """The integer whose base-``radix`` digits are ``digits``, most significant
    first. Long lists are coded as two halves joined by one product, so the
    cost stays subquadratic in ``len(digits)``."""
    if len(digits) <= 32:
        code = 0
        for digit in digits:
            code = code * radix + digit
        return code
    low = len(digits) // 2
    return _encode(digits[:-low], radix) * radix ** low + _encode(digits[-low:], radix)


def _decode(code: int, n: int, radix: int) -> list:
    """The ``n`` base-``radix`` digits of ``code``, most significant first: the
    inverse of :func:`_encode`, splitting on the same powers of the radix."""
    if n <= 32:
        digits = [0] * n
        for slot in range(n - 1, -1, -1):
            code, digits[slot] = divmod(code, radix)
        return digits
    low = n // 2
    high, code = divmod(code, radix ** low)
    return _decode(high, n - low, radix) + _decode(code, low, radix)


# A profile's ``_winner`` until :func:`condorcet_winner` decides it.
_UNDECIDED = -1


class Profile:
    """An ordered tuple of voter preference relations over one slate.

    ``code`` is the profile's position in :func:`all_profiles`: the voters'
    relation indices as digits in base m!, the first voter most significant.
    ``_winner`` is its majority winner, once :func:`condorcet_winner` decides it."""

    __slots__ = ("relations", "code", "_winner")

    def __init__(self, relations: Sequence[PreferenceRelation]):
        relations = tuple(relations)
        if not relations:
            raise ValueError("a profile needs at least one voter")
        m = len(relations[0].order)
        digits = [rel.index for rel in relations if len(rel.order) == m]
        if len(digits) != len(relations):
            raise ValueError("voters rank different numbers of alternatives")
        self.relations = relations
        self.code = _encode(digits, factorial(m))
        self._winner = _UNDECIDED

    @classmethod
    def from_code(cls, code: int, n: int, m: int) -> "Profile":
        """The profile of ``n`` voters over ``m`` alternatives with ``code``."""
        rels = all_relations(m)
        radix = len(rels)
        if not 0 <= code < radix ** n:
            raise ValueError(f"profile code {code} is outside 0..{radix ** n - 1} for n={n}, m={m}")
        profile = cls.__new__(cls)
        profile.relations = tuple([rels[digit] for digit in _decode(code, n, radix)])
        profile.code, profile._winner = code, _UNDECIDED
        return profile

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
        return self.code

    def __repr__(self) -> str:
        return "Profile(" + "; ".join(rel.to_text() for rel in self.relations) + ")"


def parse_profiles(text: str) -> list:
    """Parse a file of profiles: blocks of preference lines separated by blank
    lines (a comment-only line is blank), each read by :meth:`Profile.from_text`."""
    blocks = [
        Profile.from_text("\n".join(lines))
        for filled, lines in itertools.groupby(
            text.splitlines(), key=lambda line: bool(line.split("#", 1)[0].strip())
        )
        if filled
    ]
    if not blocks:
        raise ProfileParseError("no profiles found")
    return blocks


def all_profiles(n: int, m: int) -> Iterator[Profile]:
    """All profiles for ``n`` voters over ``m`` alternatives, canonically ordered.

    Each profile's ``code`` is its enumeration index, so none is recomputed."""
    new = Profile.__new__
    for code, combo in enumerate(itertools.product(all_relations(m), repeat=n)):
        profile = new(Profile)
        profile.relations, profile.code, profile._winner = combo, code, _UNDECIDED
        yield profile


def full_profile_count(n: int, m: int) -> int:
    return factorial(m) ** n


# Bits per count field of a pairwise row: a tally counts up to 2**32 - 1 voters
# (the tie-breaking order included) without carrying into the next field.
_FIELD_WIDTH = 32


# Keyed by value: at m = 3 a tally has three free counts, so scans repeat a few hundred.
@lru_cache(maxsize=1 << 14)
def _tally_winner(tally: int, n: int, m: int) -> Optional[int]:
    """The majority winner among ``n`` voters whose rows sum to ``tally``."""
    if n >> _FIELD_WIDTH:
        raise ValueError(f"a pairwise tally counts fewer than 2**{_FIELD_WIDTH} voters, got {n}")
    half, mask = n // 2, (1 << _FIELD_WIDTH) - 1
    for x in range(m):
        row = tally >> (_FIELD_WIDTH * x * m)
        # x beats y by strict majority when more than half the voters say so
        if all((row >> (_FIELD_WIDTH * y)) & mask > half for y in range(m) if y != x):
            return x
    return None


# Stores nothing, since each profile keeps its own winner; the wrapper stays
# for the call counter that ``cache_info()`` reports to the tracer.
@lru_cache(maxsize=0)
def condorcet_winner(profile: Profile, tiebreaker: Optional[TieBreaker] = None) -> Optional[int]:
    """The alternative beating every other by strict majority, if one exists;
    with ``tiebreaker``, after that order votes as one extra voter."""
    if tiebreaker is None and profile._winner != _UNDECIDED:
        return profile._winner
    rels = profile.relations
    # a kept row is read directly; a one-alternative row is 0 and rebuilt for nothing
    tally = sum([rel._row or rel.pairwise_row() for rel in rels])
    if tiebreaker is None:
        profile._winner = _tally_winner(tally, len(rels), len(rels[0].order))
        return profile._winner
    if tiebreaker.m != profile.m:
        raise ValueError("tie-breaker ranks a different slate")
    return _tally_winner(tally + tiebreaker.pairwise_row(), len(rels) + 1, profile.m)


def swap(profile: Profile, voter: int, x: int, y: int) -> Profile:
    """Exchange the adjacent pair ``x`` directly above ``y`` in one voter's order."""
    return profile.replace(voter, profile[voter].swapped(x, y))


def pareto_dominates(profile: Profile, x: int, y: int) -> bool:
    """True when every voter strictly prefers x to y."""
    if x == y:
        raise ValueError("Pareto comparison needs two distinct alternatives")
    return all(rel.prefers(x, y) for rel in profile.relations)

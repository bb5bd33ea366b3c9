"""Exact lotteries over alternatives and stochastic-dominance comparison.

A lottery is stored as integer numerators over one common denominator (the
least common multiple of its reduced denominators), so equal lotteries have
equal integer forms however they were built. Equality, hashing, cumulative
sums and stochastic-dominance comparison all run on those integers, and a
lottery keeps no other form: ``probs`` and ``__getitem__`` build
:class:`fractions.Fraction` values on demand for the reports and witnesses.
There are no floats and no tolerances anywhere. A
lottery ``p`` stochastically dominates ``q`` under a preference order when
``p`` puts at least as much mass on every upper contour set (every prefix
of the order) as ``q`` does.

:func:`sd_compare` answers a comparison with the cut where ``p`` loses, or
None when ``p`` weakly dominates ``q``; the reverse cut is the same call
with the lotteries swapped. Each distinct comparison is decided once: the
cut comes from a bounded cache keyed by the order and the two integer
forms, which are plain tuples, so a lookup hashes in C and two equal
lotteries share an entry however they were built. Every
stochastic-dominance decision and row walks the cuts through
:func:`sd_margins`, the one kernel: the comparison here, and the
dictatorial-weight bound and the extension model's rows in ``analysis``.
:func:`failing_cut` reads the losing cut off the margins for the first two.
Likewise every weighted sum of lotteries is :func:`combine` on integer forms:
``affine_combine``, the mixtures of ``sds`` and ``analysis.verify_mixture``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import PreferenceRelation, alternative_index, alternative_name, parse_rational


class NegativeProbabilityError(ValueError):
    """A signed combination produced a negative probability somewhere."""

    def __init__(self, alternative: int, value: Fraction):
        super().__init__(
            f"negative probability {value} on alternative {alternative_name(alternative)}"
        )
        self.alternative = alternative
        self.value = value


class Lottery:
    """A probability distribution over ``m`` alternatives with rational weights.

    ``numerators[x] / denominator`` is the probability of alternative ``x``;
    ``denominator`` is the smallest that works.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, probs: Sequence[Fraction]):
        self._set(*integer_form([Fraction(p) for p in probs]))

    @classmethod
    def from_integers(cls, numerators: Sequence[int], denominator: int) -> "Lottery":
        """The lottery ``numerators[x] / denominator``, checked like the constructor."""
        lot = cls.__new__(cls)
        lot._set(numerators, denominator)
        return lot

    def _set(self, numerators: Sequence[int], denominator: int) -> None:
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        for x, a in enumerate(numerators):
            if a < 0:
                raise NegativeProbabilityError(x, Fraction(a, denominator))
        total = sum(numerators)
        if total != denominator:
            raise ValueError(f"probabilities sum to {Fraction(total, denominator)}, not 1")
        g = gcd(denominator, *numerators)
        self.numerators = tuple(a // g for a in numerators)
        self.denominator = denominator // g

    @classmethod
    @lru_cache(maxsize=1 << 10)  # interned: the same object for every call with (x, m)
    def point(cls, x: int, m: int) -> "Lottery":
        return cls.from_integers([int(y == x) for y in range(m)], 1)

    @classmethod
    def uniform(cls, m: int) -> "Lottery":
        return cls.from_integers([1] * m, m)

    @classmethod
    def uniform_over(cls, xs: Iterable[int], m: int) -> "Lottery":
        xs = set(xs)
        if not xs:
            raise ValueError("uniform lottery over empty set")
        return cls.from_integers([int(y in xs) for y in range(m)], len(xs))

    @classmethod
    def from_map(cls, mapping: Mapping[int, Fraction], m: int) -> "Lottery":
        return cls(tuple(Fraction(mapping.get(x, 0)) for x in range(m)))

    @property
    def probs(self) -> Tuple[Fraction, ...]:
        """The probabilities as :class:`~fractions.Fraction` values."""
        den = self.denominator
        return tuple(Fraction(a, den) for a in self.numerators)

    @property
    def m(self) -> int:
        return len(self.numerators)

    def __getitem__(self, x: int) -> Fraction:
        return Fraction(self.numerators[x], self.denominator)

    def mass(self, xs: Iterable[int]) -> Fraction:
        return Fraction(sum(self.numerators[x] for x in xs), self.denominator)

    def support(self) -> tuple:
        return tuple(x for x, a in enumerate(self.numerators) if a)

    def is_point(self) -> Optional[int]:
        """The single supported alternative, or None."""
        support = self.support()
        return support[0] if len(support) == 1 else None

    def to_json_dict(self) -> dict:
        return {
            alternative_name(x): str(p)
            for x, p in enumerate(self.probs)
            if p != 0
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str], m: int) -> "Lottery":
        """Inverse of :meth:`to_json_dict`; each key names a distinct alternative of
        the slate, and each value is a rational written as a string."""
        probs: dict = {}
        for key, value in data.items():
            if not isinstance(value, str):
                raise ValueError(f"probability of {key!r} must be a string, got {value!r}")
            x = alternative_index(key)
            if x >= m:
                raise ValueError(f"alternative {key!r} is outside the slate of {m}")
            if x in probs:
                raise ValueError(f"alternative {key!r} is named twice")
            probs[x] = parse_rational(value)
        return cls.from_map(probs, m)

    def __eq__(self, other) -> bool:
        # the numerators sum to the denominator, so they fix it
        return isinstance(other, Lottery) and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash(self.numerators)

    def __repr__(self) -> str:
        inner = ", ".join(f"{alternative_name(x)}: {p}" for x, p in enumerate(self.probs) if p)
        return f"Lottery({inner})"


@lru_cache(maxsize=1 << 14)
def _cumulative(order: Tuple[int, ...], numerators: Tuple[int, ...]) -> Tuple[int, ...]:
    """Sums of ``numerators`` over each prefix of ``order`` (a relation's order
    and a lottery's numerators: plain tuples, so lookups hash in C)."""
    return tuple(accumulate(numerators[x] for x in order))


def sd_compare(pref: PreferenceRelation, p: Lottery, q: Lottery) -> Optional[int]:
    """The cut where ``p`` loses to ``q`` under ``pref``: the first alternative,
    top-down, whose upper contour set carries less ``p``-mass than ``q``-mass,
    or None when ``p`` weakly stochastically dominates ``q``.

    Decided once per distinct value of the order and the two integer forms.
    The reverse cut is ``sd_compare(pref, q, p)``: ``p`` and ``q`` are
    equivalent when both are None, and incomparable when neither is.
    """
    return _sd_verdict(pref.order, p.numerators, q.numerators)


def sd_margins(
    order: Tuple[int, ...], p: Tuple[int, ...], q: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], int]:
    """``p(U) - q(U)`` at each proper upper contour set ``U`` of ``order``,
    top-down, and their common denominator.

    ``p`` and ``q`` are integer forms (a lottery's ``numerators``); the
    margins count in units of the product of the two denominators. The whole
    slate carries mass 1 on both sides, so it has no margin. This is the one
    stochastic-dominance kernel: it decides :func:`sd_compare` and the
    dictatorial-weight bound, and gives the extension rows their right-hand
    sides.
    """
    if not (len(order) == len(p) == len(q)):
        raise ValueError("mismatched alternative counts")
    cp = _cumulative(order, p)
    cq = _cumulative(order, q)
    p_den, q_den = cp[-1], cq[-1]
    return tuple([a * q_den - b * p_den for a, b in zip(cp[:-1], cq[:-1])]), p_den * q_den


def failing_cut(order: Tuple[int, ...], margins: Sequence[int]) -> Optional[int]:
    """The first cut of ``order``, top-down, whose :func:`sd_margins` margin
    is negative: where the first lottery loses. None when there is none."""
    return next((x for x, d in zip(order, margins) if d < 0), None)


# Bounded: a scan over a strategyproof scheme meets few distinct values (the
# n=5 benchmark domain 4,170 of 169,560), and an all-distinct scan only
# evicts. An exception is never cached, so a bad call raises every time.
@lru_cache(maxsize=1 << 14)
def _sd_verdict(
    order: Tuple[int, ...], p: Tuple[int, ...], q: Tuple[int, ...]
) -> Optional[int]:
    return failing_cut(order, sd_margins(order, p, q)[0])


def integer_form(values: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """The values' numerators over their least common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def combine(weights: Sequence[int], parts: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """The one weighted sum of lotteries: ``sum(w * part) / sum(weights)`` as
    raw numerators over one denominator, unreduced and possibly negative. The
    integer weights have a positive sum; each part is an integer form (a
    lottery's ``numerators``, whose sum is its denominator)."""
    dens = [sum(part) for part in parts]
    den = lcm(*dens)
    acc = [0] * len(parts[0])
    for w, part, d in zip(weights, parts, dens):
        scale = w * (den // d)
        for x, a in enumerate(part):
            acc[x] += scale * a
    return acc, den * sum(weights)


def mix(parts: Sequence[Tuple[Fraction, Lottery]]) -> Lottery:
    """Convex combination of lotteries; weights must be nonnegative and sum to 1."""
    for w, _ in parts:
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} in a convex mixture")
    return affine_combine(parts)


def affine_combine(parts: Sequence[Tuple[Fraction, Lottery]]) -> Lottery:
    """Affine combination with weights summing to 1; weights may be negative.

    Raises :class:`NegativeProbabilityError` when some alternative ends up
    below zero, which is exactly the well-definedness question for signed
    mixtures of decision schemes.
    """
    if not parts:
        raise ValueError("nothing to combine")
    weights, den = integer_form([Fraction(w) for w, _ in parts])
    if sum(weights) != den:
        raise ValueError(f"weights sum to {Fraction(sum(weights), den)}, not 1")
    lots = [lot.numerators for _, lot in parts]
    if any(len(nums) != len(lots[0]) for nums in lots):
        raise ValueError("mismatched alternative counts")
    return Lottery.from_integers(*combine(weights, lots))

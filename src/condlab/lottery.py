"""Exact lotteries over alternatives and stochastic-dominance comparison.

A lottery is stored as integer numerators over one common denominator (the
least common multiple of its reduced denominators), so equal lotteries have
equal integer forms however they were built. Equality, hashing, cumulative
sums and stochastic-dominance comparison all run on those integers;
:class:`fractions.Fraction` values come from ``probs`` and ``__getitem__``,
which the reports, witnesses and the per-alternative checks in ``axioms``
and ``analysis`` read. There are no floats and no tolerances anywhere. A
lottery ``p`` stochastically dominates ``q`` under a preference order when
``p`` puts at least as much mass on every upper contour set (every prefix
of the order) as ``q`` does.

:func:`sd_compare` answers a comparison with the cut where ``p`` loses, or
None when ``p`` weakly dominates ``q``; the reverse cut is the same call
with the lotteries swapped. Each distinct comparison is decided once: the
cut comes from a bounded cache keyed by the order and the two integer
forms, which are plain tuples, so a lookup hashes in C and two equal
lotteries share an entry however they were built. Every
stochastic-dominance decision on integer forms walks the cuts through
:func:`sd_margins`: the comparison here and the dictatorial-weight bound in
``analysis``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Tuple

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

    __slots__ = ("numerators", "denominator", "_probs", "_hash")

    def __init__(self, probs: Sequence[Fraction]):
        probs = tuple(Fraction(p) for p in probs)
        den = lcm(*(p.denominator for p in probs))
        self._set([p.numerator * (den // p.denominator) for p in probs], den)
        self._probs = probs

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
        self._probs = None
        self._hash = hash(self.numerators)

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
        if self._probs is None:
            den = self.denominator
            self._probs = tuple(Fraction(a, den) for a in self.numerators)
        return self._probs

    @property
    def m(self) -> int:
        return len(self.numerators)

    def __getitem__(self, x: int) -> Fraction:
        return self.probs[x]

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
        return self._hash

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
    slate carries mass 1 on both sides, so it has no margin.
    """
    if not (len(order) == len(p) == len(q)):
        raise ValueError("mismatched alternative counts")
    cp = _cumulative(order, p)
    cq = _cumulative(order, q)
    p_den, q_den = cp[-1], cq[-1]
    return tuple([a * q_den - b * p_den for a, b in zip(cp[:-1], cq[:-1])]), p_den * q_den


# Bounded: a scan over a strategyproof scheme meets few distinct values (the
# n=5 benchmark domain 4,170 of 169,560), and an all-distinct scan only
# evicts. An exception is never cached, so a bad call raises every time.
@lru_cache(maxsize=1 << 14)
def _sd_verdict(
    order: Tuple[int, ...], p: Tuple[int, ...], q: Tuple[int, ...]
) -> Optional[int]:
    margins, _ = sd_margins(order, p, q)
    return next((x for x, d in zip(order, margins) if d < 0), None)


# An affine lottery gives each alternative a constant plus integer multiples
# of model variables: ``(const, ((var, coef), ...))`` per alternative.
AffineLottery = Sequence[Tuple[Fraction, Tuple[Tuple[int, int], ...]]]


def constant_form(lottery: Lottery) -> AffineLottery:
    """``lottery`` as an affine lottery with no variable terms."""
    return tuple((p, ()) for p in lottery.probs)


def sd_rows(pref: PreferenceRelation, p: AffineLottery, q: AffineLottery, width: int):
    """Linear rows saying that ``p`` weakly SD-dominates ``q`` under ``pref``.

    Yields ``(cut, coeffs, rhs)`` for each proper upper contour set, top-down,
    where ``cut`` is the alternative closing the set and the row
    ``coeffs . v <= rhs`` over ``width`` variables reads ``p(U) >= q(U)``.
    """
    coeffs = [0] * width
    rhs = 0
    for x in pref.order[:-1]:
        p_const, p_terms = p[x]
        q_const, q_terms = q[x]
        rhs += p_const - q_const
        for var, c in q_terms:
            coeffs[var] += c
        for var, c in p_terms:
            coeffs[var] -= c
        yield x, tuple(coeffs), rhs


def nonnegative_rows(p: AffineLottery, width: int):
    """Rows ``(x, coeffs, rhs)`` saying ``p(x) >= 0``, one per alternative."""
    for x, (const, terms) in enumerate(p):
        coeffs = [0] * width
        for var, c in terms:
            coeffs[var] -= c
        yield x, tuple(coeffs), const


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
    parts = [(Fraction(w), lot) for w, lot in parts]
    total = sum(w for w, _ in parts)
    if total != 1:
        raise ValueError(f"weights sum to {total}, not 1")
    m = parts[0][1].m
    den = lcm(*(w.denominator * lot.denominator for w, lot in parts))
    acc = [0] * m
    for w, lot in parts:
        if lot.m != m:
            raise ValueError("mismatched alternative counts")
        scale = w.numerator * (den // (w.denominator * lot.denominator))
        for x, a in enumerate(lot.numerators):
            acc[x] += scale * a
    return Lottery.from_integers(acc, den)

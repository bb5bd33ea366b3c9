"""Exact lotteries over alternatives and stochastic-dominance comparison.

Probabilities are :class:`fractions.Fraction` values throughout, so every
comparison made by the checkers is exact. A lottery ``p`` stochastically
dominates ``q`` under a preference order when ``p`` puts at least as much
mass on every upper contour set (every prefix of the order) as ``q`` does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .core import PreferenceRelation, alternative_index, alternative_name


class NegativeProbabilityError(ValueError):
    """A signed combination produced a negative probability somewhere."""

    def __init__(self, alternative: int, value: Fraction):
        super().__init__(
            f"negative probability {value} on alternative {alternative_name(alternative)}"
        )
        self.alternative = alternative
        self.value = value


class Lottery:
    """A probability distribution over ``m`` alternatives with rational weights."""

    __slots__ = ("probs", "_hash")

    def __init__(self, probs: Sequence[Fraction]):
        probs = tuple(Fraction(p) for p in probs)
        for x, p in enumerate(probs):
            if p < 0:
                raise NegativeProbabilityError(x, p)
        if sum(probs) != 1:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        self.probs = probs
        self._hash = hash(probs)

    @classmethod
    def point(cls, x: int, m: int) -> "Lottery":
        return cls(tuple(Fraction(1) if y == x else Fraction(0) for y in range(m)))

    @classmethod
    def uniform(cls, m: int) -> "Lottery":
        return cls(tuple(Fraction(1, m) for _ in range(m)))

    @classmethod
    def uniform_over(cls, xs: Iterable[int], m: int) -> "Lottery":
        xs = sorted(set(xs))
        if not xs:
            raise ValueError("uniform lottery over empty set")
        w = Fraction(1, len(xs))
        return cls(tuple(w if y in xs else Fraction(0) for y in range(m)))

    @classmethod
    def from_map(cls, mapping: Mapping[int, Fraction], m: int) -> "Lottery":
        return cls(tuple(Fraction(mapping.get(x, 0)) for x in range(m)))

    @property
    def m(self) -> int:
        return len(self.probs)

    def __getitem__(self, x: int) -> Fraction:
        return self.probs[x]

    def mass(self, xs: Iterable[int]) -> Fraction:
        return sum((self.probs[x] for x in xs), Fraction(0))

    def support(self) -> tuple:
        return tuple(x for x, p in enumerate(self.probs) if p > 0)

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
        return cls.from_map(
            {alternative_index(k): Fraction(v) for k, v in data.items()}, m
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Lottery) and self.probs == other.probs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{alternative_name(x)}: {p}" for x, p in enumerate(self.probs) if p)
        return f"Lottery({inner})"


class SDRelation(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class SDVerdict:
    """Outcome of comparing lotteries p and q under one preference order.

    ``against_p`` is the first alternative (scanning the order top-down) whose
    upper contour set carries strictly less p-mass than q-mass, i.e. the cut
    witnessing that p does not weakly dominate q. ``against_q`` is the same
    for the opposite direction. Incomparable verdicts carry both cuts.
    """

    relation: SDRelation
    against_p: Optional[int] = None
    against_q: Optional[int] = None

    @property
    def weakly_prefers(self) -> bool:
        """True when p is at least as good as q at every cut."""
        return self.relation in (SDRelation.DOMINATES, SDRelation.EQUIVALENT)


@lru_cache(maxsize=None)
def _cumulative(pref: PreferenceRelation, lottery: Lottery) -> Tuple[Fraction, ...]:
    total = Fraction(0)
    out = []
    for x in pref.order:
        total += lottery.probs[x]
        out.append(total)
    return tuple(out)


def sd_compare(pref: PreferenceRelation, p: Lottery, q: Lottery) -> SDVerdict:
    """Stochastic-dominance comparison of ``p`` against ``q`` under ``pref``."""
    if not (pref.m == p.m == q.m):
        raise ValueError("mismatched alternative counts")
    cp = _cumulative(pref, p)
    cq = _cumulative(pref, q)
    against_p = against_q = None
    for slot, x in enumerate(pref.order):
        if cp[slot] < cq[slot]:
            if against_p is None:
                against_p = x
        elif cp[slot] > cq[slot]:
            if against_q is None:
                against_q = x
    if against_p is None and against_q is None:
        rel = SDRelation.EQUIVALENT
    elif against_p is None:
        rel = SDRelation.DOMINATES
    elif against_q is None:
        rel = SDRelation.DOMINATED
    else:
        rel = SDRelation.INCOMPARABLE
    return SDVerdict(rel, against_p, against_q)


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
    total = sum(Fraction(w) for w, _ in parts)
    if total != 1:
        raise ValueError(f"weights sum to {total}, not 1")
    m = parts[0][1].m
    acc = [Fraction(0)] * m
    for w, lot in parts:
        if lot.m != m:
            raise ValueError("mismatched alternative counts")
        w = Fraction(w)
        for x in range(m):
            acc[x] += w * lot.probs[x]
    return Lottery(acc)

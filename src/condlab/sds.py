"""Social decision schemes: maps from profiles to lotteries.

Every scheme carries the domain it is defined on and refuses to evaluate
outside it. Mixtures combine schemes with convex weights; signed mixtures
allow negative weights and are only well defined when every profile still
receives a proper lottery, which the evaluation checks exactly. A mixture
evaluates each part through that part's ``SDS.evaluate``, so a part's
membership test and errors stay its own; only the combination of the parts'
lotteries is memoised, by value, in a bounded cache that keeps no failed
combination.

``SDS.evaluate`` is the single checked evaluation. ``SDS.at`` memoises it in
the object's one evaluation cache, which every scan reads, so scans over one
scheme object evaluate each profile at most once. The cache lives as long as
the object and keeps no failed evaluation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional, Sequence, Tuple

from .core import PreferenceRelation, Profile, TieBreaker, parse_rational
from .domains import (
    CondorcetDomain,
    Domain,
    ExplicitDomain,
    FullDomain,
    OutOfDomainError,
    TieBreakingCondorcetDomain,
)
from .lottery import Lottery, affine_combine


class TableMissError(LookupError):
    """A table-backed scheme has no entry for a profile in its domain."""


class SDS:
    """Base class: a social decision scheme with an explicit validity domain."""

    def __init__(self, valid_domain: Domain, name: str):
        self.valid_domain = valid_domain
        self.name = name
        # code -> (profile, lottery): an int key hashes in C, and a hit needs
        # the stored profile itself or an equal one, never another shape's
        self._evaluations: dict = {}

    @property
    def n(self) -> int:
        return self.valid_domain.n

    @property
    def m(self) -> int:
        return self.valid_domain.m

    def evaluate(self, profile: Profile) -> Lottery:
        if not self.valid_domain.contains(profile):
            raise OutOfDomainError(
                f"{self.describe()} is undefined at:\n{profile.to_text()}"
            )
        return self._lottery(profile)

    def at(self, profile: Profile) -> Lottery:
        """``evaluate(profile)``, computed at most once per profile."""
        entry = self._evaluations.get(profile.code)
        if entry is not None and (entry[0] is profile or entry[0] == profile):
            return entry[1]
        lot = self.evaluate(profile)
        self._evaluations[profile.code] = (profile, lot)
        return lot

    def _lottery(self, profile: Profile) -> Lottery:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<SDS {self.describe()}>"


class Dictatorship(SDS):
    """Full probability on one fixed voter's favorite."""

    def __init__(self, voter: int, n: int, m: int):
        if not 0 <= voter < n:
            raise ValueError("dictator index out of range")
        super().__init__(FullDomain(n, m), f"dict:{voter}")
        self.voter = voter

    def _lottery(self, profile: Profile) -> Lottery:
        return Lottery.point(profile[self.voter].top(), self.m)


class RandomDictatorship(SDS):
    """Each voter's favorite wins with that voter's fixed weight."""

    def __init__(self, weights: Sequence[Fraction], m: int):
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise ValueError("dictatorial weights must be nonnegative")
        if sum(weights) != 1:
            raise ValueError("dictatorial weights must sum to 1")
        super().__init__(
            FullDomain(len(weights), m),
            "rd:" + ",".join(str(w) for w in weights),
        )
        self.weights = weights
        den = lcm(*(w.denominator for w in weights))
        self._numerators = tuple(w.numerator * (den // w.denominator) for w in weights)

    def _lottery(self, profile: Profile) -> Lottery:
        tops = tuple([rel.order[0] for rel in profile.relations])
        return _dictators_lottery(tops, self._numerators, self.m)


# Bounded and keyed by value, like ``_combine``: at most m ** n tops per weight vector.
@lru_cache(maxsize=1 << 14)
def _dictators_lottery(tops: Tuple[int, ...], numerators: Tuple[int, ...], m: int) -> Lottery:
    """Each voter's top wins with probability ``numerators[voter] / sum(numerators)``."""
    acc = [0] * m
    for top, a in zip(tops, numerators):
        acc[top] += a
    return Lottery.from_integers(acc, sum(numerators))


class CondorcetRule(SDS):
    """Full probability on the majority winner; defined where one exists."""

    def __init__(self, n: int, m: int):
        super().__init__(CondorcetDomain(n, m), "cond")

    def _lottery(self, profile: Profile) -> Lottery:
        return Lottery.point(self.valid_domain.majority_winner(profile), self.m)


class TieBreakingCondorcetRule(CondorcetRule):
    """Majority winner after the tie-breaking order votes as one extra voter."""

    def __init__(self, tiebreaker: TieBreaker, n: int):
        SDS.__init__(
            self,
            TieBreakingCondorcetDomain(tiebreaker, n),
            f"tb-cond:{tiebreaker.to_text()}",
        )
        self.tiebreaker = tiebreaker


def _common_domain(parts: Sequence[Tuple[Fraction, SDS]]) -> Domain:
    narrow = [part.valid_domain for _, part in parts if not isinstance(part.valid_domain, FullDomain)]
    if not narrow:
        return parts[0][1].valid_domain
    first = narrow[0]
    for dom in narrow[1:]:
        if dom != first:
            raise ValueError(
                "component schemes live on different domains; pass valid_domain explicitly"
            )
    return first


class Mixture(SDS):
    """Convex mixture of component schemes."""

    label = "mix"
    noun = "mixture"
    allows_negative = False

    def __init__(
        self,
        parts: Sequence[Tuple[Fraction, SDS]],
        valid_domain: Optional[Domain] = None,
    ):
        parts = tuple((Fraction(w), part) for w, part in parts)
        if not self.allows_negative and any(w < 0 for w, _ in parts):
            raise ValueError("mixture weights must be nonnegative")
        if sum(w for w, _ in parts) != 1:
            raise ValueError(f"{self.noun} weights must sum to 1")
        dom = valid_domain if valid_domain is not None else _common_domain(parts)
        name = f"{self.label}:" + "+".join(f"{w}*{p.describe()}" for w, p in parts)
        super().__init__(dom, name)
        self.parts = parts
        self._weights = tuple((w.numerator, w.denominator) for w, _ in parts)

    def _lottery(self, profile: Profile) -> Lottery:
        return _combine(
            self._weights, tuple(part.evaluate(profile).numerators for _, part in self.parts)
        )


# Bounded, and keyed by value: the weights as integer pairs and each part's
# lottery as its integer form. A combination that raises (a signed mixture
# leaving the simplex) is never cached, so it raises at every profile it meets.
@lru_cache(maxsize=1 << 14)
def _combine(
    weights: Tuple[Tuple[int, int], ...], parts: Tuple[Tuple[int, ...], ...]
) -> Lottery:
    return affine_combine(
        [
            (Fraction(*w), Lottery.from_integers(nums, sum(nums)))
            for w, nums in zip(weights, parts)
        ]
    )


class SignedMixture(Mixture):
    """Affine combination of component schemes; weights may be negative.

    Well-definedness is not assumed: evaluation raises
    :class:`condlab.lottery.NegativeProbabilityError` at any profile where
    the combination leaves the probability simplex.
    """

    label = "signed"
    noun = "signed mixture"
    allows_negative = True


class Plurality(SDS):
    """Uniform lottery over the alternatives topping the most ballots."""

    def __init__(self, n: int, m: int):
        super().__init__(FullDomain(n, m), "plurality")

    def _lottery(self, profile: Profile) -> Lottery:
        score = [0] * self.m
        for rel in profile:
            score[rel.top()] += 1
        best = max(score)
        return Lottery.uniform_over([x for x in range(self.m) if score[x] == best], self.m)


class Borda(SDS):
    """Uniform lottery over the alternatives with maximal Borda score."""

    def __init__(self, n: int, m: int):
        super().__init__(FullDomain(n, m), "borda")

    def _lottery(self, profile: Profile) -> Lottery:
        score = [0] * self.m
        for rel in profile:
            for x in range(self.m):
                score[x] += self.m - rel.rank(x)
        best = max(score)
        return Lottery.uniform_over([x for x in range(self.m) if score[x] == best], self.m)


class TableSDS(SDS):
    """Scheme given by an explicit profile-to-lottery table."""

    def __init__(
        self,
        mapping: Mapping[Profile, Lottery],
        valid_domain: Optional[Domain] = None,
        name: str = "table",
    ):
        if not mapping:
            raise ValueError("empty table")
        mapping = dict(mapping)
        dom = valid_domain if valid_domain is not None else ExplicitDomain(mapping.keys())
        super().__init__(dom, name)
        self.mapping = mapping

    def _lottery(self, profile: Profile) -> Lottery:
        try:
            return self.mapping[profile]
        except KeyError:
            raise TableMissError(
                f"table has no entry for domain member:\n{profile.to_text()}"
            ) from None


def signed_mixture_counterexample(n: int, m: int = 3) -> SignedMixture:
    """Equal positive weight on every dictatorship, compensating negative
    weight on the majority-winner rule.

    For an even electorate over three alternatives this is a well-defined
    scheme on the majority-winner domain: with only three alternatives the
    winner is somebody's favorite, so the negative weight is always covered.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("the counterexample needs an even electorate of at least 4")
    if m != 3:
        raise ValueError("the counterexample is specific to three alternatives")
    w = Fraction(1, n - 1)
    parts = [(w, Dictatorship(i, n, m)) for i in range(n)]
    parts.append((-w, CondorcetRule(n, m)))
    return SignedMixture(parts, valid_domain=CondorcetDomain(n, m))


# -- textual scheme specifications -------------------------------------------


def parse_table_file(text: str, n: int, m: int) -> dict:
    """Parse table entries: blocks of profile lines, each closed by a lottery JSON line."""
    mapping = {}
    lines: list = []
    for raw in text.splitlines() + [""]:
        stripped = raw.split("#", 1)[0].strip() if not raw.lstrip().startswith("{") else raw.strip()
        if stripped.startswith("{"):
            if len(lines) != n:
                raise ValueError(f"table block has {len(lines)} voters, expected {n}")
            profile = Profile(lines)
            if profile in mapping:
                raise ValueError(f"table names this profile twice:\n{profile.to_text()}")
            mapping[profile] = Lottery.from_json_dict(json.loads(stripped), m)
            lines = []
        elif stripped:
            lines.append(PreferenceRelation.from_text(stripped))
    if lines:
        raise ValueError("trailing profile block without a lottery line")
    if not mapping:
        raise ValueError("no table entries found")
    return mapping


def _parse_weighted_parts(body: str, n: int, m: int) -> list:
    parts = []
    for chunk in body.split("+"):
        if "*" not in chunk:
            raise ValueError(f"expected <weight>*<scheme>, got {chunk!r}")
        weight_text, spec = chunk.split("*", 1)
        parts.append((parse_rational(weight_text.strip()), parse_sds(spec.strip(), n, m)))
    return parts


def parse_sds(text: str, n: int, m: int) -> SDS:
    """Parse a scheme specification string.

    Grammar: ``cond | tb-cond:<order> | dict:<i> | rd:<w1,...,wn> |
    mix:<w1*spec1+...> | signed:<w1*spec1+...> | plurality | borda |
    table:<path>``. Voter indices are zero-based.
    """
    text = text.strip()
    if text == "cond":
        return CondorcetRule(n, m)
    if text.startswith("tb-cond:"):
        return TieBreakingCondorcetRule(PreferenceRelation.from_text(text.split(":", 1)[1]), n)
    if text.startswith("dict:"):
        return Dictatorship(int(text.split(":", 1)[1]), n, m)
    if text.startswith("rd:"):
        weights = [parse_rational(w.strip()) for w in text.split(":", 1)[1].split(",")]
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        return RandomDictatorship(weights, m)
    if text.startswith("mix:"):
        return Mixture(_parse_weighted_parts(text.split(":", 1)[1], n, m))
    if text.startswith("signed:"):
        return SignedMixture(_parse_weighted_parts(text.split(":", 1)[1], n, m))
    if text == "plurality":
        return Plurality(n, m)
    if text == "borda":
        return Borda(n, m)
    if text.startswith("table:"):
        path = text.split(":", 1)[1].strip()
        with open(path, "r", encoding="utf-8") as handle:
            mapping = parse_table_file(handle.read(), n, m)
        return TableSDS(mapping)
    raise ValueError(f"unknown scheme specification {text!r}")

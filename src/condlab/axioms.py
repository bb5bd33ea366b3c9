"""Axiom checkers for social decision schemes on finite domains.

Every checker scans its domain exhaustively in canonical order (profiles by
canonical key, voters ascending, deviations in lexicographic order) and
reports the first violation it meets, so witnesses are deterministic and
minimal in that order. Verdicts serialize to a stable JSON shape and every
reported witness can be replayed independently of the scan that found it.

The checkers implement, for a scheme f on domain D:

* strategyproofness: truth-telling stochastically dominates every
  in-domain unilateral deviation, voter by voter;
* group strategyproofness: no coalition can jointly misreport (staying in
  the domain) so that every member fails to weakly prefer the truthful
  outcome;
* non-imposition: every alternative receives probability exactly 1
  somewhere;
* ex post efficiency: Pareto-dominated alternatives get probability 0;
* localizedness: an adjacent swap of x and y leaves every other
  alternative's probability unchanged;
* non-perversity: pushing y up one adjacent position never lowers y's
  probability.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Tuple

from .core import Profile, alternative_index, alternative_name, pareto_dominates, swap
from .domains import Domain, FullDomain
from .lottery import Lottery, sd_compare


class ManipulationWitness(NamedTuple):
    profile: Profile
    voter: int
    deviation: Profile
    cut: int
    truthful: Lottery
    manipulated: Lottery

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_text(),
            "voter": self.voter,
            "deviation": self.deviation.to_text(),
            "cut": alternative_name(self.cut),
            "truthful": self.truthful.to_json_dict(),
            "manipulated": self.manipulated.to_json_dict(),
        }


class GroupManipulationWitness(NamedTuple):
    profile: Profile
    coalition: Tuple[int, ...]
    deviation: Profile
    cuts: Tuple[Tuple[int, int], ...]  # (voter, failing cut) per coalition member

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_text(),
            "coalition": list(self.coalition),
            "deviation": self.deviation.to_text(),
            "cuts": {str(v): alternative_name(c) for v, c in self.cuts},
        }


class ImpositionWitness(NamedTuple):
    alternative: int

    def to_json_dict(self) -> dict:
        return {"alternative": alternative_name(self.alternative)}


class ExPostWitness(NamedTuple):
    profile: Profile
    dominator: int
    dominated: int
    probability: Fraction

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_text(),
            "dominator": alternative_name(self.dominator),
            "dominated": alternative_name(self.dominated),
            "probability": str(self.probability),
        }


class SwapEffectWitness(NamedTuple):
    """A single adjacent swap whose effect breaks localizedness or non-perversity."""

    profile: Profile
    voter: int
    lowered: int
    raised: int
    watched: int
    before: Fraction
    after: Fraction

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_text(),
            "voter": self.voter,
            "lowered": alternative_name(self.lowered),
            "raised": alternative_name(self.raised),
            "watched": alternative_name(self.watched),
            "before": str(self.before),
            "after": str(self.after),
        }


class Verdict(NamedTuple):
    axiom: str
    holds: bool
    witness: Optional[object]
    profiles_checked: int
    comparisons: int

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "profiles_checked": self.profiles_checked,
            "comparisons": self.comparisons,
        }


def check_strategyproof(sds, dom: Domain) -> Verdict:
    """Exhaustive stochastic-dominance strategyproofness check."""
    members = dom.members()
    f = sds.at
    comparisons = 0
    for index, profile in enumerate(members):
        truthful = f(profile)
        for voter in range(dom.n):
            pref = profile[voter]
            for deviation in dom.unilateral_deviations(profile, voter):
                cut = sd_compare(pref, truthful, f(deviation))
                comparisons += 1
                if cut is not None:
                    witness = ManipulationWitness(
                        profile, voter, deviation, cut, truthful, f(deviation)
                    )
                    return Verdict("strategyproof", False, witness, index + 1, comparisons)
    return Verdict("strategyproof", True, None, len(members), comparisons)


def check_group_strategyproof(
    sds, dom: Domain, max_coalition: Optional[int] = None
) -> Verdict:
    """Group strategyproofness against coalitions up to ``max_coalition`` voters.

    Coalitions are enumerated in size-then-lexicographic order and only joint
    misreports where every member actually changes are generated; a coalition
    with passive members succeeds exactly when its active core does, so this
    loses no violations and keeps the witness canonical.
    """
    if max_coalition is not None and max_coalition < 1:
        raise ValueError(f"max_coalition must be at least 1, got {max_coalition}")
    members = dom.members()
    n = dom.n
    bound = n if max_coalition is None else min(max_coalition, n)
    f = sds.at
    comparisons = 0
    for index, profile in enumerate(members):
        truthful = f(profile)
        for size in range(1, bound + 1):
            for coalition in itertools.combinations(range(n), size):
                for deviation in dom.deviations(profile, coalition):
                    outcome = f(deviation)
                    cuts = []
                    for voter in coalition:
                        cut = sd_compare(profile[voter], truthful, outcome)
                        comparisons += 1
                        if cut is None:  # this member weakly prefers the truth
                            break
                        cuts.append((voter, cut))
                    else:
                        witness = GroupManipulationWitness(
                            profile, coalition, deviation, tuple(cuts)
                        )
                        return Verdict(
                            "group-strategyproof", False, witness, index + 1, comparisons
                        )
    return Verdict("group-strategyproof", True, None, len(members), comparisons)


def check_non_imposition(sds, dom: Domain) -> Verdict:
    """Every alternative must receive probability exactly 1 at some profile."""
    members = dom.members()
    f = sds.at
    hit = [False] * dom.m
    comparisons = 0
    for profile in members:
        lot = f(profile)
        comparisons += 1
        winner = lot.is_point()
        if winner is not None:
            hit[winner] = True
    for x in range(dom.m):
        if not hit[x]:
            return Verdict(
                "non-imposition", False, ImpositionWitness(x), len(members), comparisons
            )
    return Verdict("non-imposition", True, None, len(members), comparisons)


def check_ex_post_efficient(sds, dom: Domain) -> Verdict:
    """Pareto-dominated alternatives must receive probability 0."""
    members = dom.members()
    f = sds.at
    comparisons = 0
    for index, profile in enumerate(members):
        lot = f(profile)
        for x in range(dom.m):
            for y in range(dom.m):
                if x == y:
                    continue
                comparisons += 1
                if pareto_dominates(profile, x, y) and lot[y] > 0:
                    witness = ExPostWitness(profile, x, y, lot[y])
                    return Verdict(
                        "ex-post-efficient", False, witness, index + 1, comparisons
                    )
    return Verdict("ex-post-efficient", True, None, len(members), comparisons)


def check_localized(sds, dom: Domain) -> Verdict:
    """Adjacent swaps of x and y must leave all other probabilities unchanged."""
    members = dom.members()
    f = sds.at
    comparisons = 0
    for index, profile in enumerate(members):
        before = f(profile)
        for voter, x, y, neighbor in dom.adjacent_swaps(profile):
            after = f(neighbor)
            for z in range(dom.m):
                if z == x or z == y:
                    continue
                comparisons += 1
                if before[z] != after[z]:
                    witness = SwapEffectWitness(
                        profile, voter, x, y, z, before[z], after[z]
                    )
                    return Verdict("localized", False, witness, index + 1, comparisons)
    return Verdict("localized", True, None, len(members), comparisons)


def check_non_perverse(sds, dom: Domain) -> Verdict:
    """Reinforcing y by one adjacent position never lowers y's probability."""
    members = dom.members()
    f = sds.at
    comparisons = 0
    for index, profile in enumerate(members):
        before = f(profile)
        for voter, x, y, neighbor in dom.adjacent_swaps(profile):
            comparisons += 1
            after = f(neighbor)
            if after[y] < before[y]:
                witness = SwapEffectWitness(profile, voter, x, y, y, before[y], after[y])
                return Verdict("non-perverse", False, witness, index + 1, comparisons)
    return Verdict("non-perverse", True, None, len(members), comparisons)


_CHECKERS = {
    "strategyproof": check_strategyproof,
    "group-strategyproof": check_group_strategyproof,
    "non-imposition": check_non_imposition,
    "ex-post-efficient": check_ex_post_efficient,
    "localized": check_localized,
    "non-perverse": check_non_perverse,
}


def checker_for(axiom: str):
    try:
        return _CHECKERS[axiom]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom!r}") from None


class ImplicationReport(NamedTuple):
    strategyproof: Verdict
    localized: Verdict
    non_perverse: Verdict
    full_domain: bool
    discrepancies: Tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "strategyproof": self.strategyproof.to_json_dict(),
            "localized": self.localized.to_json_dict(),
            "non_perverse": self.non_perverse.to_json_dict(),
            "full_domain": self.full_domain,
            "discrepancies": list(self.discrepancies),
        }


def implication_suite(sds, dom: Domain) -> ImplicationReport:
    """Check the classical decomposition of strategyproofness.

    On any domain strategyproofness implies localizedness and non-perversity;
    on the full domain the two together are equivalent to strategyproofness.
    Any observed deviation from these implications is reported as a
    discrepancy (and would mean a bug in one of the checkers).
    """
    sp = check_strategyproof(sds, dom)
    loc = check_localized(sds, dom)
    np_ = check_non_perverse(sds, dom)
    full = isinstance(dom, FullDomain)
    discrepancies = []
    if sp.holds and not (loc.holds and np_.holds):
        discrepancies.append(
            "strategyproof scheme fails localizedness or non-perversity"
        )
    if full and loc.holds and np_.holds and not sp.holds:
        discrepancies.append(
            "localized and non-perverse scheme is manipulable on the full domain"
        )
    return ImplicationReport(sp, loc, np_, full, tuple(discrepancies))


# -- witness replay -----------------------------------------------------------


def _field(witness: Mapping, key: str, kind: type):
    if key not in witness:
        raise ValueError(f"witness has no {key!r} field")
    value = witness[key]
    if not isinstance(value, kind):
        raise ValueError(f"witness {key} {value!r} is not a {kind.__name__}")
    return value


def _voter(value, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
        raise ValueError(f"witness voter {value!r} is not one of 0..{n - 1}")
    return value


def _alternative(witness: Mapping, key: str, m: int) -> int:
    name = _field(witness, key, str)
    if alternative_index(name) >= m:
        raise ValueError(f"witness {key} {name!r} is outside the slate of {m}")
    return alternative_index(name)


def replay_witness(sds, dom: Domain, verdict_json: Mapping) -> bool:
    """Re-execute a reported witness and confirm it still violates the axiom.

    Takes the JSON form of a failing verdict; returns True when the violation
    reproduces against the given scheme and domain. A verdict or witness that
    is no JSON object, a missing or ill-typed field, an alternative outside
    the slate, a voter outside ``0..n-1`` or an empty or repeating coalition
    is a ValueError.
    """
    if not isinstance(verdict_json, Mapping):
        raise ValueError("a replayed verdict must be a JSON object")
    axiom = verdict_json.get("axiom")
    witness = verdict_json.get("witness")
    if witness is None:
        raise ValueError("verdict carries no witness to replay")
    if not isinstance(witness, Mapping):
        raise ValueError("the verdict's witness must be a JSON object")
    if axiom not in _CHECKERS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if axiom == "non-imposition":
        point = Lottery.point(_alternative(witness, "alternative", dom.m), dom.m)
        return all(sds.at(profile) != point for profile in dom.members())
    profile = Profile.from_text(_field(witness, "profile", str))
    if axiom == "ex-post-efficient":
        dominator = _alternative(witness, "dominator", dom.m)
        dominated = _alternative(witness, "dominated", dom.m)
        return (
            dom.contains(profile)
            and pareto_dominates(profile, dominator, dominated)
            and sds.evaluate(profile)[dominated] > 0
        )
    if axiom in ("localized", "non-perverse"):
        voter = _voter(_field(witness, "voter", int), dom.n)
        lowered, raised, watched = (
            _alternative(witness, key, dom.m) for key in ("lowered", "raised", "watched")
        )
        if not dom.contains(profile):
            return False
        neighbor = swap(profile, voter, lowered, raised)
        if not dom.contains(neighbor):
            return False
        before = sds.evaluate(profile)
        after = sds.evaluate(neighbor)
        if axiom == "localized":
            return watched not in (lowered, raised) and before[watched] != after[watched]
        return watched == raised and after[watched] < before[watched]
    # strategyproofness is group strategyproofness for a coalition of one
    deviation = Profile.from_text(_field(witness, "deviation", str))
    if axiom == "strategyproof":
        coalition = [_voter(_field(witness, "voter", int), dom.n)]
    else:
        coalition = [_voter(v, dom.n) for v in _field(witness, "coalition", list)]
        if not coalition or len(set(coalition)) != len(coalition):
            raise ValueError(f"witness coalition {coalition} is empty or repeats a voter")
    if not (dom.contains(profile) and dom.contains(deviation)):
        return False
    if any(profile[v] != deviation[v] for v in range(dom.n) if v not in coalition):
        return False
    truthful = sds.evaluate(profile)
    outcome = sds.evaluate(deviation)
    return all(
        sd_compare(profile[voter], truthful, outcome) is not None for voter in coalition
    )

"""Decomposition and extension analysis for decision schemes.

This module extracts candidate mixture coefficients from probe profiles,
verifies candidate representations exactly against a domain, computes the
largest weight a scheme puts on random dictatorship via an exact linear
program, and decides whether a scheme on a base domain can be extended to
extra profiles without breaking strategyproofness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import PreferenceRelation, Profile, alternative_name
from .axioms import ManipulationWitness, Verdict, check_strategyproof
from .domains import Domain, ExtendedDomain, OutOfDomainError
from .lottery import (
    AffineLottery, Lottery, constant_form, nonnegative_rows, sd_margins, sd_rows,
)
from .ratlp import fm_feasible, satisfies, simplex_maximize
from .sds import TableMissError, TableSDS


class InfeasibleModelError(ValueError):
    """The decomposition model has no solution: the scheme is not strategyproof.

    ``witness``, when known, is the manipulation that makes it so, as
    :func:`~condlab.axioms.check_strategyproof` would report it."""

    def __init__(self, message: str, witness: Optional[ManipulationWitness] = None):
        super().__init__(message)
        self.witness = witness


class _MixtureWeights(NamedTuple):
    condorcet_weight: Fraction
    voter_weights: Tuple[Fraction, ...]


class MixtureCoefficients(_MixtureWeights):
    """Weights of a (possibly signed) mixture of the majority rule and dictatorships."""

    __slots__ = ()

    def __new__(cls, condorcet_weight: Fraction, voter_weights: Tuple[Fraction, ...]):
        if condorcet_weight + sum(voter_weights) != 1:
            raise ValueError("mixture coefficients must sum to 1")
        return super().__new__(cls, condorcet_weight, voter_weights)

    @property
    def nonnegative(self) -> bool:
        return self.condorcet_weight >= 0 and all(w >= 0 for w in self.voter_weights)

    def to_json_dict(self) -> dict:
        return {
            "gamma_C": str(self.condorcet_weight),
            "gamma": [str(w) for w in self.voter_weights],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MixtureCoefficients":
        return cls(
            Fraction(data["gamma_C"]),
            tuple(Fraction(w) for w in data["gamma"]),
        )


class MixtureMismatchWitness(NamedTuple):
    profile: Profile
    alternative: int
    actual: Fraction
    expected: Fraction

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_text(),
            "alternative": alternative_name(self.alternative),
            "actual": str(self.actual),
            "expected": str(self.expected),
        }


def probe_profile(n: int, m: int, anchor: int, voter: int) -> Profile:
    """The probe isolating one voter's dictatorial weight.

    Everyone ranks the anchor first except the probed voter, who slips a
    rival just above it; the anchor stays the strict majority winner, so the
    probability of the probed voter's favorite reveals that voter's weight.
    """
    if m < 3:
        raise ValueError("probes need at least three alternatives")
    if not 0 <= anchor < m:
        raise ValueError("anchor out of range")
    if not 0 <= voter < n:
        raise ValueError("voter out of range")
    others = [x for x in range(m) if x != anchor]
    runner_up, rival = others[0], others[1]
    tail = tuple(others[2:])
    probing = PreferenceRelation((rival, anchor, runner_up) + tail)
    background = PreferenceRelation((anchor, runner_up, rival) + tail)
    return Profile([probing if j == voter else background for j in range(n)])


def probe_coefficients(sds, anchor: int) -> MixtureCoefficients:
    """Read mixture coefficients off the probe profiles, one per voter."""
    weights = []
    for voter in range(sds.n):
        probe = probe_profile(sds.n, sds.m, anchor, voter)
        weights.append(sds.evaluate(probe)[probe[voter].top()])
    return MixtureCoefficients(1 - sum(weights, Fraction(0)), tuple(weights))


def verify_mixture(
    sds, dom: Domain, coeffs: MixtureCoefficients, reference
) -> Verdict:
    """Check exactly that ``sds`` equals the weighted combination of the
    reference rule and the dictatorships, profile by profile over ``dom``."""
    members = dom.members()
    comparisons = 0
    for index, profile in enumerate(members):
        actual = sds.at(profile)
        ref = reference.at(profile)
        for x in range(dom.m):
            expected = coeffs.condorcet_weight * ref[x]
            for voter, w in enumerate(coeffs.voter_weights):
                if profile[voter].top() == x:
                    expected += w
            comparisons += 1
            if expected != actual[x]:
                witness = MixtureMismatchWitness(profile, x, actual[x], expected)
                return Verdict("mixture-representation", False, witness, index + 1, comparisons)
    return Verdict("mixture-representation", True, None, len(members), comparisons)


# Bounded like the comparison cache in ``lottery``: the key is a value, and a
# strategyproof scheme on a majority domain repeats few of them.
@lru_cache(maxsize=1 << 14)
def _deviation_bound(
    order: Tuple[int, ...], new_top: int, truthful: Tuple[int, ...], deviated: Tuple[int, ...]
) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
    """What one deviation says about its voter's dictatorial weight.

    The voter ranks by ``order`` and moves the top to ``new_top``; the
    lotteries are integer forms. Returns ``(cut, None)`` when the deviation
    pays off, ``cut`` being the first cut top-down where the truthful lottery
    loses; ``(None, None)`` when no cut leaves ``new_top`` out; otherwise
    ``(None, (num, den))``, the least margin over the cuts above ``new_top``.
    """
    margins, den = sd_margins(order, truthful, deviated)
    for cut, margin in zip(order, margins):
        if margin < 0:
            return cut, None
    # the cuts above the deviation's top are those leaving it out
    reach = order.index(new_top)
    if not reach:
        return None, None
    return None, (min(margins[:reach]), den)


def max_dictatorial_weight(sds, dom: Domain) -> Fraction:
    """Largest total dictatorial weight whose removal leaves a nonnegative,
    strategyproof remainder.

    Maximizes the sum of per-voter weights ``w_v >= 0`` such that the scheme
    minus the weighted dictatorships is pointwise nonnegative and still
    satisfies every stochastic-dominance inequality between domain members
    one unilateral deviation apart. When voter ``v`` deviates from ``P`` to
    ``P'``, the other voters' tops cancel and ``v``'s own top lies in every
    upper contour set ``U`` of ``v``'s order, so the inequality at ``U``
    reads ``w_v * [top'_v not in U] <= f(P)(U) - f(P')(U)``: every row is
    one-sparse. The program therefore keeps one bound per voter (the least
    such right-hand side) and one nonnegativity row per set of voters
    sharing a top. Each deviation's bound is decided once per distinct
    value of the voter's order, the new top and the two lotteries.

    A negative right-hand side means the scheme itself is manipulable; the
    scan stops at the first such deviation and raises
    :class:`InfeasibleModelError` carrying the manipulation that
    :func:`~condlab.axioms.check_strategyproof` reports on ``dom``.
    """
    members = dom.members()
    n = dom.n
    f = sds.at
    # Right-hand sides are kept as (numerator, denominator) integer pairs and
    # compared by cross-multiplication.
    bounds: List[Optional[Tuple[int, int]]] = [None] * n
    shares: Dict[Tuple[int, ...], Tuple[int, int]] = {}

    for profile in members:
        lot = f(profile)
        den = lot.denominator
        voters_by_top: Dict[int, List[int]] = {}
        for voter, rel in enumerate(profile.relations):
            voters_by_top.setdefault(rel.order[0], []).append(voter)
        for top, voters in voters_by_top.items():
            key, rhs = tuple(voters), lot.numerators[top]
            kept = shares.get(key)
            if kept is None or rhs * kept[1] < kept[0] * den:
                shares[key] = (rhs, den)
        for voter in range(n):
            order = profile.relations[voter].order
            for deviation in dom.unilateral_deviations(profile, voter):
                other = f(deviation)
                cut, bound = _deviation_bound(
                    order, deviation.relations[voter].order[0], lot.numerators, other.numerators
                )
                if cut is not None:
                    raise InfeasibleModelError(
                        f"scheme is manipulable at {profile!r} by voter {voter}",
                        ManipulationWitness(profile, voter, deviation, cut, lot, other),
                    )
                if bound is not None:
                    kept = bounds[voter]
                    if kept is None or bound[0] * kept[1] < kept[0] * bound[1]:
                        bounds[voter] = bound

    if not shares:
        # Only an empty domain has no rows.
        return Fraction(1)
    rows = [((v,), kept) for v, kept in enumerate(bounds) if kept is not None]
    rows += shares.items()
    value, _ = simplex_maximize(
        [Fraction(1)] * n,
        [(tuple(int(v in key) for v in range(n)), Fraction(*kept)) for key, kept in rows],
    )
    return value


# -- extension feasibility -----------------------------------------------------


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: Optional[Dict[Profile, Lottery]]
    conflict: Optional[Tuple[str, ...]]

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": None
            if self.witness is None
            else {
                profile.to_text(): lot.to_json_dict()
                for profile, lot in sorted(self.witness.items(), key=lambda kv: kv[0].code)
            },
            "conflict": None if self.conflict is None else list(self.conflict),
        }


def _extension_rows(base_sds, extended: ExtendedDomain):
    """Inequality rows over the reduced extension variables.

    Variables are the first ``m - 1`` probabilities of each extra profile's
    lottery, in ``extended.extras`` order; the last probability is
    substituted as one minus their sum. Rows are ``coeffs . v <= rhs``
    tagged with a readable description.
    """
    n, extras = extended.n, extended.extras
    reduced = extended.m - 1
    f = base_sds.at
    num_vars = reduced * len(extras)
    forms: Dict[Profile, AffineLottery] = {}
    for e, extra in enumerate(extras):
        own = range(e * reduced, (e + 1) * reduced)
        forms[extra] = tuple((0, ((v, 1),)) for v in own) + ((1, tuple((v, -1) for v in own)),)
    rows: List[Tuple[Tuple[int, ...], Fraction, frozenset]] = []

    def add(built, tag):
        for x, coeffs, rhs in built:
            rows.append((coeffs, rhs, frozenset([tag(x)])))

    for extra in extras:
        here = forms[extra]
        name = repr(extra.to_text())
        add(
            nonnegative_rows(here, num_vars),
            lambda x: f"lottery at {name} nonnegative on {alternative_name(x)}",
        )
        for voter in range(n):
            for neighbor in extended.unilateral_deviations(extra, voter):
                there = forms.get(neighbor) or constant_form(f(neighbor))
                # truth at the extra profile: its lottery must dominate the deviation
                add(
                    sd_rows(extra[voter], here, there, num_vars),
                    lambda x: f"voter {voter} gains by leaving {name} "
                    f"(cut at {alternative_name(x)})",
                )
                # truth at the neighbor: deviating into the extra must not pay
                add(
                    sd_rows(neighbor[voter], there, here, num_vars),
                    lambda x: f"voter {voter} gains by deviating into {name} "
                    f"(cut at {alternative_name(x)})",
                )
    return rows, num_vars


def _point_from_reduced(point: Sequence[Fraction], extras: Sequence[Profile]):
    m = extras[0].m
    reduced = m - 1
    assignment = {}
    for e, extra in enumerate(extras):
        head = list(point[e * reduced : (e + 1) * reduced])
        head.append(1 - sum(head, Fraction(0)))
        assignment[extra] = Lottery(head)
    return assignment


def verify_extension_witness(
    base_sds, base: Domain, extras: Sequence[Profile], assignment: Mapping[Profile, Lottery]
) -> bool:
    """Whether the base scheme, extended by ``assignment`` at the extras, is
    strategyproof on the extended domain.

    The check is :func:`check_strategyproof` on the table of the base
    scheme's lotteries at the base members and the assigned ones at the
    extras, so it shares no code with the solver whose witnesses it checks.
    """
    extended = ExtendedDomain(base, extras)
    table = {profile: base_sds.at(profile) for profile in base.members()}
    table.update((extra, assignment[extra]) for extra in extended.extras)
    return check_strategyproof(TableSDS(table, extended, "extended"), extended).holds


def _solve_extension(rows, num_vars: int, extras, forced: Mapping[Profile, Lottery]):
    """Solve the extension model ``rows`` with the ``forced`` lotteries pinned."""
    pinned = []
    reduced = extras[0].m - 1
    for extra, lot in forced.items():
        e = extras.index(extra)
        for x in range(reduced):
            unit = [Fraction(0)] * num_vars
            unit[e * reduced + x] = Fraction(1)
            tag = f"pinned lottery at {extra.to_text()!r}"
            pinned.append((tuple(unit), lot.probs[x], frozenset([tag])))
            pinned.append((tuple(-u for u in unit), -lot.probs[x], frozenset([tag])))
    ok, point, conflict = fm_feasible(rows + pinned, num_vars)
    if not ok:
        return None, conflict
    return _point_from_reduced(point, extras), None


def extension_feasibility(
    base_sds,
    base: Domain,
    extras: Sequence[Profile],
    require_non_imposition: bool = False,
) -> FeasibilityResult:
    """Can lotteries be chosen at the extra profiles so that the base scheme,
    so extended, is strategyproof on the extended domain?

    Strategyproofness on the extended domain is strategyproofness on the
    base plus the stochastic-dominance inequalities, in both deviation
    directions, between each extra profile and its unilateral neighbors
    inside the extended domain, extras included. :func:`check_strategyproof`
    decides the base, once: a manipulable base is infeasible, and the one
    conflict names its manipulation. The inequalities are the model's rows,
    so when the base scheme happens to be defined at the extras and its own
    lotteries satisfy every row, those are the witness; otherwise
    Fourier-Motzkin elimination solves the rows.
    """
    extended = ExtendedDomain(base, extras)  # validates shapes and disjointness
    extras = extended.extras  # distinct, in code order
    if not extras:
        raise ValueError("no extra profiles to extend to")
    candidate: Optional[Mapping[Profile, Lottery]] = None
    try:
        candidate = {extra: base_sds.evaluate(extra) for extra in extras}
    except (OutOfDomainError, TableMissError):
        pass
    found = check_strategyproof(base_sds, base).witness
    if found is not None:
        tag = (
            f"base scheme is manipulable: voter {found.voter} gains by leaving "
            f"{found.profile.to_text()!r} (cut at {alternative_name(found.cut)})"
        )
        return FeasibilityResult(False, None, (tag,))

    uncovered: List[int] = []
    if require_non_imposition:
        covered = {base_sds.at(profile).is_point() for profile in base.members()}
        uncovered = [x for x in range(base.m) if x not in covered]
        if len(uncovered) > len(extras):
            return FeasibilityResult(
                False,
                None,
                tuple(
                    f"alternative {alternative_name(x)} can never reach probability 1"
                    for x in uncovered
                ),
            )

    rows, num_vars = _extension_rows(base_sds, extended)
    if (
        candidate is not None
        and all(any(candidate[e].is_point() == x for e in extras) for x in uncovered)
        and satisfies(rows, [p for e in extras for p in candidate[e].probs[:-1]])
    ):
        return FeasibilityResult(True, candidate, None)

    # There is at least one pinning: with nothing uncovered, the one empty
    # pinning is the unpinned solve, and a failure keeps the last conflict.
    for chosen in itertools.permutations(extras, len(uncovered)):
        forced = {
            extra: Lottery.point(x, base.m) for x, extra in zip(uncovered, chosen)
        }
        assignment, conflict = _solve_extension(rows, num_vars, extras, forced)
        if assignment is not None:
            return FeasibilityResult(True, assignment, None)
    return FeasibilityResult(False, None, tuple(sorted(conflict)))

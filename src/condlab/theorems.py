"""Batteries of checks for the main structural claims about majority-winner
schemes.

Each criterion function runs one self-contained experiment and returns a
plain dict with keys ``criterion`` (int), ``title`` (str), ``ok`` (bool) and
``details`` (JSON-friendly dict).  ``run_battery`` groups them the way the
command line exposes them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import (
    extension_feasibility,
    max_dictatorial_weight,
    probe_coefficients,
    verify_mixture,
    MixtureCoefficients,
)
from .axioms import (
    check_ex_post_efficient,
    check_group_strategyproof,
    check_non_imposition,
    check_strategyproof,
    implication_suite,
    replay_witness,
)
from .core import CapExceededError, PreferenceRelation, Profile, enumeration_cap, full_profile_count
from .domains import (
    CondorcetDomain,
    ExtendedDomain,
    FullDomain,
    TieBreakingCondorcetDomain,
    find_profiles_beyond_unilateral_reach,
    is_connected,
    is_weakly_connected,
    majority_cycle_profile,
    parse_tiebreaker,
)
from .adpath import build_adpath, validate_adpath
from .lottery import Lottery, NegativeProbabilityError
from .sds import (
    Borda,
    CondorcetRule,
    Dictatorship,
    Mixture,
    Plurality,
    RandomDictatorship,
    SignedMixture,
    TableSDS,
    TieBreakingCondorcetRule,
    signed_mixture_counterexample,
)

# -- building blocks ----------------------------------------------------------


def default_tiebreakers(m: int) -> Tuple[str, str]:
    """The alphabetical order over ``m`` alternatives and its reverse."""
    forward = PreferenceRelation(range(m))
    return forward.to_text(), PreferenceRelation(reversed(forward.order)).to_text()


def coefficient_grid(n: int, step: Fraction = Fraction(1, 4)) -> List[MixtureCoefficients]:
    """All mixture coefficient vectors (majority weight plus one weight per
    voter) whose entries are multiples of ``step`` and sum to one, in
    lexicographic order. The enumeration cap bounds their number before any
    is built."""
    if step <= 0 or (Fraction(1) / step).denominator != 1:
        raise ValueError("step must evenly divide 1")
    levels = int(Fraction(1) / step)
    count, cap = comb(levels + n, n), enumeration_cap()
    if count > cap:
        raise CapExceededError(
            f"a coefficient grid for {n} voters at step {step} has {count} points, cap is {cap}"
        )
    out: List[MixtureCoefficients] = []
    # stars and bars: n bars among levels + n slots split the levels into n + 1 parts
    for bars in itertools.combinations(range(levels + n), n):
        edges = (-1,) + bars + (levels + n,)
        weights = [step * (hi - lo - 1) for lo, hi in zip(edges, edges[1:])]
        out.append(MixtureCoefficients(weights[0], tuple(weights[1:])))
    return out


def mixture_sds(coeffs: MixtureCoefficients, reference):
    """The scheme of mixture coefficients over the voters and alternatives of
    ``reference``, the majority part: a :class:`Mixture` of ``reference`` and
    each voter's dictatorship at their nonzero weights, or a
    :class:`SignedMixture` when some weight is negative."""
    n, m = reference.n, reference.m
    if len(coeffs.voter_weights) != n:
        raise ValueError(f"expected {n} voter weights, got {len(coeffs.voter_weights)}")
    parts = [(coeffs.condorcet_weight, reference)]
    parts += [(w, Dictatorship(i, n, m)) for i, w in enumerate(coeffs.voter_weights)]
    kind = Mixture if coeffs.nonnegative else SignedMixture
    return kind([(w, part) for w, part in parts if w != 0])


def perturbed_condorcet_table(n: int, m: int) -> TableSDS:
    """The majority-winner rule as an explicit table, with one entry replaced
    by a point lottery on a non-winner.  Useful as a scheme that is neither
    strategyproof nor a mixture."""
    rule = CondorcetRule(n, m)
    dom = rule.valid_domain
    mapping = {profile: rule.evaluate(profile) for profile in dom.members()}
    flaw = Profile(
        [PreferenceRelation(range(m))] * (n - 1)
        + [PreferenceRelation((1, 0) + tuple(range(2, m)))]
    )
    mapping[flaw] = Lottery.point(1, m)
    return TableSDS(mapping, valid_domain=dom, name="cond-perturbed")


def catalog(n: int, m: int) -> List[Tuple[str, object]]:
    """A spread of schemes on the majority-winner domain: the rule itself,
    dictatorships, random dictatorships, two positional rules and a
    deliberately broken table. The skewed random dictatorship weighs three
    voters, so ``n`` must be at least 3."""
    if n < 3:
        raise ValueError(f"the scheme catalog needs at least 3 voters, got {n}")
    uniform = [Fraction(1, n)] * n
    lopsided = [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (n - 2)
    skewed = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)] + [Fraction(0)] * (n - 3)
    entries: List[Tuple[str, object]] = [("cond", CondorcetRule(n, m))]
    entries += [(f"dict:{i}", Dictatorship(i, n, m)) for i in range(n)]
    entries += [
        ("rd-uniform", RandomDictatorship(uniform, m)),
        ("rd-lopsided", RandomDictatorship(lopsided, m)),
        ("rd-skewed", RandomDictatorship(skewed, m)),
        ("plurality", Plurality(n, m)),
        ("borda", Borda(n, m)),
        ("cond-perturbed", perturbed_condorcet_table(n, m)),
    ]
    return entries


# -- the whole-electorate manipulation pattern --------------------------------


def proof_pattern_profile(voter: int, n: int) -> Tuple[Profile, Profile]:
    """The canonical group-manipulation instance for three alternatives: one
    voter ranks (c, a, b), everyone else (b, a, c), and the whole electorate
    misreports the unanimous order (a, b, c).

    Returns the truthful profile and the misreported one.
    """
    lone = PreferenceRelation((2, 0, 1))
    rest = PreferenceRelation((1, 0, 2))
    truth = Profile([lone if i == voter else rest for i in range(n)])
    lie = Profile([PreferenceRelation((0, 1, 2))] * n)
    return truth, lie


def matches_proof_pattern(witness: Dict) -> bool:
    """Whether a group-manipulation witness (in JSON form) is the
    whole-electorate pattern above, around some voter, under one of the six
    relabelings of the three alternatives. With fewer than three voters the
    lone voter and the rest are no pattern, so the answer is False."""
    coalition = witness.get("coalition")
    profile_text = witness.get("profile")
    deviation_text = witness.get("deviation")
    if coalition is None or profile_text is None or deviation_text is None:
        return False
    seen = [
        [rel.order for rel in Profile.from_text(text).relations]
        for text in (profile_text, deviation_text)
    ]
    n = len(seen[0])
    if n < 3 or len(seen[0][0]) != 3 or tuple(coalition) != tuple(range(n)):
        return False
    return any(
        seen == [[tuple(label[x] for x in rel.order) for rel in p.relations] for p in pattern]
        for pattern in (proof_pattern_profile(voter, n) for voter in range(n))
        for label in itertools.permutations(range(3))
    )


def pattern_is_group_violation(sds, voter: int, n: int) -> bool:
    """Replay the whole-electorate pattern built around ``voter`` as a group
    manipulation of ``sds`` on the scheme's own domain: no member weakly
    prefers the honest outcome to the jointly misreported one, so nobody
    blocks the deviation."""
    truth, lie = proof_pattern_profile(voter, n)
    witness = {"profile": truth.to_text(), "coalition": list(range(n)), "deviation": lie.to_text()}
    verdict = {"axiom": "group-strategyproof", "witness": witness}
    return replay_witness(sds, sds.valid_domain, verdict)


# -- criteria -----------------------------------------------------------------


def _result(criterion: int, title: str, ok: bool, details: Dict) -> Dict:
    return {"criterion": criterion, "title": title, "ok": bool(ok), "details": details}


def criterion_1(n: int = 3, m: int = 3, step: Fraction = Fraction(1, 4)) -> Dict:
    """Every nonnegative grid mixture of the majority rule and dictatorships
    is strategyproof, non-imposing and ex-post efficient on the majority
    domain."""
    rule = CondorcetRule(n, m)
    dom = rule.valid_domain
    failures: List[str] = []
    grid = coefficient_grid(n, step)
    for coeffs in grid:
        sds = mixture_sds(coeffs, rule)
        for verdict in (
            check_strategyproof(sds, dom),
            check_non_imposition(sds, dom),
            check_ex_post_efficient(sds, dom),
        ):
            if not verdict.holds:
                failures.append(f"{coeffs.to_json_dict()} fails {verdict.axiom}")
    details = {
        "mixtures": len(grid),
        "domain_size": len(dom.members()),
        "failures": failures,
    }
    return _result(1, "grid mixtures satisfy the axioms", not failures, details)


def criterion_2(n: int = 3, m: int = 3) -> Dict:
    """On the majority domain, strategyproofness plus non-imposition holds
    exactly when the probed coefficients are nonnegative and reproduce the
    scheme."""
    schemes = catalog(n, m)
    reference = dict(schemes)["cond"]
    dom = reference.valid_domain
    per_scheme: Dict[str, Dict] = {}
    ok = True
    for name, sds in schemes:
        axioms_hold = (
            check_strategyproof(sds, dom).holds
            and check_non_imposition(sds, dom).holds
        )
        coeffs = probe_coefficients(sds, anchor=0)
        mixture_holds = (
            coeffs.nonnegative
            and verify_mixture(sds, dom, coeffs, reference).holds
        )
        per_scheme[name] = {
            "axioms": axioms_hold,
            "mixture": mixture_holds,
            "coefficients": coeffs.to_json_dict(),
        }
        if axioms_hold != mixture_holds:
            ok = False
    return _result(
        2,
        "axioms equivalent to a nonnegative mixture representation",
        ok,
        {"schemes": per_scheme},
    )


def criterion_3() -> Dict:
    """The even-electorate signed mixture is a well-defined strategyproof and
    non-imposing scheme whose probed majority weight is negative; it runs at
    four voters and three alternatives, the size its counterexample is
    stated for."""
    n, m = 4, 3
    sds = signed_mixture_counterexample(n)
    dom, rule = sds.valid_domain, sds.parts[-1][1]  # the last part is the majority rule
    negatives: List[str] = []
    for profile in dom.members():
        try:
            sds.at(profile)
        except NegativeProbabilityError:
            negatives.append(profile.to_text())
    sp = check_strategyproof(sds, dom)
    ni = check_non_imposition(sds, dom)
    expected = MixtureCoefficients(
        Fraction(-1, n - 1), tuple([Fraction(1, n - 1)] * n)
    )
    probes = {anchor: probe_coefficients(sds, anchor) for anchor in range(m)}
    probes_ok = all(c == expected for c in probes.values())
    mixture = verify_mixture(sds, dom, expected, rule)
    ok = not negatives and sp.holds and ni.holds and probes_ok and mixture.holds
    details = {
        "profiles": len(dom.members()),
        "negative_entries": negatives,
        "strategyproof": sp.holds,
        "non_imposing": ni.holds,
        "expected_coefficients": expected.to_json_dict(),
        "probes_match": probes_ok,
        "mixture_verified": mixture.holds,
    }
    return _result(3, "signed mixture on an even electorate", ok, details)


def criterion_4(
    n: int = 4,
    m: int = 3,
    tiebreakers: Optional[Sequence[str]] = None,
    step: Fraction = Fraction(1, 4),
) -> Dict:
    """Grid mixtures of the tie-breaking majority rule and dictatorships are
    strategyproof and non-imposing on the tie-breaking domain, and probing
    recovers the exact coefficients at every anchor. The tie-breakers default
    to :func:`default_tiebreakers`; all are parsed before the first scan, and
    an order given twice, in any spelling, is refused."""
    texts = tiebreakers or default_tiebreakers(m)
    orders = [parse_tiebreaker(text, m) for text in texts]
    for i, order in enumerate(orders):
        if order in orders[:i]:
            raise ValueError(f"tie-breaker {texts[i]!r} repeats {texts[orders.index(order)]!r}")
    per_tb: Dict[str, Dict] = {}
    ok = True
    for tb_text, tiebreaker in zip(texts, orders):
        reference = TieBreakingCondorcetRule(tiebreaker, n)
        dom = reference.valid_domain
        failures: List[str] = []
        grid = coefficient_grid(n, step)
        for coeffs in grid:
            sds = mixture_sds(coeffs, reference)
            sp = check_strategyproof(sds, dom)
            ni = check_non_imposition(sds, dom)
            if not (sp.holds and ni.holds):
                failures.append(f"{coeffs.to_json_dict()} fails axioms")
                continue
            recovered = {probe_coefficients(sds, anchor) for anchor in range(m)}
            if recovered != {coeffs}:
                failures.append(f"{coeffs.to_json_dict()} probes do not match")
        per_tb[tb_text] = {"mixtures": len(grid), "failures": failures}
        if failures:
            ok = False
    return _result(4, "tie-breaking grid mixtures probe exactly", ok, {"tiebreakers": per_tb})


def criterion_5(n: int = 3, m: int = 3, step: Fraction = Fraction(1, 4)) -> Dict:
    """Extending schemes from the majority domain to one extra cyclic profile:
    the majority rule cannot be extended, random dictatorships can, and
    feasibility of a grid mixture is decided by its majority weight."""
    cond = CondorcetRule(n, m)
    dom = cond.valid_domain
    cycle = majority_cycle_profile(n, m)

    cond_res = extension_feasibility(cond, dom, [cycle])

    uniform = RandomDictatorship([Fraction(1, n)] * n, m)
    rd_res = extension_feasibility(uniform, dom, [cycle])
    rd_witness_uniform = (
        rd_res.feasible
        and rd_res.witness is not None
        and rd_res.witness[cycle] == uniform.evaluate(cycle)
    )

    mismatches: List[str] = []
    for coeffs in coefficient_grid(n, step):
        sds = mixture_sds(coeffs, cond)
        res = extension_feasibility(sds, dom, [cycle])
        expected = coeffs.condorcet_weight == 0
        if res.feasible != expected:
            mismatches.append(
                f"{coeffs.to_json_dict()}: feasible={res.feasible}, expected={expected}"
            )
    ok = (not cond_res.feasible) and rd_witness_uniform and not mismatches
    details = {
        "cycle_profile": cycle.to_text(),
        "cond_feasible": cond_res.feasible,
        "rd_feasible": rd_res.feasible,
        "rd_witness_uniform": rd_witness_uniform,
        "grid_mismatches": mismatches,
    }
    return _result(5, "extension to a cyclic profile", ok, details)


def criterion_6(n: int = 3, m: int = 3) -> Dict:
    """Exhibit a profile at unilateral distance at least two from the majority
    domain on the smallest odd electorate."""
    dom = CondorcetDomain(n, m)
    found = find_profiles_beyond_unilateral_reach(dom)
    ok = bool(found)
    details = {
        "searched": full_profile_count(n, m),  # the search enumerated every one
        "found": len(found),
        "profiles": [p.to_text() for p in found[:5]],
    }
    if not found:
        details["analysis"] = (
            f"exhaustive search over all {details['searched']} profiles of {n} voters "
            f"on {m} alternatives finds none: every profile without a majority winner "
            "acquires one when a single voter changes their ranking, so no profile is "
            "two or more unilateral steps away from the domain at this size (the "
            "phenomenon needs a larger electorate, for example nine voters)"
        )
    return _result(6, "profile beyond unilateral reach", ok, details)


def criterion_7(ns: Sequence[int] = (3, 4), step: Fraction = Fraction(1, 4)) -> Dict:
    """Group strategyproofness separates the pure schemes from proper
    mixtures, and the canonical witness is claimed to be the whole-electorate
    pattern, which is stated over three alternatives, so the criterion runs
    at three."""
    m = 3
    pure_failures: List[str] = []
    mixture_passes: List[str] = []
    pattern_mismatches: List[Dict] = []
    pattern_checked = 0
    pattern_control_failures: List[str] = []
    for n in ns:
        rule = CondorcetRule(n, m)
        dom = rule.valid_domain
        pure = [("cond", rule)]
        pure += [(f"dict:{i}", Dictatorship(i, n, m)) for i in range(n)]
        for name, sds in pure:
            verdict = check_group_strategyproof(sds, dom)
            if not verdict.holds:
                pure_failures.append(f"n={n} {name}")
        for coeffs in coefficient_grid(n, step):
            positive = [w for w in [coeffs.condorcet_weight, *coeffs.voter_weights] if w > 0]
            if len(positive) < 2:
                continue
            sds = mixture_sds(coeffs, rule)
            verdict = check_group_strategyproof(sds, dom)
            if verdict.holds:
                mixture_passes.append(f"n={n} {coeffs.to_json_dict()}")
                continue
            # two positive weights leave every one below 1
            voter = next(i for i, w in enumerate(coeffs.voter_weights) if 0 < w < 1)
            pattern_checked += 1
            if not matches_proof_pattern(verdict.witness.to_json_dict()):
                pattern_mismatches.append(
                    {
                        "n": n,
                        "coefficients": coeffs.to_json_dict(),
                        "witness": verdict.witness.to_json_dict(),
                    }
                )
            if not pattern_is_group_violation(sds, voter, n):
                pattern_control_failures.append(f"n={n} {coeffs.to_json_dict()}")
    ok = (
        not pure_failures
        and not mixture_passes
        and not pattern_mismatches
        and not pattern_control_failures
    )
    details = {
        "pure_failures": pure_failures,
        "mixture_passes": mixture_passes,
        "pattern_instances_checked": pattern_checked,
        "pattern_mismatches": pattern_mismatches[:3],
        "pattern_mismatch_count": len(pattern_mismatches),
        "pattern_is_violation_everywhere": not pattern_control_failures,
    }
    if pattern_mismatches and not pattern_control_failures:
        details["analysis"] = (
            "the whole-electorate pattern is a genuine group manipulation "
            "for every checked mixture, but it is never the first violation "
            "in (profile, coalition size, coalition, deviation) order: "
            "smaller coalitions at lexicographically earlier profiles "
            "always come first, so the canonical witness is a proper "
            "sub-coalition rather than the whole electorate"
        )
    return _result(
        7, "group strategyproofness separates mixtures", ok, details
    )


def criterion_8(n: int = 3, m: int = 3) -> Dict:
    """On the majority domain extended by the cyclic profile, no assignment of
    a lottery to the cycle keeps the extended majority rule group
    strategyproof, while dictatorships remain group strategyproof.

    The claim about every lottery is proved, not sampled. A coalition of one
    voter is a group-strategyproofness test, and its test is the
    strategyproofness test: the voter's truthful ranking must not SD-prefer
    the deviation's lottery. :func:`extension_feasibility` proves the base
    strategyproof and then finds no lottery at the cycle that keeps the
    extended rule strategyproof; its Fourier-Motzkin conflict names the rows
    that cannot hold together. So at every lottery some single voter
    manipulates, and group strategyproofness fails with it.
    """
    rule = CondorcetRule(n, m)
    base = rule.valid_domain
    cycle = majority_cycle_profile(n, m)
    dom = ExtendedDomain(base, [cycle])
    certificate = extension_feasibility(rule, base, [cycle])

    dictator_failures: List[str] = []
    for i in range(n):
        verdict = check_group_strategyproof(Dictatorship(i, n, m), dom)
        if not verdict.holds:
            dictator_failures.append(f"dict:{i}")

    ok = not certificate.feasible and not dictator_failures
    details = {
        "extension_profile": cycle.to_text(),
        "conflict": list(certificate.conflict or ()),
        "dictator_failures": dictator_failures,
    }
    return _result(8, "no group-strategyproof extension of the majority rule", ok, details)


def _paths_valid(dom: CondorcetDomain, pairs) -> bool:
    """Whether the built swap path between each (start, goal) pair validates."""
    return all(validate_adpath(dom, build_adpath(dom, start, goal)).holds for start, goal in pairs)


def criterion_9() -> Dict:
    """Connectivity of the majority domains and validity of the constructed
    swap paths: every n=3 pair, and 500 pairs of the ``n5_pairs`` n=5 pairs
    drawn from a generator seeded with 0, start before goal."""
    samples = 500
    dom3, dom5 = CondorcetDomain(3, 3), CondorcetDomain(5, 3)
    checks: Dict[str, bool] = {}
    checks["condorcet_n3_connected"] = is_connected(dom3)
    checks["condorcet_n5_connected"] = is_connected(dom5)
    checks["condorcet_n4_not_weakly_connected"] = not is_weakly_connected(
        CondorcetDomain(4, 3)
    )
    for tb_text in default_tiebreakers(3):
        checks[f"tb_n4_connected[{tb_text}]"] = is_connected(
            TieBreakingCondorcetDomain(parse_tiebreaker(tb_text, 3), 4)
        )

    members3 = dom3.members()
    checks["all_pairs_n3_valid"] = _paths_valid(dom3, itertools.product(members3, repeat=2))

    members5 = dom5.members()
    rng = random.Random(0)
    sampled = (
        (members5[rng.randrange(len(members5))], members5[rng.randrange(len(members5))])
        for _ in range(samples)
    )
    checks["sampled_n5_valid"] = _paths_valid(dom5, sampled)

    ok = all(checks.values())
    details = {
        "checks": checks,
        "n3_pairs": len(members3) ** 2,
        "n5_samples": samples,
        "n5_pairs": len(members5) ** 2,
    }
    return _result(9, "connectivity and constructed paths", ok, details)


def criterion_10() -> Dict:
    """On the full domain of three voters over three alternatives,
    strategyproofness coincides with localized plus non-perverse for every
    catalog scheme defined on every profile."""
    dom = FullDomain(3, 3)
    per_scheme: Dict[str, Dict] = {}
    discrepancies: List[str] = []
    for name, sds in catalog(3, 3):
        if not isinstance(sds.valid_domain, FullDomain):
            continue
        report = implication_suite(sds, dom)
        per_scheme[name] = {
            "strategyproof": report.strategyproof.holds,
            "localized": report.localized.holds,
            "non_perverse": report.non_perverse.holds,
            "consistent": report.consistent,
        }
        if not report.consistent:
            discrepancies.append(name)
    ok = not discrepancies
    return _result(
        10,
        "strategyproofness equals localized plus non-perverse",
        ok,
        {"schemes": per_scheme, "discrepancies": discrepancies},
    )


def criterion_11() -> Dict:
    """On the majority domain of three voters over three alternatives, the
    maximum total dictatorial weight is zero for the majority rule, one for
    random dictatorships, and matches the mixing weight for
    majority-dictatorship blends."""
    schemes = dict(catalog(3, 3))
    dom = schemes["cond"].valid_domain
    cases: List[Tuple[str, object, Fraction]] = [
        (name, schemes[name], Fraction(expected))
        for name, expected in (("cond", 0), ("rd-uniform", 1), ("rd-skewed", 1))
    ]
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        blend = Mixture([(lam, schemes["rd-uniform"]), (1 - lam, schemes["cond"])])
        cases.append((f"blend:{lam}", blend, lam))
    wrong: List[str] = []
    values: Dict[str, str] = {}
    for name, sds, expected in cases:
        value = max_dictatorial_weight(sds, dom)
        values[name] = str(value)
        if value != expected:
            wrong.append(f"{name}: got {value}, expected {expected}")
    details = {"values": values, "mismatches": wrong}
    return _result(11, "maximum dictatorial weight", not wrong, details)


# -- batteries ----------------------------------------------------------------

# which -> (parity of n, default n, least n, least m). Fewer voters break the
# scheme catalog and majority cycle (1, 3) or put a probe profile outside the
# tie-breaking domain (2); fewer alternatives break the probes and the cycle.
_BATTERY_SIZES = {1: ("odd", 3, 3, 3), 2: ("even", 4, 4, 3), 3: ("odd", 3, 3, 3)}


def run_battery(
    which: int,
    n: Optional[int] = None,
    m: int = 3,
    tiebreakers: Optional[Sequence[str]] = None,
    step: Fraction = Fraction(1, 4),
) -> List[Dict]:
    """Run one of the three check batteries and return the criterion results.

    Battery 1 covers the mixture characterization on odd electorates (plus
    the signed mixture, whose counterexample is fixed at n=4, m=3), battery
    2 the tie-breaking variant on even electorates (tie-breakers default to
    :func:`default_tiebreakers` of ``m``), battery 3 the
    group-strategyproofness separation (criterion 7 at three alternatives,
    criterion 8 at ``m``). A size outside the battery's rules in
    ``_BATTERY_SIZES``, or tie-breakers given to battery 1 or 3, are refused
    before any criterion runs.
    """
    if which not in _BATTERY_SIZES:
        raise ValueError(f"unknown battery {which}, expected 1, 2 or 3")
    if tiebreakers is not None and which != 2:
        raise ValueError(f"battery {which} takes no tie-breakers")
    parity, default_n, least_n, least_m = _BATTERY_SIZES[which]
    n = default_n if n is None else n
    if (n % 2 == 1) != (parity == "odd"):
        raise ValueError(f"battery {which} needs an {parity} number of voters")
    if n < least_n:
        raise ValueError(f"battery {which} needs at least {least_n} voters, got {n}")
    if m < least_m:
        raise ValueError(f"battery {which} needs at least {least_m} alternatives, got {m}")
    if which == 1:
        return [criterion_1(n, m, step), criterion_2(n, m), criterion_3(), criterion_5(n, m, step)]
    if which == 2:
        return [criterion_4(n, m, tiebreakers or default_tiebreakers(m), step)]
    return [criterion_7((n,), step), criterion_8(n, m)]

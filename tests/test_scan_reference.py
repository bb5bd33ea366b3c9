"""Whole-scan differential test.

The strategyproofness scan and the dictatorial-weight model run on integer
lotteries and a per-domain neighbour table. Frozen copies of the Fraction
versions they replaced, with their own deviation walk, are kept here as the
reference: on random and named schemes both must give the same verdict JSON
(witness, ``profiles_checked``, ``comparisons``) and the same weight, or the
same error type and text when evaluation or the model fails mid-scan.

The localizedness and non-perversity checkers share one adjacent-swap scan,
and non-imposition reads the set of sure winners that the extension model
reads too; frozen copies of their former separate loops are the reference
for those.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.analysis import InfeasibleModelError, max_dictatorial_weight
from condlab.axioms import (
    ImpositionWitness,
    ManipulationWitness,
    SwapEffectWitness,
    Verdict,
    check_localized,
    check_non_imposition,
    check_non_perverse,
    check_strategyproof,
)
from condlab.core import PreferenceRelation, all_relations
from condlab.domains import CondorcetDomain, ExtendedDomain, FullDomain, TieBreakingCondorcetDomain
from condlab.domains import majority_cycle_profile
from condlab.lottery import Lottery
from condlab.ratlp import simplex_maximize
from condlab.sds import (
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
from condlab.theorems import perturbed_condorcet_table

F = Fraction

# -- frozen Fraction reference ---------------------------------------------------


def reference_deviations(dom, profile, voter):
    """Every other relation for ``voter`` in lexicographic order, kept when in ``dom``."""
    for rel in all_relations(dom.m):
        if rel != profile[voter]:
            candidate = profile.replace(voter, rel)
            if dom.contains(candidate):
                yield candidate


def reference_first_failing_cut(pref, p, q):
    """The first cut where ``p`` puts less Fraction mass than ``q``, or None."""
    mass_p = mass_q = F(0)
    for x in pref.order:
        mass_p += p.probs[x]
        mass_q += q.probs[x]
        if mass_p < mass_q:
            return x
    return None


def reference_evaluator(sds):
    cache = {}

    def f(profile):
        if profile not in cache:
            cache[profile] = sds.evaluate(profile)
        return cache[profile]

    return f


def reference_check_strategyproof(sds, dom):
    members = dom.members()
    f = reference_evaluator(sds)
    comparisons = 0
    for index, profile in enumerate(members):
        truthful = f(profile)
        for voter in range(dom.n):
            for deviation in reference_deviations(dom, profile, voter):
                cut = reference_first_failing_cut(profile[voter], truthful, f(deviation))
                comparisons += 1
                if cut is not None:
                    witness = ManipulationWitness(
                        profile, voter, deviation, cut, truthful, f(deviation)
                    )
                    return Verdict("strategyproof", False, witness, index + 1, comparisons)
    return Verdict("strategyproof", True, None, len(members), comparisons)


def sd_rows(pref, p, q, width):
    """Rows ``(cut, coeffs, rhs)`` saying that ``p`` weakly SD-dominates ``q``.

    ``p`` and ``q`` are affine lotteries: per alternative, a constant and
    integer multiples of the variables, ``(const, ((var, coef), ...))``. The
    row ``coeffs . v <= rhs`` over ``width`` variables reads ``p(U) >= q(U)``
    at each proper upper contour set ``U`` of ``pref``, top-down. A frozen
    copy of the general builder the package once shared.
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


def nonnegative_rows(p, width):
    """Rows ``(x, coeffs, rhs)`` saying ``p(x) >= 0`` for an affine lottery ``p``."""
    for x, (const, terms) in enumerate(p):
        coeffs = [0] * width
        for var, c in terms:
            coeffs[var] -= c
        yield x, tuple(coeffs), const


def reference_max_dictatorial_weight(sds, dom):
    members = dom.members()
    n, m = dom.n, dom.m
    f = reference_evaluator(sds)
    rows = {}

    def residual(profile):
        lot = f(profile)
        return tuple(
            (lot.probs[x], tuple((v, -1) for v in range(n) if profile[v].top() == x))
            for x in range(m)
        )

    def add_row(coeffs, rhs):
        if any(coeffs) and (coeffs not in rows or rhs < rows[coeffs]):
            rows[coeffs] = rhs

    for profile in members:
        truth = residual(profile)
        for _, coeffs, rhs in nonnegative_rows(truth, n):
            add_row(coeffs, rhs)
        for voter in range(n):
            for deviation in reference_deviations(dom, profile, voter):
                for _, coeffs, rhs in sd_rows(profile[voter], truth, residual(deviation), n):
                    if rhs < 0:
                        raise InfeasibleModelError(
                            f"scheme is manipulable at {profile!r} by voter {voter}"
                        )
                    add_row(coeffs, rhs)
    if not rows:
        return F(1)
    value, _ = simplex_maximize([F(1)] * n, list(rows.items()))
    return value


def reference_check_localized(sds, dom):
    members = dom.members()
    f = reference_evaluator(sds)
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


def reference_check_non_perverse(sds, dom):
    members = dom.members()
    f = reference_evaluator(sds)
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


def reference_check_non_imposition(sds, dom):
    members = dom.members()
    f = reference_evaluator(sds)
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


SWAP_SCANS = (
    (check_localized, reference_check_localized),
    (check_non_perverse, reference_check_non_perverse),
    (check_non_imposition, reference_check_non_imposition),
)


# -- random schemes ----------------------------------------------------------------

TIEBREAKER = PreferenceRelation((1, 0, 2))
CYCLE = majority_cycle_profile(3, 3)
# Shared instances, so later examples run on warm member lists and tables.
SMALL = (
    CondorcetDomain(2, 3),
    CondorcetDomain(2, 4),
    CondorcetDomain(3, 3),
    CondorcetDomain(4, 3),
    TieBreakingCondorcetDomain(TIEBREAKER, 4),
    ExtendedDomain(CondorcetDomain(3, 3), [CYCLE]),
)
# Too large for a full Fraction scan in a unit test: tables only, which are
# manipulable within the first few dozen profiles.
LARGE = CondorcetDomain(3, 4)


@st.composite
def lotteries(draw, m):
    den = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1)))
    return Lottery([F(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])])


def majority_rule(dom, draw):
    if isinstance(dom, TieBreakingCondorcetDomain):
        return TieBreakingCondorcetRule(TIEBREAKER, dom.n)
    if isinstance(dom, ExtendedDomain):
        rule = CondorcetRule(dom.n, dom.m)
        table = {p: rule.evaluate(p) for p in dom.base.members()}
        table[CYCLE] = draw(lotteries(dom.m))
        return TableSDS(table, valid_domain=dom, name="cond+cycle")
    return CondorcetRule(dom.n, dom.m)


def random_dictatorship(dom, draw):
    shares = draw(st.lists(st.integers(1, 5), min_size=dom.n, max_size=dom.n))
    return RandomDictatorship([F(k, sum(shares)) for k in shares], dom.m)


def blend(dom, draw):
    """A mixture of the domain's majority rule and a random dictatorship."""
    den = draw(st.integers(1, 6))
    alpha = F(draw(st.integers(0, den)), den)
    rd = random_dictatorship(dom, draw)
    return Mixture([(alpha, majority_rule(dom, draw)), (1 - alpha, rd)])


def signed(dom, draw):
    """An affine combination of the majority rule, a random dictatorship and a
    dictatorship with some weights negative; it may leave the simplex at any
    profile, which the scan meets as a NegativeProbabilityError."""
    den = draw(st.integers(1, 4))
    a, b = (F(draw(st.integers(-den, 2 * den)), den) for _ in range(2))
    parts = [
        (a, majority_rule(dom, draw)),
        (b, RandomDictatorship([F(1, dom.n)] * dom.n, dom.m)),
        (1 - a - b, Dictatorship(draw(st.integers(0, dom.n - 1)), dom.n, dom.m)),
    ]
    return SignedMixture(parts)


def tie_blend(dom, draw):
    """Plurality or Borda blended with a random dictatorship: the truthful and
    deviated lotteries have different denominators."""
    rule = draw(st.sampled_from((Plurality, Borda)))(dom.n, dom.m)
    alpha = F(draw(st.integers(0, 4)), 4)
    rd = random_dictatorship(dom, draw)
    return Mixture([(alpha, rule), (1 - alpha, rd)])


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(
        ("table", "blend", "perturbed", "signed", "ties", "missing")
    ))
    if kind == "table":
        dom = draw(st.sampled_from(SMALL + (LARGE,)))
        # random lotteries up front, then voter 0's worst alternative, which
        # voter 0 can improve on at once
        table = {p: Lottery.point(p[0].order[-1], dom.m) for p in dom.members()}
        table.update({p: draw(lotteries(dom.m)) for p in dom.members()[:40]})
        return TableSDS(table, valid_domain=dom), dom
    dom = draw(st.sampled_from(SMALL))
    if kind == "signed":
        return signed(dom, draw), dom
    if kind == "ties":
        return tie_blend(dom, draw), dom
    sds = blend(dom, draw)
    if kind in ("perturbed", "missing"):
        table = {p: sds.evaluate(p) for p in dom.members()}
        members = dom.members()
        chosen = members[draw(st.integers(0, len(members) - 1))]
        if kind == "missing":
            del table[chosen]
        else:
            table[chosen] = draw(lotteries(dom.m))
        sds = TableSDS(table, valid_domain=dom)
    return sds, dom


def outcome(scan, sds, dom):
    """The scan's verdict JSON or weight, or the type and text of its error.

    The reference model's error carries no witness, so the fast model's is
    checked here: it must be the manipulation the strategyproofness scan
    reports first, not merely one with the same profile and voter."""
    try:
        result = scan(sds, dom)
    except InfeasibleModelError as exc:
        if scan is max_dictatorial_weight:
            expected = check_strategyproof(sds, dom).witness
            assert exc.witness.to_json_dict() == expected.to_json_dict()
        return type(exc).__name__, str(exc)
    except (ValueError, LookupError) as exc:
        return type(exc).__name__, str(exc)
    return result.to_json_dict() if isinstance(result, Verdict) else str(result)


@settings(max_examples=100, deadline=None)
@given(schemes())
def test_scans_match_fraction_reference(case):
    sds, dom = case
    assert outcome(check_strategyproof, sds, dom) == outcome(
        reference_check_strategyproof, sds, dom
    )
    assert outcome(max_dictatorial_weight, sds, dom) == outcome(
        reference_max_dictatorial_weight, sds, dom
    )


def named_cases():
    cond3, dom3 = CondorcetRule(3, 3), CondorcetDomain(3, 3)
    cond4, dom4 = CondorcetRule(4, 3), CondorcetDomain(4, 3)
    rd3 = RandomDictatorship([F(1, 2), F(1, 3), F(1, 6)], 3)
    rd4 = RandomDictatorship([F(1, 10), F(1, 5), F(3, 10), F(2, 5)], 3)
    table = {p: cond3.evaluate(p) for p in dom3.members()}
    del table[dom3.members()[9]]
    full4 = FullDomain(4, 3)
    uniform4 = TableSDS({p: Lottery.uniform(3) for p in full4.members()}, valid_domain=full4)
    return {
        "even-n-blend": (Mixture([(F(1, 3), cond4), (F(2, 3), rd4)]), dom4),
        "even-n-signed": (signed_mixture_counterexample(4), dom4),
        # negative wherever voter 0's favourite is not the winner: met at the
        # first deviation of voter 0, in the middle of the first profile's walk
        "signed-mid-scan": (
            SignedMixture([(F(3, 2), cond3), (F(-1, 2), Dictatorship(0, 3, 3))]), dom3
        ),
        "plurality-blend": (Mixture([(F(1, 2), Plurality(3, 3)), (F(1, 2), rd3)]), dom3),
        "borda-blend": (Mixture([(F(1, 3), Borda(4, 3)), (F(2, 3), rd4)]), dom4),
        "table-missing-entry": (TableSDS(table, valid_domain=dom3), dom3),
        # voters 0, 2 and 3 carry no dictatorial weight and meet the same
        # entries; voters 0 and 3 meet each of voter 2's zero-bound entries
        # first, so a scan that folds an entry only for the voter who met it
        # first leaves voter 2 unbounded and reads 2/3 instead of 1/2
        "later-voter-shared-bound": (
            Mixture([(F(1, 2), uniform4), (F(1, 2), Dictatorship(1, 4, 3))]), full4
        ),
    }


@pytest.mark.parametrize("name", sorted(named_cases()))
def test_named_cases_match_fraction_reference(name):
    sds, dom = named_cases()[name]
    for scan, reference in (
        (check_strategyproof, reference_check_strategyproof),
        (max_dictatorial_weight, reference_max_dictatorial_weight),
    ):
        assert outcome(scan, sds, dom) == outcome(reference, sds, dom)


# -- the swap scan and non-imposition ------------------------------------------------

SWAP_DOMAINS = (FullDomain(2, 3), FullDomain(3, 3), CondorcetDomain(3, 3))


@st.composite
def swap_tables(draw):
    """A table on a small full or majority domain: a random dictatorship
    (localized, non-perverse and non-imposing) with a few entries replaced,
    or every entry drawn from a short list of lotteries."""
    dom = draw(st.sampled_from(SWAP_DOMAINS))
    members = dom.members()
    if draw(st.booleans()):
        rd = random_dictatorship(dom, draw)
        table = {p: rd.evaluate(p) for p in members}
        for index in draw(st.lists(st.integers(0, len(members) - 1), max_size=3)):
            table[members[index]] = draw(lotteries(dom.m))
    else:
        pool = draw(st.lists(lotteries(dom.m), min_size=1, max_size=4))
        table = {p: draw(st.sampled_from(pool)) for p in members}
    return TableSDS(table, valid_domain=dom), dom


@settings(max_examples=60, deadline=None)
@given(swap_tables())
def test_swap_scans_match_reference(case):
    sds, dom = case
    for scan, reference in SWAP_SCANS:
        assert outcome(scan, sds, dom) == outcome(reference, sds, dom)


def named_swap_cases():
    full, cond = FullDomain(3, 3), CondorcetDomain(3, 3)
    rd = RandomDictatorship([F(1, 2), F(1, 3), F(1, 6)], 3)
    return {
        "borda-full": (Borda(3, 3), full),
        "plurality-full": (Plurality(3, 3), full),
        "cond-condorcet": (CondorcetRule(3, 3), cond),
        "mix-condorcet": (Mixture([(F(1, 4), CondorcetRule(3, 3)), (F(3, 4), rd)]), cond),
        "cond-perturbed": (perturbed_condorcet_table(3, 3), cond),
    }


@pytest.mark.parametrize("name", sorted(named_swap_cases()))
def test_named_swap_cases_match_reference(name):
    sds, dom = named_swap_cases()[name]
    for scan, reference in SWAP_SCANS:
        assert outcome(scan, sds, dom) == outcome(reference, sds, dom)

from fractions import Fraction
from pathlib import Path

import pytest

from condlab import analysis
from condlab.analysis import (
    InfeasibleModelError,
    MixtureCoefficients,
    _extension_rows,
    extension_feasibility,
    max_dictatorial_weight,
    probe_coefficients,
    probe_profile,
    verify_extension_witness,
    verify_mixture,
)
from condlab.axioms import check_strategyproof
from condlab.core import PreferenceRelation, Profile, alternative_name, condorcet_winner, parse_profiles
from condlab.domains import (
    CondorcetDomain,
    CondorcetForDomain,
    ExtendedDomain,
    FullDomain,
    TieBreakingCondorcetDomain,
    majority_cycle_profile,
)
from condlab import core, lottery, sds
from condlab.lottery import Lottery, NegativeProbabilityError
from condlab.sds import (
    Borda,
    CondorcetRule,
    Dictatorship,
    Mixture,
    Plurality,
    RandomDictatorship,
    TableSDS,
    TieBreakingCondorcetRule,
    parse_sds,
    signed_mixture_counterexample,
)
from condlab.theorems import perturbed_condorcet_table

F = Fraction


def rel(text):
    return PreferenceRelation.from_text(text)


def prof(text):
    return Profile.from_text(text)


# -- coefficients ------------------------------------------------------------------


def test_coefficients_must_sum_to_one():
    with pytest.raises(ValueError):
        MixtureCoefficients(F(1, 2), (F(1, 2), F(1, 2), F(1, 2)))
    coeffs = MixtureCoefficients(F(1, 2), (F(1, 4), F(1, 4), F(0)))
    assert coeffs.nonnegative
    assert not MixtureCoefficients(F(-1, 3), (F(1, 3),) * 4).nonnegative


def test_coefficients_json_round_trip():
    coeffs = MixtureCoefficients(F(1, 4), (F(1, 2), F(1, 4), F(0)))
    data = coeffs.to_json_dict()
    assert data == {"gamma_C": "1/4", "gamma": ["1/2", "1/4", "0"]}
    assert MixtureCoefficients.from_json_dict(data) == coeffs


# -- probing -----------------------------------------------------------------------


def test_probe_profile_shape():
    p = probe_profile(3, 3, anchor=0, voter=1)
    assert p[1] == rel("c>a>b")
    assert p[0] == p[2] == rel("a>b>c")
    assert condorcet_winner(p) == 0


def test_probe_profile_larger_slate_appends_tail():
    p = probe_profile(3, 4, anchor=1, voter=0)
    # non-anchor alternatives in ascending order: a, c, d
    assert p[0] == rel("c>b>a>d")
    assert p[1] == p[2] == rel("b>a>c>d")


def test_probe_profile_validation():
    with pytest.raises(ValueError):
        probe_profile(3, 2, anchor=0, voter=0)
    with pytest.raises(ValueError):
        probe_profile(3, 3, anchor=3, voter=0)
    with pytest.raises(ValueError):
        probe_profile(3, 3, anchor=0, voter=5)


def test_probe_coefficients_pure_schemes():
    cond = probe_coefficients(CondorcetRule(3, 3), anchor=0)
    assert cond.condorcet_weight == 1
    assert cond.voter_weights == (F(0), F(0), F(0))
    rd = RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3)
    got = probe_coefficients(rd, anchor=2)
    assert got.condorcet_weight == 0
    assert got.voter_weights == (F(1, 2), F(1, 4), F(1, 4))


def test_probe_coefficients_blend_and_anchor_independence():
    lam = F(1, 4)
    blend = Mixture(
        [
            (lam, RandomDictatorship([F(1, 3)] * 3, 3)),
            (1 - lam, CondorcetRule(3, 3)),
        ]
    )
    expected = MixtureCoefficients(1 - lam, (lam / 3,) * 3)
    for anchor in range(3):
        assert probe_coefficients(blend, anchor) == expected


def test_probe_coefficients_signed_counterexample():
    sds = signed_mixture_counterexample(4, 3)
    for anchor in range(3):
        got = probe_coefficients(sds, anchor)
        assert got.condorcet_weight == F(-1, 3)
        assert got.voter_weights == (F(1, 3),) * 4


# -- representation checking ---------------------------------------------------------


def test_verify_mixture_accepts_true_representation():
    dom = CondorcetDomain(3, 3)
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    coeffs = MixtureCoefficients(F(1, 2), (F(1, 2), F(0), F(0)))
    verdict = verify_mixture(blend, dom, coeffs, CondorcetRule(3, 3))
    assert verdict.holds
    assert verdict.profiles_checked == 204


def test_verify_mixture_rejects_wrong_coefficients():
    dom = CondorcetDomain(3, 3)
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    wrong = MixtureCoefficients(F(1, 2), (F(0), F(1, 2), F(0)))
    verdict = verify_mixture(blend, dom, wrong, CondorcetRule(3, 3))
    assert not verdict.holds
    w = verdict.witness
    # the reported mismatch must recompute to the same numbers
    actual = blend.evaluate(w.profile)[w.alternative]
    assert actual == w.actual and w.actual != w.expected


def test_verify_mixture_tiebreaking_reference():
    tb = rel("a>b>c")
    dom = TieBreakingCondorcetDomain(tb, 4, 3)
    rule = TieBreakingCondorcetRule(tb, 4)
    coeffs = MixtureCoefficients(F(1), (F(0),) * 4)
    assert verify_mixture(rule, dom, coeffs, rule).holds


# -- dictatorial weight ----------------------------------------------------------------


def test_max_dictatorial_weight_pure_cases():
    dom = CondorcetDomain(3, 3)
    assert max_dictatorial_weight(CondorcetRule(3, 3), dom) == 0
    assert max_dictatorial_weight(Dictatorship(0, 3, 3), dom) == 1
    rd = RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3)
    assert max_dictatorial_weight(rd, dom) == 1


def test_max_dictatorial_weight_blends():
    dom = CondorcetDomain(3, 3)
    for lam in (F(1, 4), F(1, 2), F(3, 4)):
        blend = Mixture(
            [
                (lam, RandomDictatorship([F(1, 3)] * 3, 3)),
                (1 - lam, CondorcetRule(3, 3)),
            ]
        )
        assert max_dictatorial_weight(blend, dom) == lam


def test_max_dictatorial_weight_rejects_manipulable_scheme():
    with pytest.raises(InfeasibleModelError):
        max_dictatorial_weight(perturbed_condorcet_table(3, 3), CondorcetDomain(3, 3))


def uniform_table(dom):
    return TableSDS({p: Lottery.uniform(3) for p in dom.members()}, valid_domain=dom, name="uniform")


@pytest.mark.parametrize("domain", [FullDomain, CondorcetDomain])
def test_max_dictatorial_weight_of_constant_uniform_is_zero(domain):
    dom = domain(3, 3)
    assert max_dictatorial_weight(uniform_table(dom), dom) == 0
    # Taking 1/9 per voter off leaves a remainder (rescaled to a lottery)
    # that voter 0 manipulates at the unanimous profile.
    remainder = TableSDS(
        {
            p: Lottery([F(1, 2) - F(sum(1 for v in range(3) if p[v].top() == x), 6) for x in range(3)])
            for p in dom.members()
        },
        valid_domain=dom,
        name="remainder",
    )
    witness = check_strategyproof(remainder, dom).witness
    assert (witness.profile, witness.voter) == (prof("a>b>c\na>b>c\na>b>c"), 0)


@pytest.mark.parametrize("domain", [FullDomain, CondorcetDomain])
def test_max_dictatorial_weight_of_half_uniform_blend(domain):
    dom = domain(3, 3)
    blend = Mixture([(F(1, 2), uniform_table(dom)), (F(1, 2), RandomDictatorship([F(1, 3)] * 3, 3))])
    assert max_dictatorial_weight(blend, dom) == F(1, 2)


# -- extension feasibility ----------------------------------------------------------------


def test_condorcet_rule_has_no_extension_to_cycle():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    result = extension_feasibility(CondorcetRule(3, 3), base, [cycle])
    assert not result.feasible
    assert result.witness is None
    assert result.conflict


def test_random_dictatorship_extends_uniformly():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    result = extension_feasibility(rd, base, [cycle])
    assert result.feasible
    assert result.witness[cycle] == Lottery.uniform(3)
    assert verify_extension_witness(rd, base, [cycle], result.witness)


def test_swapped_six_extras_extend_the_majority_rule():
    # The first six canonical n=3 profiles outside condorcet-for:a with b and c
    # swapped: feasible by symmetry with the unswapped set, and large enough
    # that a fixed elimination order runs into the Fourier-Motzkin row cap.
    text = (Path(__file__).resolve().parent / "golden" / "six-extras.txt").read_text(encoding="utf-8")
    extras = parse_profiles(text.translate(str.maketrans("bc", "cb")))
    base = CondorcetForDomain(0, 3, 3)
    cond = CondorcetRule(3, 3)
    result = extension_feasibility(cond, base, extras)
    assert result.feasible
    assert set(result.witness) == set(extras)
    assert verify_extension_witness(cond, base, extras, result.witness)


def test_extension_witness_checker_rejects_bad_assignment():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    assert not verify_extension_witness(
        rd, base, [cycle], {cycle: Lottery.point(0, 3)}
    )


def test_extension_requires_extras_outside_base():
    base = CondorcetDomain(3, 3)
    inside = prof("a>b>c\na>b>c\na>b>c")
    with pytest.raises(ValueError):
        extension_feasibility(CondorcetRule(3, 3), base, [inside])


def test_non_imposition_flag_is_monotone():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    plain = extension_feasibility(rd, base, [cycle])
    with_flag = extension_feasibility(rd, base, [cycle], require_non_imposition=True)
    # the flagged problem is more constrained
    assert plain.feasible or not with_flag.feasible
    assert plain.feasible and with_flag.feasible  # both hold for this scheme


def test_imposing_scheme_needs_the_flag_to_fail():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    mapping = {p: Lottery.point(0, 3) for p in base.members()}
    constant = TableSDS(mapping, valid_domain=base, name="const-a")
    assert extension_feasibility(constant, base, [cycle]).feasible
    flagged = extension_feasibility(
        constant, base, [cycle], require_non_imposition=True
    )
    assert not flagged.feasible


def test_extension_rows_built_once_per_call(monkeypatch):
    # two cyclic extras: under the flag, each of b and c is pinned to one of them
    extras = parse_profiles("a>b>c\nb>c>a\nc>a>b\n\na>c>b\nc>b>a\nb>a>c\n")
    built = []

    def counted(*args):
        built.append(args)
        return _extension_rows(*args)

    monkeypatch.setattr(analysis, "_extension_rows", counted)
    result = extension_feasibility(
        CondorcetRule(3, 3), CondorcetForDomain(0, 3, 3), extras, require_non_imposition=True
    )
    assert result.feasible and len(built) == 1


def test_feasibility_json_shape():
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    data = extension_feasibility(rd, base, [cycle]).to_json_dict()
    assert sorted(data) == ["conflict", "feasible", "witness"]
    assert data["feasible"] is True
    assert cycle.to_text() in data["witness"]


def reference_extension_rows(base_sds, base, extras):
    """Cut-by-cut reference for ``_extension_rows``: every row is assembled by
    hand from the reduced variables, without the shared SD row builder."""
    n, m = base.n, base.m
    reduced = m - 1
    index = {extra: e for e, extra in enumerate(extras)}
    extended = ExtendedDomain(base, extras)
    f = base_sds.evaluate
    num_vars = reduced * len(extras)
    rows = []

    def blank():
        return [F(0)] * num_vars, F(0)

    def add_mass(coeffs, rhs, extra_idx, cut, sign):
        # adds sign * p_extra(cut) to the left side, in reduced variables
        for x in cut:
            if x < reduced:
                coeffs[extra_idx * reduced + x] += sign
            else:
                for j in range(reduced):
                    coeffs[extra_idx * reduced + j] -= sign
                rhs -= sign
        return rhs

    def add(coeffs, rhs, tag):
        rows.append((tuple(coeffs), rhs, frozenset([tag])))

    for extra in extras:
        e = index[extra]
        for x in range(m):
            coeffs, rhs = blank()
            rhs = add_mass(coeffs, rhs, e, [x], -1)
            add(coeffs, rhs, f"lottery at {extra.to_text()!r} nonnegative on {alternative_name(x)}")
        for voter in range(n):
            truth_rel = extra[voter]
            for neighbor in extended.unilateral_deviations(extra, voter):
                rel = neighbor[voter]
                neighbor_var = index.get(neighbor)
                neighbor_lot = f(neighbor) if neighbor_var is None else None
                cut = []
                for x in truth_rel.order[:-1]:
                    cut.append(x)
                    coeffs, rhs = blank()
                    rhs = add_mass(coeffs, rhs, e, cut, -1)
                    if neighbor_var is None:
                        rhs -= neighbor_lot.mass(cut)
                    else:
                        rhs = add_mass(coeffs, rhs, neighbor_var, cut, 1)
                    add(
                        coeffs,
                        rhs,
                        f"voter {voter} gains by leaving {extra.to_text()!r} "
                        f"(cut at {alternative_name(x)})",
                    )
                cut = []
                for x in rel.order[:-1]:
                    cut.append(x)
                    coeffs, rhs = blank()
                    rhs = add_mass(coeffs, rhs, e, cut, 1)
                    if neighbor_var is None:
                        rhs += neighbor_lot.mass(cut)
                    else:
                        rhs = add_mass(coeffs, rhs, neighbor_var, cut, -1)
                    add(
                        coeffs,
                        rhs,
                        f"voter {voter} gains by deviating into {extra.to_text()!r} "
                        f"(cut at {alternative_name(x)})",
                    )
    return rows, num_vars


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize(
    "make_sds",
    [
        lambda m: CondorcetRule(3, m),
        lambda m: Mixture(
            [(F(1, 2), CondorcetRule(3, m)), (F(1, 2), RandomDictatorship([F(1, 3)] * 3, m))]
        ),
    ],
    ids=["cond", "mix"],
)
def test_extension_rows_match_reference(m, make_sds):
    base = CondorcetDomain(3, m)
    extras = [majority_cycle_profile(3, m)]
    got = _extension_rows(make_sds(m), base, extras)
    assert got == reference_extension_rows(make_sds(m), base, extras)


# -- a manipulable base and the independent witness check ----------------------------------

PERTURBED_EXTRA = "a>b>c\na>b>c\nb>c>a\nb>c>a\nc>a>b"


def test_manipulable_base_is_refused_with_its_manipulation():
    extra = prof(PERTURBED_EXTRA)
    result = extension_feasibility(perturbed_condorcet_table(5, 3), CondorcetDomain(5, 3), [extra])
    assert not result.feasible and result.witness is None
    assert result.conflict == (
        "base scheme is manipulable: voter 0 gains by leaving "
        "'a>b>c\\na>b>c\\na>b>c\\na>b>c\\nb>a>c' (cut at a)",
    )


def test_witness_check_sees_a_manipulable_base():
    # the point lottery the extension was once accepted with: no constraint
    # touching the extra fails, but the base itself is manipulable
    extra = prof(PERTURBED_EXTRA)
    table = perturbed_condorcet_table(5, 3)
    assert not verify_extension_witness(
        table, CondorcetDomain(5, 3), [extra], {extra: Lottery.point(0, 3)}
    )


def test_witness_check_builds_no_extension_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("the witness check must not share the solver's rows")

    monkeypatch.setattr(analysis, "_extension_rows", refuse)
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    assert verify_extension_witness(rd, base, [cycle], {cycle: Lottery.uniform(3)})
    assert not verify_extension_witness(rd, base, [cycle], {cycle: Lottery.point(0, 3)})


def test_natural_witness_scans_the_base_once(monkeypatch):
    # the extended check of the scheme's own lotteries covers every
    # base-to-base deviation, so it stands in for the base check
    domains = []

    def counting(sds, dom):
        domains.append(dom.describe())
        return check_strategyproof(sds, dom)

    monkeypatch.setattr(analysis, "check_strategyproof", counting)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    res = extension_feasibility(rd, CondorcetDomain(3, 3), [cycle])
    assert res.feasible and res.witness == {cycle: Lottery.uniform(3)}
    assert domains == [ExtendedDomain(CondorcetDomain(3, 3), [cycle]).describe()]


# -- value-keyed memos -------------------------------------------------------------


@pytest.mark.parametrize(
    "make_sds, domain",
    [
        (lambda: Borda(3, 3), CondorcetDomain(3, 3)),
        (lambda: Plurality(3, 3), FullDomain(3, 3)),
        (lambda: perturbed_condorcet_table(3, 3), CondorcetDomain(3, 3)),
        (lambda: Borda(3, 4), CondorcetDomain(3, 4)),
    ],
)
def test_infeasible_model_carries_the_strategyproofness_witness(make_sds, domain):
    with pytest.raises(InfeasibleModelError) as caught:
        max_dictatorial_weight(make_sds(), domain)
    verdict = check_strategyproof(make_sds(), domain)
    assert not verdict.holds
    assert caught.value.witness == verdict.witness
    assert str(caught.value) == (
        f"scheme is manipulable at {verdict.witness.profile!r} by voter {verdict.witness.voter}"
    )


def test_signed_mixture_raises_again_on_a_second_evaluate():
    signed = parse_sds("signed:3/2*dict:0+-1/2*dict:1", 2, 3)
    split = prof("a>b>c\nb>a>c")
    for _ in range(2):
        with pytest.raises(NegativeProbabilityError):
            signed.evaluate(split)
        with pytest.raises(NegativeProbabilityError):
            signed.at(split)
    # a second scheme with the same weights meets the same combination
    with pytest.raises(NegativeProbabilityError):
        parse_sds("signed:3/2*dict:0+-1/2*dict:1", 2, 3).evaluate(split)
    assert signed.evaluate(prof("a>b>c\na>c>b")) == Lottery.point(0, 3)


def test_every_value_cache_is_bounded():
    for cached in (
        lottery._sd_verdict,
        analysis._deviation_bound,
        sds._combine,
        core._pairwise,
        core.condorcet_winner,
        lottery._cumulative,
    ):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 14

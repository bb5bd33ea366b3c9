from fractions import Fraction

import pytest

from condlab.analysis import max_dictatorial_weight
from condlab.axioms import (
    Verdict,
    check_ex_post_efficient,
    check_group_strategyproof,
    check_localized,
    check_non_imposition,
    check_non_perverse,
    check_strategyproof,
    checker_for,
    implication_suite,
    replay_witness,
)
from condlab.core import PreferenceRelation, Profile
from condlab.domains import (
    CondorcetDomain,
    ExplicitDomain,
    ExtendedDomain,
    FullDomain,
    majority_cycle_profile,
)
from condlab.lottery import Lottery, sd_compare
from condlab.sds import (
    SDS,
    Borda,
    CondorcetRule,
    Dictatorship,
    Mixture,
    Plurality,
    RandomDictatorship,
    TableSDS,
    parse_sds,
    signed_mixture_counterexample,
)
from condlab.theorems import catalog, criterion_1, perturbed_condorcet_table

F = Fraction


def prof(text):
    return Profile.from_text(text)


# -- strategyproofness ----------------------------------------------------------


def test_condorcet_rule_strategyproof_on_condorcet_domain():
    verdict = check_strategyproof(CondorcetRule(3, 3), CondorcetDomain(3, 3))
    assert verdict.holds and verdict.witness is None
    assert verdict.profiles_checked == 204


@pytest.mark.slow
def test_seven_voter_blend_strategyproof():
    # the exhaustive frontier at m=3: every member and in-domain deviation
    sds = parse_sds("mix:1/2*cond+1/2*rd:" + ",".join(["1/7"] * 7), 7, 3)
    verdict = check_strategyproof(sds, CondorcetDomain(7, 3))
    assert verdict.holds
    assert (verdict.profiles_checked, verdict.comparisons) == (258_936, 8_516_760)


def test_dictatorship_strategyproof_on_full_domain():
    verdict = check_strategyproof(Dictatorship(1, 3, 3), FullDomain(3, 3))
    assert verdict.holds


def test_random_dictatorship_strategyproof():
    rd = RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3)
    assert check_strategyproof(rd, FullDomain(3, 3)).holds


def test_perturbed_table_is_manipulable():
    table = perturbed_condorcet_table(3, 3)
    verdict = check_strategyproof(table, CondorcetDomain(3, 3))
    assert not verdict.holds
    w = verdict.witness
    # the reported comparison must reproduce stand-alone
    replayed = sd_compare(
        w.profile[w.voter],
        table.evaluate(w.profile),
        table.evaluate(w.deviation),
    )
    assert replayed == w.cut
    assert replay_witness(table, CondorcetDomain(3, 3), verdict.to_json_dict())


def test_positional_rules_are_manipulable_on_full_domain():
    assert not check_strategyproof(Plurality(3, 3), FullDomain(3, 3)).holds
    assert not check_strategyproof(Borda(3, 3), FullDomain(3, 3)).holds


# -- group strategyproofness -------------------------------------------------------


def test_condorcet_rule_group_strategyproof():
    verdict = check_group_strategyproof(
        CondorcetRule(3, 3), CondorcetDomain(3, 3), max_coalition=3
    )
    assert verdict.holds


def test_dictatorship_group_strategyproof_beyond_condorcet_domain():
    dom = ExtendedDomain(CondorcetDomain(3, 3), [majority_cycle_profile(3, 3)])
    verdict = check_group_strategyproof(Dictatorship(0, 3, 3), dom, max_coalition=3)
    assert verdict.holds


def test_proper_mixture_is_group_manipulable():
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    dom = CondorcetDomain(3, 3)
    verdict = check_group_strategyproof(blend, dom, max_coalition=3)
    assert not verdict.holds
    w = verdict.witness
    assert len(w.coalition) >= 2
    # nobody in the coalition weakly prefers the honest outcome
    honest = blend.evaluate(w.profile)
    shifted = blend.evaluate(w.deviation)
    for voter in w.coalition:
        assert sd_compare(w.profile[voter], honest, shifted) == dict(w.cuts)[voter]
    assert replay_witness(blend, dom, verdict.to_json_dict())


def test_group_check_with_singleton_bound_matches_strategyproofness():
    dom = CondorcetDomain(3, 3)
    for name, sds in catalog(3, 3):
        sp = check_strategyproof(sds, dom)
        gsp = check_group_strategyproof(sds, dom, max_coalition=1)
        assert sp.holds == gsp.holds, name
        if not sp.holds:
            assert gsp.witness.profile == sp.witness.profile
            assert gsp.witness.coalition == (sp.witness.voter,)


def test_group_witness_stable_when_bound_grows():
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    dom = CondorcetDomain(3, 3)
    at_two = check_group_strategyproof(blend, dom, max_coalition=2)
    at_three = check_group_strategyproof(blend, dom, max_coalition=3)
    assert not at_two.holds and not at_three.holds
    assert at_two.witness.to_json_dict() == at_three.witness.to_json_dict()


@pytest.mark.parametrize("bound", [0, -2])
def test_group_check_rejects_empty_coalition_bound(bound):
    with pytest.raises(ValueError, match="max_coalition"):
        check_group_strategyproof(CondorcetRule(3, 3), CondorcetDomain(3, 3), max_coalition=bound)


# -- non-imposition ------------------------------------------------------------------


def test_condorcet_rule_non_imposing():
    assert check_non_imposition(CondorcetRule(3, 3), CondorcetDomain(3, 3)).holds


def test_counterexample_non_imposing():
    sds = signed_mixture_counterexample(4, 3)
    assert check_non_imposition(sds, CondorcetDomain(4, 3)).holds


def test_constant_scheme_fails_non_imposition():
    profiles = [prof("a>b>c\nb>a>c\na>c>b"), prof("b>a>c\nb>a>c\na>c>b")]
    table = TableSDS({p: Lottery.uniform(3) for p in profiles})
    verdict = check_non_imposition(table, ExplicitDomain(profiles))
    assert not verdict.holds
    assert verdict.witness.alternative == 0


# -- ex post efficiency ----------------------------------------------------------------


def test_expost_holds_for_standard_schemes():
    dom = CondorcetDomain(3, 3)
    assert check_ex_post_efficient(CondorcetRule(3, 3), dom).holds
    assert check_ex_post_efficient(
        RandomDictatorship([F(1, 3)] * 3, 3), dom
    ).holds


def test_expost_detects_mass_on_dominated_alternative():
    unanimous = prof("a>b>c\na>b>c\na>b>c")
    table = TableSDS({unanimous: Lottery([F(1, 2), F(0), F(1, 2)])})
    verdict = check_ex_post_efficient(table, ExplicitDomain([unanimous]))
    assert not verdict.holds
    assert verdict.witness.dominated == 2
    assert verdict.witness.probability == F(1, 2)


def test_lemma_style_implication_on_condorcet_domain():
    # schemes passing strategyproofness and non-imposition here must also
    # pass ex post efficiency
    dom = CondorcetDomain(3, 3)
    for name, sds in catalog(3, 3):
        sp = check_strategyproof(sds, dom)
        ni = check_non_imposition(sds, dom)
        if sp.holds and ni.holds:
            assert check_ex_post_efficient(sds, dom).holds, name


# -- swap axioms -------------------------------------------------------------------------


def test_dictatorship_localized_and_non_perverse():
    dom = FullDomain(3, 3)
    assert check_localized(Dictatorship(0, 3, 3), dom).holds
    assert check_non_perverse(Dictatorship(0, 3, 3), dom).holds


def test_perturbed_table_fails_localizedness():
    table = perturbed_condorcet_table(3, 3)
    verdict = check_localized(table, CondorcetDomain(3, 3))
    assert not verdict.holds
    w = verdict.witness
    assert w.watched not in (w.raised, w.lowered)
    assert w.before != w.after


def test_implication_suite_consistent_for_catalog():
    dom = FullDomain(3, 3)
    for name, sds in catalog(3, 3):
        if not isinstance(sds.valid_domain, FullDomain):
            continue
        report = implication_suite(sds, dom)
        assert report.consistent, name
        assert report.full_domain
        # frozen expectation of the equivalence on the full domain
        assert report.strategyproof.holds == (
            report.localized.holds and report.non_perverse.holds
        ), name


def count_mixture_evaluations(monkeypatch):
    evaluated = []
    evaluate = SDS.evaluate

    def counting(self, profile):
        if isinstance(self, Mixture):  # not the components it evaluates
            evaluated.append(profile)
        return evaluate(self, profile)

    monkeypatch.setattr(SDS, "evaluate", counting)
    return evaluated


def test_implication_suite_evaluates_each_member_once(monkeypatch):
    dom = CondorcetDomain(3, 3)
    spec = "mix:1/2*cond+1/2*rd:1/3,1/3,1/3"
    fresh = parse_sds(spec, 3, 3)  # so the suite below starts from a cold cache
    separate = [check(fresh, dom).to_json_dict() for check in (
        check_strategyproof, check_localized, check_non_perverse
    )]
    mix = parse_sds(spec, 3, 3)
    evaluated = count_mixture_evaluations(monkeypatch)
    report = implication_suite(mix, dom).to_json_dict()
    assert len(evaluated) == len(set(evaluated)) == 204
    assert [report["strategyproof"], report["localized"], report["non_perverse"]] == separate


def test_scans_over_one_scheme_share_its_evaluations(monkeypatch):
    computed = []
    lottery = Mixture._lottery

    def counting(self, profile):
        computed.append(profile)
        return lottery(self, profile)

    monkeypatch.setattr(Mixture, "_lottery", counting)
    dom = CondorcetDomain(3, 3)
    mix = parse_sds("mix:1/2*cond+1/2*rd:1/3,1/3,1/3", 3, 3)
    assert check_strategyproof(mix, dom).holds
    assert check_non_imposition(mix, dom).holds
    assert max_dictatorial_weight(mix, dom) == F(1, 2)
    assert len(computed) == len(set(computed)) == 204


def test_criterion_1_evaluates_each_member_once(monkeypatch):
    evaluated = count_mixture_evaluations(monkeypatch)
    assert criterion_1()["ok"]
    # 20 of the 35 grid points give the majority rule positive weight
    assert len(evaluated) == 20 * 204


# -- plumbing ----------------------------------------------------------------------------


def test_verdict_json_schema():
    verdict = check_strategyproof(CondorcetRule(3, 3), CondorcetDomain(3, 3))
    data = verdict.to_json_dict()
    assert sorted(data) == [
        "axiom",
        "comparisons",
        "holds",
        "profiles_checked",
        "witness",
    ]
    assert data["witness"] is None


def test_checker_for_names():
    assert checker_for("strategyproof") is check_strategyproof
    assert checker_for("group-strategyproof") is check_group_strategyproof
    with pytest.raises(ValueError):
        checker_for("sp")


def test_replay_requires_witness():
    verdict = check_strategyproof(CondorcetRule(3, 3), CondorcetDomain(3, 3))
    with pytest.raises(ValueError):
        replay_witness(
            CondorcetRule(3, 3), CondorcetDomain(3, 3), verdict.to_json_dict()
        )


def test_replay_rejects_witness_for_other_scheme():
    table = perturbed_condorcet_table(3, 3)
    verdict = check_strategyproof(table, CondorcetDomain(3, 3))
    assert not replay_witness(
        CondorcetRule(3, 3), CondorcetDomain(3, 3), verdict.to_json_dict()
    )

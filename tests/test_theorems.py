from fractions import Fraction

import itertools
import json

import pytest

import condlab.theorems as theorems
from condlab.analysis import MixtureCoefficients, _extension_rows, extension_feasibility
from condlab.axioms import check_strategyproof
from condlab.cli import main
from condlab.core import (
    CapExceededError,
    PreferenceRelation,
    Profile,
    all_profiles,
    all_relations,
    capped_enumeration,
)
from condlab.domains import CondorcetDomain, ExtendedDomain, FullDomain, majority_cycle_profile
from condlab.sds import (
    CondorcetRule,
    Dictatorship,
    Mixture,
    RandomDictatorship,
    SignedMixture,
    parse_sds,
)
from condlab.theorems import (
    catalog,
    coefficient_grid,
    criterion_8,
    matches_proof_pattern,
    mixture_sds,
    pattern_is_group_violation,
)
from test_ratlp import reference_fm_feasible

F = Fraction


def recursive_grid(n, step):
    """The grid as a recursion over the entries, first entry slowest."""
    levels = int(1 / step)
    out = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            weights = [step * u for u in prefix + [remaining]]
            out.append(MixtureCoefficients(weights[0], tuple(weights[1:])))
            return
        for units in range(remaining + 1):
            fill(prefix + [units], remaining - units, slots - 1)

    fill([], levels, n + 1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [F(1), F(1, 2), F(1, 3), F(1, 4)], ids=str)
def test_grid_matches_the_recursion(n, step):
    assert coefficient_grid(n, step) == recursive_grid(n, step)


def test_grid_is_bounded_by_the_enumeration_cap():
    with capped_enumeration(35):
        assert len(coefficient_grid(3, F(1, 4))) == 35
    with capped_enumeration(34), pytest.raises(CapExceededError, match="35 points, cap is 34"):
        coefficient_grid(3, F(1, 4))


def test_grid_rejects_steps_that_do_not_divide_one():
    for step in (F(0), F(-1, 4), F(2, 5)):
        with pytest.raises(ValueError):
            coefficient_grid(3, step)


def test_proof_pattern_replays_as_a_group_manipulation():
    blend = RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3)
    assert pattern_is_group_violation(blend, 0, 3)
    # the lone voter's dictatorship keeps its favorite when truthful
    assert not pattern_is_group_violation(Dictatorship(0, 3, 3), 0, 3)


def counting_pattern_recogniser(witness):
    """The whole-electorate pattern recognised by counting relations: one
    lone voter (c, a, b), the rest (b, a, c), a unanimous lie (a, b, c)."""
    coalition = witness.get("coalition")
    profile_text = witness.get("profile")
    deviation_text = witness.get("deviation")
    if coalition is None or profile_text is None or deviation_text is None:
        return False
    truth = Profile.from_text(profile_text)
    lie = Profile.from_text(deviation_text)
    n = truth.n
    if tuple(coalition) != tuple(range(n)):
        return False
    if truth.m != 3 or len(set(lie.relations)) != 1:
        return False
    counts = {}
    for rel in truth.relations:
        counts[rel] = counts.get(rel, 0) + 1
    if sorted(counts.values()) != [1, n - 1]:
        return False
    lone = next(rel for rel, k in counts.items() if k == 1)
    rest = next(rel for rel, k in counts.items() if k == n - 1)
    c, a, b = lone.order
    if rest.order != (b, a, c):
        return False
    return lie.relations[0].order == (a, b, c)


def test_pattern_recogniser_matches_the_counting_one():
    # every truth for n = 1..4 against each unanimous lie, with the full
    # coalition and with the last voter dropped
    cases, matches = 0, 0
    for n in range(1, 5):
        lies = [Profile([PreferenceRelation(o)] * n) for o in itertools.permutations(range(3))]
        for truth, lie in itertools.product(all_profiles(n, 3), lies):
            for coalition in (list(range(n)), list(range(n - 1))):
                witness = {
                    "profile": truth.to_text(),
                    "coalition": coalition,
                    "deviation": lie.to_text(),
                }
                expected = counting_pattern_recogniser(witness)
                assert matches_proof_pattern(witness) == expected, witness
                cases += 1
                matches += expected
    # the lone voter's seat (3 + 4) times the six relabelings
    assert (cases, matches) == (18_648, 42)


def test_criterion_8_reports_the_extension_conflict():
    cycle = majority_cycle_profile(3, 3)
    certificate = extension_feasibility(CondorcetRule(3, 3), CondorcetDomain(3, 3), [cycle])
    assert criterion_8()["details"]["conflict"] == list(certificate.conflict)


@pytest.mark.parametrize("n, m", [(3, 3), (5, 3), (3, 4)])
def test_criterion_8_conflict_rows_are_infeasible_on_their_own(n, m):
    # the certificate behind criterion 8: the model rows tagged by the reported
    # conflict admit no lottery at the cycle, by the fixed-order reference FM,
    # and dropping any one tag's rows leaves a feasible set
    rule, base, cycle = CondorcetRule(n, m), CondorcetDomain(n, m), majority_cycle_profile(n, m)
    certificate = extension_feasibility(rule, base, [cycle])
    assert not certificate.feasible and certificate.conflict
    rows, num_vars = _extension_rows(rule, ExtendedDomain(base, [cycle]))
    conflict = set(certificate.conflict)
    core = [row for row in rows if row[2] <= conflict]
    assert 0 < len(core) < len(rows)
    assert not reference_fm_feasible(core, num_vars)[0]
    for tag in conflict:
        rest = [row for row in core if tag not in row[2]]
        assert reference_fm_feasible(rest, num_vars)[0], tag


def test_battery_1_runs_criterion_3_at_its_fixed_size(monkeypatch):
    # the signed-mixture counterexample exists only at (4, 3), whatever --m is
    calls = []
    for name in ("criterion_1", "criterion_2", "criterion_3", "criterion_5"):
        monkeypatch.setattr(theorems, name, lambda *args, name=name: calls.append((name, args)) or {})
    theorems.run_battery(1, m=4)
    assert calls == [
        ("criterion_1", (3, 4, F(1, 4))),
        ("criterion_2", (3, 4)),
        ("criterion_3", ()),
        ("criterion_5", (3, 4, F(1, 4))),
    ]


def test_battery_2_derives_its_tiebreakers_from_m(monkeypatch, capsys):
    # without --tiebreak: the alphabetical order over the slate and its reverse
    calls = []
    monkeypatch.setattr(theorems, "criterion_4", lambda *args: calls.append(args) or {"ok": True})
    assert main(["theorems", "--which", "2", "--m", "4"]) == 0
    assert main(["theorems", "--which", "2", "--m", "4", "--tiebreak", "b>a>c>d"]) == 0
    assert calls == [(4, 4, ("a>b>c>d", "d>c>b>a"), F(1, 4)), (4, 4, ["b>a>c>d"], F(1, 4))]


ALL_TIEBREAKERS_3 = [rel.to_text() for rel in all_relations(3)]


def test_criterion_4_refuses_a_repeated_order(monkeypatch):
    monkeypatch.setattr(theorems, "check_strategyproof", lambda *args: pytest.fail("a scan ran"))
    with pytest.raises(ValueError, match="tie-breaker 'a > b > c' repeats 'a>b>c'"):
        theorems.criterion_4(4, 3, ["a>b>c", "a > b > c"])
    with pytest.raises(ValueError, match="repeats"):
        theorems.criterion_4(4, 3, ["a>b>c", "a>b>c"])


@pytest.mark.parametrize("second, message", [
    ("a>b", "tie-breaker ranks a different slate"),
    ("a > b > c", "tie-breaker 'a > b > c' repeats 'a>b>c'"),
])
def test_battery_2_checks_every_tiebreaker_before_its_first_scan(monkeypatch, capsys, second, message):
    monkeypatch.setattr(theorems, "check_strategyproof", lambda *args: pytest.fail("a scan ran"))
    assert main(["theorems", "--which", "2", "--tiebreak", "a>b>c", "--tiebreak", second]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


def test_criterion_4_holds_for_every_tiebreaker():
    result = theorems.criterion_4(4, 3, ALL_TIEBREAKERS_3, F(1, 2))
    assert result["ok"]
    assert result["details"]["tiebreakers"] == {
        tb: {"mixtures": 15, "failures": []} for tb in ALL_TIEBREAKERS_3
    }


@pytest.mark.parametrize("tb", ALL_TIEBREAKERS_3)
def test_every_tiebreaking_rule_is_strategyproof_on_its_own_domain(tb):
    rule = parse_sds(f"tb-cond:{tb}", 4, 3)
    verdict = check_strategyproof(rule, rule.valid_domain)
    assert (verdict.holds, verdict.profiles_checked, verdict.comparisons) == (True, 1206, 22608)


def test_battery_3_runs_criterion_7_at_three_alternatives(monkeypatch):
    # the whole-electorate pattern is stated over three alternatives; criterion 8 takes --m
    calls = []
    for name in ("criterion_7", "criterion_8"):
        monkeypatch.setattr(theorems, name, lambda *args, name=name: calls.append((name, args)) or {})
    theorems.run_battery(3, m=4)
    assert calls == [("criterion_7", ((3,), F(1, 4))), ("criterion_8", (3, 4))]


def test_criterion_5_expects_the_random_dictatorship_lottery_at_five_voters():
    # the n=5 cycle's tops are a, b, c, a, c, so the uniform random dictatorship
    # puts (2/5, 1/5, 2/5) there, not the uniform lottery
    result = theorems.criterion_5(5, 3, step=F(1))
    assert result["ok"], result["details"]
    assert result["details"]["rd_witness_uniform"]


@pytest.mark.parametrize("which", [1, 3])
def test_batteries_1_and_3_refuse_fewer_than_three_voters(monkeypatch, which):
    # refused before any criterion runs
    for name in ("criterion_1", "criterion_2", "criterion_3", "criterion_5", "criterion_7"):
        monkeypatch.setattr(theorems, name, lambda *args: pytest.fail("a criterion ran"))
    with pytest.raises(ValueError, match=f"battery {which} needs at least 3 voters, got 1"):
        theorems.run_battery(which, n=1)


@pytest.mark.parametrize("n", [0, 2])
def test_battery_2_refuses_fewer_than_four_voters(monkeypatch, n):
    # refused before criterion 4 runs; at n=2 a probe profile leaves the domain
    monkeypatch.setattr(theorems, "criterion_4", lambda *args: pytest.fail("criterion 4 ran"))
    with pytest.raises(ValueError, match=f"battery 2 needs at least 4 voters, got {n}"):
        theorems.run_battery(2, n=n)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_batteries_refuse_fewer_than_three_alternatives(monkeypatch, capsys, which):
    # refused before any criterion runs, naming the minimum
    for name in ("criterion_1", "criterion_2", "criterion_3", "criterion_4", "criterion_5",
                 "criterion_7", "criterion_8"):
        monkeypatch.setattr(theorems, name, lambda *args: pytest.fail("a criterion ran"))
    assert main(["theorems", "--which", str(which), "--m", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"battery {which} needs at least 3 alternatives, got 2"
    }


@pytest.mark.parametrize("n", [3, 4])
def test_a_grid_point_without_the_majority_rule_is_the_random_dictatorship(n):
    dom = FullDomain(n, 3)
    for coeffs in coefficient_grid(n):
        if coeffs.condorcet_weight == 0:
            sds = mixture_sds(coeffs, CondorcetRule(n, 3))
            rd = RandomDictatorship(coeffs.voter_weights, 3)
            assert sds.valid_domain == dom
            assert all(sds.evaluate(p) == rd.evaluate(p) for p in dom.members())


def test_every_grid_point_is_a_mixture():
    for n in (3, 4):
        rule = CondorcetRule(n, 3)
        assert {type(mixture_sds(coeffs, rule)) for coeffs in coefficient_grid(n)} == {Mixture}
    signed = mixture_sds(MixtureCoefficients(F(-1, 3), (F(1, 3),) * 4), CondorcetRule(4, 3))
    assert type(signed) is SignedMixture
    assert [w for w, _ in signed.parts] == [F(-1, 3)] + [F(1, 3)] * 4


def test_catalog_refuses_fewer_than_three_voters():
    with pytest.raises(ValueError, match="at least 3 voters"):
        catalog(2, 3)
    assert len(catalog(3, 3)) == 10


def filled_majority_domains(monkeypatch, run):
    """How many majority domains (not tie-breaking ones) fill their member
    table while ``run()`` runs."""
    made = []
    init = CondorcetDomain.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(CondorcetDomain, "__init__", record)
    run()
    return sum(1 for dom in made if type(dom) is CondorcetDomain and dom._table)


@pytest.mark.parametrize(
    "criterion, count",
    # criterion 2 and 11 scan the catalog's majority rule on its own domain;
    # the perturbed table keeps its own, the domain of the rule it copies
    [(lambda: theorems.criterion_2(3, 3), 2), (lambda: criterion_8(3, 3), 1), (theorems.criterion_11, 2)],
    ids=["criterion-2", "criterion-8", "criterion-11"],
)
def test_criteria_fill_one_majority_domain_per_rule(monkeypatch, criterion, count):
    assert filled_majority_domains(monkeypatch, criterion) == count

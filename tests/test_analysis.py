import importlib
import pkgutil
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import condlab
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
from condlab.cli import build_parser
from condlab.core import PreferenceRelation, Profile, alternative_name, condorcet_winner, parse_profiles
from condlab.domains import (
    CondorcetDomain,
    CondorcetForDomain,
    ExtendedDomain,
    FullDomain,
    OutOfDomainError,
    TieBreakingCondorcetDomain,
    majority_cycle_profile,
    parse_domain,
)
from condlab.lottery import Lottery, NegativeProbabilityError
from condlab.sds import (
    Borda,
    CondorcetRule,
    Dictatorship,
    Mixture,
    Plurality,
    RandomDictatorship,
    TableMissError,
    TableSDS,
    TieBreakingCondorcetRule,
    parse_sds,
    signed_mixture_counterexample,
)
from condlab.theorems import coefficient_grid, mixture_sds, perturbed_condorcet_table

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
    got = _extension_rows(make_sds(m), ExtendedDomain(base, extras))
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


def counted_scans(monkeypatch):
    """The domains that ``analysis`` runs :func:`check_strategyproof` on."""
    domains = []

    def counting(sds, dom):
        domains.append(dom.describe())
        return check_strategyproof(sds, dom)

    monkeypatch.setattr(analysis, "check_strategyproof", counting)
    return domains


def test_natural_witness_scans_the_base_once(monkeypatch):
    # the base check plus the rows touching the extra accept the scheme's own lottery
    domains = counted_scans(monkeypatch)
    cycle = majority_cycle_profile(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    res = extension_feasibility(rd, CondorcetDomain(3, 3), [cycle])
    assert res.feasible and res.witness == {cycle: Lottery.uniform(3)}
    assert domains == ["condorcet"]


def cycle_table(rule):
    """``rule`` on the majority domain as a table, extended by ``point(a)`` at the cycle."""
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    mapping = {profile: rule.evaluate(profile) for profile in base.members()}
    mapping[cycle] = Lottery.point(0, 3)
    return TableSDS(mapping, ExtendedDomain(base, [cycle]), "natural-fail")


@pytest.mark.parametrize("rule", ["cond", "rd:1/3,1/3,1/3"])
def test_natural_fail_scans_the_base_once(monkeypatch, rule):
    # the scheme's own point(a) at the cycle fails a row, so the rows are solved
    # as for the rule itself, which is undefined (cond) or uniform (rd) there
    base = CondorcetDomain(3, 3)
    cycle = majority_cycle_profile(3, 3)
    expected = extension_feasibility(parse_sds(rule, 3, 3), base, [cycle])
    assert expected.feasible == (rule != "cond")
    if expected.feasible:
        assert expected.witness == {cycle: Lottery.uniform(3)}
    domains = counted_scans(monkeypatch)
    assert extension_feasibility(cycle_table(parse_sds(rule, 3, 3)), base, [cycle]) == expected
    assert domains == ["condorcet"]


def test_undefined_base_member_is_named_in_scan_order():
    # defined at the cycle, missing two base members: the scan meets a voter-0
    # deviation of the first member before the second member in code order
    base = CondorcetDomain(3, 3)
    table = cycle_table(CondorcetRule(3, 3))
    first, second = base.members()[:2]
    late = next(p for p in base.unilateral_deviations(first, 0) if p.code > second.code)
    del table.mapping[second], table.mapping[late]
    with pytest.raises(TableMissError) as caught:
        extension_feasibility(table, base, [majority_cycle_profile(3, 3)])
    assert str(caught.value).endswith(late.to_text())


def differential_inputs():
    """``(scheme, base, extras, flag)``: the golden ``extend`` command lines,
    the criterion-5 grid onto the n=3 cycle, and the two natural-fail tables."""
    from test_golden import CASES

    for _, argv in CASES.values():
        if argv[0] == "extend":
            args = build_parser().parse_args(argv)
            extras = parse_profiles(Path(args.extras).read_text(encoding="utf-8"))
            scheme = parse_sds(args.sds, args.n, args.m)
            yield scheme, parse_domain(args.base, args.n, args.m), extras, args.require_non_imposition
    cycle = [majority_cycle_profile(3, 3)]
    for coeffs in coefficient_grid(3):
        yield mixture_sds(coeffs, 3, 3), CondorcetDomain(3, 3), cycle, False
    for rule in (CondorcetRule(3, 3), RandomDictatorship([F(1, 3)] * 3, 3)):
        yield cycle_table(rule), CondorcetDomain(3, 3), cycle, False


def test_own_lotteries_returned_exactly_when_the_witness_check_accepts_them():
    verdicts = []
    for scheme, base, extras, flag in differential_inputs():
        result = extension_feasibility(scheme, base, extras, require_non_imposition=flag)
        try:
            own = {extra: scheme.evaluate(extra) for extra in extras}
        except (OutOfDomainError, TableMissError):
            continue
        covered = {scheme.at(p).is_point() for p in (*base.members(), *extras)}
        accepted = verify_extension_witness(scheme, base, extras, own) and (
            not flag or covered >= set(range(base.m))
        )
        assert (result.witness == own) == accepted
        verdicts.append(accepted)
    # rejected: both natural-fail tables, and cond's point(b) at the near-winner extras
    assert verdicts.count(True) == 17 and verdicts.count(False) == 3


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


def functools_caches():
    """Every ``functools`` cache in ``condlab``, by qualified name: module
    functions and the functions, class and static methods in class dicts."""
    found = {}
    for info in pkgutil.iter_modules(condlab.__path__):
        module = importlib.import_module(f"condlab.{info.name}")
        for value in vars(module).values():
            inner = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *(getattr(v, "__func__", v) for v in inner)):
                if hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_value_cache_is_bounded():
    caches = functools_caches()
    # the relation table is capped by the enumeration cap instead
    unbounded = "condlab.core.all_relations"
    assert {unbounded, "condlab.lottery.Lottery.point", "condlab.lottery._sd_verdict"} <= set(caches)
    for name, cached in caches.items():
        maxsize = cached.cache_info().maxsize
        assert name == unbounded or (maxsize is not None and 0 < maxsize <= 1 << 14), name


def frozen_deviation_bound(order, new_top, truthful, deviated):
    """``_deviation_bound`` as it read before it took its cuts from ``sd_margins``."""
    cp = tuple(accumulate(truthful[x] for x in order))
    cq = tuple(accumulate(deviated[x] for x in order))
    den, qd = cp[-1], cq[-1]
    margins = [a * qd - b * den for a, b in zip(cp, cq)]
    for slot, margin in enumerate(margins):
        if margin < 0:
            return order[slot], None
    reach = order.index(new_top)
    if not reach:
        return None, None
    return None, (min(margins[:reach]), den * qd)


@st.composite
def deviation_cases(draw):
    """An order on 2..4 alternatives, a new top, and two integer forms over
    random denominators in 1..30."""
    m = draw(st.integers(2, 4))
    order = tuple(draw(st.permutations(range(m))))

    def numerators():
        den = draw(st.integers(1, 30))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1)))
        return Lottery([F(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])]).numerators

    return order, draw(st.integers(0, m - 1)), numerators(), numerators()


@given(deviation_cases())
def test_memoised_deviation_bound_matches_frozen_body(case):
    assert analysis._deviation_bound(*case) == frozen_deviation_bound(*case)
    # a second call is a cache hit and must say the same
    assert analysis._deviation_bound(*case) == frozen_deviation_bound(*case)

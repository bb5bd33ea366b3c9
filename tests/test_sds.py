import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from condlab.analysis import MixtureCoefficients
from condlab.core import PreferenceRelation, Profile, all_relations, condorcet_winner
from condlab.domains import (
    CondorcetDomain,
    ExtendedDomain,
    FullDomain,
    OutOfDomainError,
    TieBreakingCondorcetDomain,
    majority_cycle_profile,
)
from condlab.lottery import Lottery, NegativeProbabilityError
from condlab.sds import (
    Borda,
    CondorcetRule,
    Dictatorship,
    Mixture,
    Plurality,
    RandomDictatorship,
    SignedMixture,
    TableMissError,
    SDS,
    TableSDS,
    TieBreakingCondorcetRule,
    parse_sds,
    parse_table_file,
)
from condlab.theorems import mixture_sds

F = Fraction


def rel(text):
    return PreferenceRelation.from_text(text)


def prof(text):
    return Profile.from_text(text)


def test_dictatorship_returns_dictator_top():
    d = Dictatorship(1, 3, 3)
    assert d.evaluate(prof("a>b>c\nc>a>b\nb>a>c")) == Lottery.point(2, 3)
    with pytest.raises(ValueError):
        Dictatorship(3, 3, 3)
    with pytest.raises(ValueError):
        Dictatorship(-1, 3, 3)


def test_random_dictatorship_weights():
    rd = RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3)
    got = rd.evaluate(prof("a>b>c\nc>a>b\na>c>b"))
    assert got == Lottery([F(3, 4), F(0), F(1, 4)])
    with pytest.raises(ValueError):
        RandomDictatorship([F(1, 2), F(1, 2), F(1, 2)], 3)
    with pytest.raises(ValueError):
        RandomDictatorship([F(3, 2), F(-1, 2)], 3)


def frozen_dictators_lottery(weights, profile, m):
    """``RandomDictatorship``'s lottery as it read before it was interned."""
    den = lcm(*(w.denominator for w in weights))
    acc = [0] * m
    for voter, w in enumerate(weights):
        acc[profile[voter].top()] += w.numerator * (den // w.denominator)
    return Lottery.from_integers(acc, den)


@pytest.mark.parametrize(
    "weights, m",
    [
        ((F(1, 2), F(1, 3), F(1, 6)), 3),
        ((F(0), F(1, 4), F(3, 4)), 3),
        ((F(1, 3), F(2, 3)), 4),
        ((F(1), F(0)), 4),
    ],
)
def test_random_dictatorship_matches_frozen_loop_for_every_tops(weights, m):
    first_with_top = {}
    for r in all_relations(m):
        first_with_top.setdefault(r.top(), r)
    rd, twin = RandomDictatorship(weights, m), RandomDictatorship(weights, m)
    for tops in itertools.product(range(m), repeat=len(weights)):
        profile = Profile([first_with_top[t] for t in tops])
        got = rd.evaluate(profile)
        assert got == frozen_dictators_lottery(weights, profile, m)
        # equal weights and tops give the one interned lottery
        assert twin.evaluate(profile) is got


def test_condorcet_rule_point_on_winner():
    rule = CondorcetRule(3, 3)
    member = prof("a>b>c\nb>a>c\na>c>b")
    assert rule.evaluate(member) == Lottery.point(0, 3)
    with pytest.raises(OutOfDomainError):
        rule.evaluate(majority_cycle_profile(3, 3))


def test_tiebreaking_rule_extends_condorcet_rule():
    tb = rel("c>b>a")
    rule = TieBreakingCondorcetRule(tb, 4)
    plain = CondorcetRule(4, 3)
    for member in CondorcetDomain(4, 3).members():
        assert rule.evaluate(member) == plain.evaluate(member)
    tied = prof("a>b>c\nb>a>c\na>b>c\nb>a>c")
    assert rule.evaluate(tied) == Lottery.point(1, 3)


def test_plurality_and_borda_hand_cases():
    p = prof("a>b>c\na>c>b\nb>a>c")
    assert Plurality(3, 3).evaluate(p) == Lottery.point(0, 3)
    # Borda scores: a = 2+2+1 = 5, b = 1+0+2 = 3, c = 0+1+0 = 1
    assert Borda(3, 3).evaluate(p) == Lottery.point(0, 3)
    tied = prof("a>b>c\nb>a>c")
    assert Plurality(2, 3).evaluate(tied) == Lottery.uniform_over((0, 1), 3)
    assert Borda(2, 3).evaluate(tied) == Lottery.uniform_over((0, 1), 3)


def test_mixture_evaluates_convex_combination():
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    member = prof("b>a>c\nc>a>b\nb>c>a")  # majority winner b, dictator top b
    assert blend.evaluate(member) == Lottery.point(1, 3)
    split = prof("a>b>c\nb>a>c\nb>c>a")  # majority winner b, dictator top a
    assert blend.evaluate(split) == Lottery([F(1, 2), F(1, 2), F(0)])


def test_mixture_narrows_to_common_domain():
    blend = Mixture(
        [(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))]
    )
    assert blend.valid_domain == CondorcetDomain(3, 3)
    with pytest.raises(OutOfDomainError):
        blend.evaluate(majority_cycle_profile(3, 3))


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        Mixture([(F(3, 4), Dictatorship(0, 3, 3)), (F(1, 2), Dictatorship(1, 3, 3))])
    with pytest.raises(ValueError):
        Mixture([(F(-1, 4), Dictatorship(0, 3, 3)), (F(5, 4), Dictatorship(1, 3, 3))])


def test_mixture_rejects_mismatched_component_domains():
    tb_rule = TieBreakingCondorcetRule(rel("a>b>c"), 4)
    with pytest.raises(ValueError, match="different domains"):
        Mixture([(F(1, 2), CondorcetRule(4, 3)), (F(1, 2), tb_rule)])
    with pytest.raises(ValueError, match="different domains"):
        SignedMixture([(F(2), tb_rule), (F(-1), TieBreakingCondorcetRule(rel("c>b>a"), 4))])


@pytest.mark.parametrize(
    "other",
    [Dictatorship(0, 4, 3), Dictatorship(0, 3, 4), CondorcetRule(4, 3), Plurality(3, 4)],
    ids=lambda sds: f"{sds.describe()}@{sds.n},{sds.m}",
)
def test_mixture_rejects_components_of_different_shapes(other):
    # refused when built, not at the first evaluation
    with pytest.raises(ValueError, match="different shapes"):
        Mixture([(F(1, 2), Dictatorship(0, 3, 3)), (F(1, 2), other)])
    with pytest.raises(ValueError, match="different shapes"):
        Mixture([(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), other)])


def mixture_parts():
    """Every kind of part a mixture takes: the catalog rules at (3, 3), tables on
    explicit, majority and extended domains, nested mixtures, and rules of
    other shapes."""
    cond = CondorcetRule(3, 3)
    members = CondorcetDomain(3, 3).members()
    cycle = majority_cycle_profile(3, 3)
    extended = ExtendedDomain(CondorcetDomain(3, 3), [cycle])
    return [
        cond,
        TieBreakingCondorcetRule(rel("a>b>c"), 3),
        TieBreakingCondorcetRule(rel("c>b>a"), 3),
        Dictatorship(0, 3, 3),
        Dictatorship(2, 3, 3),
        RandomDictatorship([F(1, 2), F(1, 4), F(1, 4)], 3),
        Plurality(3, 3),
        Borda(3, 3),
        TableSDS({p: Lottery.uniform(3) for p in members[:5]}),
        TableSDS({p: cond.evaluate(p) for p in members}, valid_domain=CondorcetDomain(3, 3)),
        TableSDS({cycle: Lottery.uniform(3), **{p: cond.evaluate(p) for p in members}}, valid_domain=extended),
        Mixture([(F(1, 2), cond), (F(1, 2), Dictatorship(1, 3, 3))]),
        Mixture([(F(1, 3), Plurality(3, 3)), (F(2, 3), Borda(3, 3))]),
        SignedMixture([(F(3, 2), Dictatorship(0, 3, 3)), (F(-1, 2), Dictatorship(1, 3, 3))]),
        Dictatorship(0, 4, 3),
        CondorcetRule(3, 4),
    ]


def test_every_member_of_a_mixture_domain_is_a_member_of_each_part():
    # the mixture's one membership test stands for its parts'
    built = 0
    for first, second in itertools.combinations_with_replacement(mixture_parts(), 2):
        parts = [(F(1, 2), first), (F(1, 2), second)]
        shapes = {(first.n, first.m), (second.n, second.m)}
        narrow = {
            sds.valid_domain for sds in (first, second) if not isinstance(sds.valid_domain, FullDomain)
        }
        if len(shapes) > 1 or len(narrow) > 1:
            with pytest.raises(ValueError):
                Mixture(parts)
            continue
        blend = Mixture(parts)
        built += 1
        for p in blend.valid_domain.members():
            assert first.valid_domain.contains(p) and second.valid_domain.contains(p), (blend, p)
    assert built == 89


# -- the signed counterexample ---------------------------------------------------


def signed_point():
    """The family's signed point at n=4, m=3: -1/3 on the majority rule and 1/3
    on each voter's dictatorship."""
    return mixture_sds(MixtureCoefficients(F(-1, 3), (F(1, 3),) * 4), CondorcetRule(4, 3))


def test_counterexample_hand_value():
    sds = signed_point()
    p = prof("a>b>c\na>b>c\nb>a>c\nc>a>b")
    # dictators put 1/3 on a, a, b, c; the majority winner a gets -1/3
    assert sds.evaluate(p) == Lottery([F(1, 3), F(1, 3), F(1, 3)])


def test_counterexample_well_defined_everywhere():
    sds = signed_point()
    for member in CondorcetDomain(4, 3).members():
        lot = sds.evaluate(member)
        assert sum(lot.probs) == 1


def test_counterexample_matches_the_dictatorships_first_part_order():
    # the family builder puts the majority rule first; the parts in the other
    # order, dictatorships first and -1/3*cond last, give the same lotteries
    family = signed_point()
    w = F(1, 3)
    dictatorships = [(w, Dictatorship(i, 4, 3)) for i in range(4)]
    by_hand = SignedMixture(dictatorships + [(-w, CondorcetRule(4, 3))])
    assert isinstance(family, SignedMixture) and family.parts[0][0] == -w
    members = CondorcetDomain(4, 3).members()
    assert len(members) > 0
    for member in members:
        assert family.evaluate(member) == by_hand.evaluate(member)


def test_signed_mixture_flags_negative_mass():
    # without enough dictatorial weight the negative part leaks out
    bad = SignedMixture(
        [(F(3, 2), Dictatorship(0, 3, 3)), (F(-1, 2), CondorcetRule(3, 3))]
    )
    victim = prof("a>b>c\nb>a>c\nb>c>a")  # dictator top a, majority winner b
    with pytest.raises(NegativeProbabilityError):
        bad.evaluate(victim)


def test_failed_evaluations_are_not_cached():
    bad = SignedMixture(
        [(F(3, 2), Dictatorship(0, 3, 3)), (F(-1, 2), CondorcetRule(3, 3))]
    )
    victim = prof("a>b>c\nb>a>c\nb>c>a")
    for _ in range(2):
        with pytest.raises(NegativeProbabilityError):
            bad.at(victim)
    assert bad.evaluated(victim) is None


def test_evaluated_reads_only_what_at_kept():
    rule = CondorcetRule(3, 3)
    profile = prof("a>b>c\nb>a>c\nb>c>a")
    assert rule.evaluated(profile) is None
    lot = rule.at(profile)
    assert rule.evaluated(profile) is lot and rule.evaluated(prof(profile.to_text())) is lot
    assert rule.evaluated(Profile.from_code(profile.code, 4, 3)) is None


def test_at_outside_the_domain_raises_as_evaluate_does():
    rule = CondorcetRule(3, 3)
    cycle = majority_cycle_profile(3, 3)
    with pytest.raises(OutOfDomainError) as expected:
        rule.evaluate(cycle)
    with pytest.raises(OutOfDomainError) as got:
        rule.at(cycle)
    assert str(got.value) == str(expected.value)


def test_at_never_answers_for_a_profile_of_another_shape():
    # code 0 is a>b>c for every voter at any n: the two profiles share a code
    rule = CondorcetRule(3, 3)
    three = Profile.from_code(0, 3, 3)
    assert rule.at(three) == Lottery.point(0, 3)
    five = Profile.from_code(0, 5, 3)
    assert five.code == three.code
    for _ in range(2):
        with pytest.raises(ValueError, match="shape"):
            rule.at(five)
    assert rule.at(three) == Lottery.point(0, 3)


def test_at_evaluates_equal_profiles_once(monkeypatch):
    rule = CondorcetRule(3, 3)
    evaluated = []
    evaluate = rule.evaluate
    monkeypatch.setattr(rule, "evaluate", lambda p: evaluated.append(p) or evaluate(p))
    first, again = prof("a>b>c\nb>a>c\nb>c>a"), prof("a>b>c\nb>a>c\nb>c>a")
    assert first is not again
    assert rule.at(first) == rule.at(again) == rule.at(first) == Lottery.point(1, 3)
    assert evaluated == [first]


# -- tables ----------------------------------------------------------------------


def test_table_sds_lookup_and_miss():
    member = prof("a>b>c\nb>a>c\na>c>b")
    table = TableSDS({member: Lottery.uniform(3)}, valid_domain=CondorcetDomain(3, 3))
    assert table.evaluate(member) == Lottery.uniform(3)
    other = prof("a>b>c\na>b>c\na>b>c")
    with pytest.raises(TableMissError):
        table.evaluate(other)
    with pytest.raises(ValueError):
        TableSDS({})


def test_table_defaults_to_explicit_domain():
    member = prof("a>b>c\nb>a>c\na>c>b")
    table = TableSDS({member: Lottery.point(0, 3)})
    with pytest.raises(OutOfDomainError):
        table.evaluate(prof("a>b>c\na>b>c\na>b>c"))


# -- anonymity spot checks ---------------------------------------------------------


def test_anonymous_schemes_ignore_voter_order():
    rng = random.Random(13)
    rels = all_relations(3)
    cond = CondorcetRule(3, 3)
    rd = RandomDictatorship([F(1, 3)] * 3, 3)
    for _ in range(50):
        relations = [rels[rng.randrange(6)] for _ in range(3)]
        p = Profile(relations)
        shuffled = list(relations)
        rng.shuffle(shuffled)
        q = Profile(shuffled)
        if condorcet_winner(p) is not None:
            assert cond.evaluate(p) == cond.evaluate(q)
        assert rd.evaluate(p) == rd.evaluate(q)


def test_dictatorship_is_not_anonymous():
    d = Dictatorship(0, 3, 3)
    p = prof("a>b>c\nb>a>c\nb>a>c")
    q = prof("b>a>c\na>b>c\nb>a>c")
    assert d.evaluate(p) != d.evaluate(q)


# -- parsing ------------------------------------------------------------------------


def test_parse_sds_grammar():
    assert isinstance(parse_sds("cond", 3, 3), CondorcetRule)
    assert isinstance(parse_sds("plurality", 3, 3), Plurality)
    assert isinstance(parse_sds("borda", 3, 3), Borda)
    d = parse_sds("dict:2", 3, 3)
    assert isinstance(d, Dictatorship) and d.voter == 2
    rd = parse_sds("rd:1/2,1/4,1/4", 3, 3)
    assert isinstance(rd, RandomDictatorship)
    assert rd.weights == (F(1, 2), F(1, 4), F(1, 4))
    tb = parse_sds("tb-cond:b>a>c", 4, 3)
    assert isinstance(tb, TieBreakingCondorcetRule)
    assert tb.tiebreaker == rel("b>a>c")
    with pytest.raises(ValueError, match="tie-breaker ranks a different slate"):
        parse_sds("tb-cond:a>b>c", 4, 4)


def test_parse_sds_mixtures():
    blend = parse_sds("mix:1/2*cond+1/2*dict:0", 3, 3)
    assert isinstance(blend, Mixture)
    assert [w for w, _ in blend.parts] == [F(1, 2), F(1, 2)]
    signed = parse_sds("signed:3/2*dict:0+-1/2*cond", 3, 3)
    assert isinstance(signed, SignedMixture)
    with pytest.raises(ValueError):
        parse_sds("rd:1/2,1/2", 3, 3)
    with pytest.raises(ValueError):
        parse_sds("mystery", 3, 3)
    with pytest.raises(ValueError):
        parse_sds("mix:cond", 3, 3)


def test_parse_table_file_round_trip(tmp_path):
    member = prof("a>b>c\nb>a>c\na>c>b")
    text = member.to_text() + "\n" + '{"a": "1/2", "b": "1/2"}\n'
    mapping = parse_table_file(text, 3, 3)
    assert mapping == {member: Lottery([F(1, 2), F(1, 2), F(0)])}
    with pytest.raises(ValueError):
        parse_table_file(member.to_text() + "\n", 3, 3)
    with pytest.raises(ValueError):
        parse_table_file('{"a": "1"}\n', 3, 3)
    with pytest.raises(ValueError, match="'d'"):
        parse_table_file(member.to_text() + '\n{"a": "1", "d": "0"}\n', 3, 3)
    path = tmp_path / "table.txt"
    path.write_text(text)
    table = parse_sds(f"table:{path}", 3, 3)
    assert isinstance(table, TableSDS)
    assert table.evaluate(member) == Lottery([F(1, 2), F(1, 2), F(0)])


@pytest.mark.parametrize(
    "block, m, shape",
    [
        ("a>b>c>d\nb>a>c>d\nc>d>a>b", 3, "(3, 4), expected (3, 3)"),
        ("a>b>c\nb>a>c\nc>a>b", 4, "(3, 3), expected (3, 4)"),
        ("a>b>c\nb>a>c", 3, "(2, 3), expected (3, 3)"),
    ],
    ids=["m4-block-under-m3", "m3-block-under-m4", "two-voters-under-n3"],
)
def test_parse_table_file_refuses_a_block_of_another_shape(block, m, shape):
    with pytest.raises(ValueError) as caught:
        parse_table_file(block + '\n{"a": "1"}\n', 3, m)
    assert str(caught.value) == f"table block has shape {shape}"


def test_parse_table_file_reads_blocks_like_profile_files():
    # the same comment and blank-line rules as profile files, inside a block too
    text = '# first block\na>b>c  # voter 0\n\nb>a>c\n# voter 2\na>c>b\n{"a": "1"}\n'
    assert parse_table_file(text, 3, 3) == {prof("a>b>c\nb>a>c\na>c>b"): Lottery.point(0, 3)}
    with pytest.raises(ValueError, match="trailing"):
        parse_table_file(text + "c>b>a\n# no lottery line\n", 3, 3)
    assert parse_table_file(text + "\n# trailing comment\n\n", 3, 3) == parse_table_file(text, 3, 3)


def test_parse_table_file_refuses_a_profile_named_twice():
    member = prof("a>b>c\nb>c>a\nc>a>b")
    text = member.to_text() + '\n{"a": "1"}\n' + member.to_text() + '\n{"b": "1"}\n'
    with pytest.raises(ValueError) as caught:
        parse_table_file(text, 3, 3)
    assert member.to_text() in str(caught.value)


def test_one_mixture_evaluation_makes_one_membership_check(monkeypatch):
    seen = []
    evaluate = SDS.evaluate

    def traced(self, profile):
        seen.append(self.describe())
        return evaluate(self, profile)

    monkeypatch.setattr(SDS, "evaluate", traced)
    inner = Mixture([(F(1, 2), CondorcetRule(3, 3)), (F(1, 2), Dictatorship(0, 3, 3))])
    blend = Mixture([(F(1, 2), inner), (F(1, 2), Plurality(3, 3))])
    member = prof("a>b>c\na>b>c\nb>a>c")
    assert blend.evaluate(member) == Lottery.point(0, 3)
    assert seen == [blend.describe()]

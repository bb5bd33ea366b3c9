from fractions import Fraction
from math import gcd, lcm
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab import ratlp
from condlab.domains import CapExceededError
from condlab.ratlp import UnboundedModelError, fm_feasible, simplex_maximize

F = Fraction


def test_simplex_two_variable_box():
    value, point = simplex_maximize(
        [F(1), F(1)],
        [((F(1), F(0)), F(1)), ((F(0), F(1)), F(2))],
    )
    assert value == 3
    assert point == [F(1), F(2)]


def test_simplex_fractional_optimum():
    # max x + y s.t. 2x + y <= 1, x + 3y <= 2
    value, point = simplex_maximize(
        [F(1), F(1)],
        [((F(2), F(1)), F(1)), ((F(1), F(3)), F(2))],
    )
    assert value == F(4, 5)
    assert point == [F(1, 5), F(3, 5)]
    assert 2 * point[0] + point[1] <= 1
    assert point[0] + 3 * point[1] <= 2


def test_simplex_rejects_negative_rhs():
    with pytest.raises(ValueError):
        simplex_maximize([F(1)], [((F(1),), F(-1))])


def test_simplex_detects_unbounded():
    with pytest.raises(UnboundedModelError):
        simplex_maximize([F(1), F(1)], [((F(1), F(-1)), F(1))])


def test_simplex_binding_constraints_are_respected():
    # max 3x + 2y s.t. x + y <= 4, x <= 2
    value, point = simplex_maximize(
        [F(3), F(2)],
        [((F(1), F(1)), F(4)), ((F(1), F(0)), F(2))],
    )
    assert value == 10
    assert point == [F(2), F(2)]


def test_fm_feasible_returns_point():
    ok, point, conflict = fm_feasible(
        [
            ((F(1), F(1)), F(1), frozenset({"sum"})),
            ((F(-1), F(0)), F(0), frozenset({"x-nonneg"})),
            ((F(0), F(-1)), F(0), frozenset({"y-nonneg"})),
        ],
        2,
    )
    assert ok and conflict is None
    x, y = point
    assert x + y <= 1 and x >= 0 and y >= 0


def test_fm_infeasible_reports_conflict_tags():
    ok, point, conflict = fm_feasible(
        [
            ((F(1),), F(-1), frozenset({"upper"})),
            ((F(-1),), F(0), frozenset({"lower"})),
            ((F(1),), F(5), frozenset({"slack"})),
        ],
        1,
    )
    assert not ok and point is None
    assert conflict == {"upper", "lower"}


def test_fm_handles_equalities_as_paired_rows():
    # x = 2/3 expressed as two inequalities, plus x <= 1
    ok, point, _ = fm_feasible(
        [
            ((F(1),), F(2, 3), frozenset({"eq-up"})),
            ((F(-1),), F(-2, 3), frozenset({"eq-down"})),
            ((F(1),), F(1), frozenset({"cap"})),
        ],
        1,
    )
    assert ok
    assert point == [F(2, 3)]


small = st.integers(min_value=-3, max_value=3).map(F)


@st.composite
def bounded_models(draw):
    """A small LP over x >= 0 with a box row per variable, so it is bounded."""
    num_vars = draw(st.integers(min_value=1, max_value=3))
    objective = draw(st.lists(small, min_size=num_vars, max_size=num_vars))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(small, min_size=num_vars, max_size=num_vars).map(tuple),
                st.integers(min_value=0, max_value=5).map(F),
            ),
            max_size=3,
        )
    )
    for var in range(num_vars):
        unit = tuple(F(1) if j == var else F(0) for j in range(num_vars))
        rows.append((unit, F(draw(st.integers(min_value=0, max_value=4)))))
    return objective, rows


def frozen_simplex_maximize(objective, rows):
    """``simplex_maximize`` as it read before pivots skipped zero entries."""
    num_vars, num_rows = len(objective), len(rows)
    width = num_vars + num_rows + 1
    tableau = []
    for r, (coeffs, rhs) in enumerate(rows):
        row = [F(c) for c in coeffs]
        row.extend(F(1) if s == r else F(0) for s in range(num_rows))
        row.append(F(rhs))
        tableau.append(row)
    cost = [-F(c) for c in objective] + [F(0)] * (num_rows + 1)
    basis = [num_vars + r for r in range(num_rows)]
    while True:
        entering = next((j for j in range(width - 1) if cost[j] < 0), None)
        if entering is None:
            break
        leaving, best = None, None
        for r in range(num_rows):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if leaving is None:
            raise UnboundedModelError("objective is unbounded above")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for r in range(num_rows):
            if r != leaving and tableau[r][entering] != 0:
                factor = tableau[r][entering]
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], tableau[leaving])]
        if cost[entering] != 0:
            factor = cost[entering]
            cost = [v - factor * p for v, p in zip(cost, tableau[leaving])]
        basis[leaving] = entering
    solution = [F(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = tableau[r][-1]
    return sum(c * x for c, x in zip(objective, solution)), solution


@st.composite
def sparse_models(draw):
    """Up to 12 rows over up to 5 variables, most coefficients 0 or 1 as in the
    dictatorial-weight program, some unbounded."""
    num_vars = draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from([F(0), F(0), F(1), F(1), F(2, 3), F(-1)])
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(entry, min_size=num_vars, max_size=num_vars).map(tuple),
                st.fractions(min_value=0, max_value=3, max_denominator=12),
            ),
            max_size=12,
        )
    )
    return [F(1)] * num_vars, rows


@given(st.one_of(bounded_models(), sparse_models()))
def test_simplex_matches_frozen_body(model):
    # the pivot skips zero entries; the pivots, value and point must not change
    try:
        want = frozen_simplex_maximize(*model)
    except UnboundedModelError:
        with pytest.raises(UnboundedModelError):
            simplex_maximize(*model)
        return
    assert simplex_maximize(*model) == want


@given(
    bounded_models(),
    st.fractions(min_value=0, max_value=2).filter(lambda e: e > 0),
)
def test_simplex_optimum_is_tight_under_fourier_motzkin(model, epsilon):
    objective, rows = model
    value, point = simplex_maximize(objective, rows)
    num_vars = len(objective)
    assert all(x >= 0 for x in point)
    assert sum(c * x for c, x in zip(objective, point)) == value
    nonnegative = [
        (tuple(F(-1) if j == var else F(0) for j in range(num_vars)), F(0))
        for var in range(num_vars)
    ]
    model_rows = [(coeffs, rhs, frozenset()) for coeffs, rhs in rows + nonnegative]
    goal = tuple(-c for c in objective)
    reached, _, _ = fm_feasible(model_rows + [(goal, -value, frozenset())], num_vars)
    assert reached
    beyond, _, _ = fm_feasible(model_rows + [(goal, -(value + epsilon), frozenset())], num_vars)
    assert not beyond


def _reference_dedupe(rows):
    best: dict = {}
    for coeffs, rhs, tags in rows:
        for c in coeffs:
            if c != 0:
                coeffs, rhs = tuple(v / abs(c) for v in coeffs), rhs / abs(c)
                break
        kept = best.get(coeffs)
        if kept is None or rhs < kept[0]:
            best[coeffs] = (rhs, tags)
    return [(coeffs, rhs, tags) for coeffs, (rhs, tags) in best.items()]


def reference_fm_feasible(rows, num_vars):
    """Fixed-order reference for ``fm_feasible``: eliminate ``x[n-1], ..., x[0]``
    and rebuild the point by back-substitution in index order."""
    current = _reference_dedupe(
        [(tuple(Fraction(c) for c in coeffs), Fraction(rhs), tags) for coeffs, rhs, tags in rows]
    )
    levels = []
    for var in range(num_vars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, rhs, tags in current:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, rhs, tags))
            elif a < 0:
                neg.append((coeffs, rhs, tags))
            else:
                rest.append((coeffs, rhs, tags))
        levels.append((var, pos, neg))
        combined = list(rest)
        for pc, pr, pt in pos:
            a = pc[var]
            for nc, nr, nt in neg:
                b = -nc[var]
                coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
                combined.append((coeffs, b * pr + a * nr, pt | nt))
        current = _reference_dedupe(combined)

    for coeffs, rhs, tags in current:
        if rhs < 0:
            return False, None, tags

    point = [Fraction(0)] * num_vars
    for var, pos, neg in reversed(levels):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for coeffs, rhs, _ in pos:
            bound = (rhs - sum(coeffs[j] * point[j] for j in range(num_vars) if j != var)) / coeffs[var]
            if hi is None or bound < hi:
                hi = bound
        for coeffs, rhs, _ in neg:
            bound = (rhs - sum(coeffs[j] * point[j] for j in range(num_vars) if j != var)) / coeffs[var]
            if lo is None or bound > lo:
                lo = bound
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = min(hi, Fraction(0))
        elif hi is None:
            value = max(lo, Fraction(0))
        elif lo <= 0 <= hi:
            value = Fraction(0)
        else:
            value = (lo + hi) / 2
        point[var] = value
    return True, point, None


@st.composite
def tagged_systems(draw):
    """Up to nine rows over up to four free variables, each row tagged with its
    own index; some rows come with their negation, making an equality."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    drawn = draw(
        st.lists(
            st.tuples(
                st.lists(small, min_size=num_vars, max_size=num_vars).map(tuple),
                st.integers(min_value=-4, max_value=4).map(F),
                st.booleans(),
            ),
            min_size=1,
            max_size=9,
        )
    )
    rows = []
    for coeffs, rhs, paired in drawn:
        rows.append((coeffs, rhs))
        if paired:
            rows.append((tuple(-c for c in coeffs), -rhs))
    return num_vars, [(coeffs, rhs, frozenset({i})) for i, (coeffs, rhs) in enumerate(rows[:9])]


@settings(max_examples=300)
@given(tagged_systems())
def test_fm_feasible_matches_fixed_order_reference(system):
    num_vars, rows = system
    ok, point, conflict = fm_feasible(rows, num_vars)
    ref_ok, ref_point, _ = reference_fm_feasible(rows, num_vars)
    assert ok == ref_ok
    if ok:
        assert point == ref_point
    else:
        blamed = [row for row in rows if row[2] <= conflict]
        assert blamed and not reference_fm_feasible(blamed, num_vars)[0]


def _rows(*spec):
    return [(tuple(F(c) for c in coeffs), F(rhs), frozenset({tag})) for coeffs, rhs, tag in spec]


def test_fm_witness_guard_rejects_a_point_off_an_input_row(monkeypatch):
    # x >= 1; a projection that loses every row leaves x = 0.
    eliminate = ratlp._eliminate
    calls = []

    def lossy(rows, variables):
        calls.append(variables)
        return eliminate(rows, variables) if len(calls) == 1 else []

    monkeypatch.setattr(ratlp, "_eliminate", lossy)
    with pytest.raises(RuntimeError, match="violates"):
        fm_feasible(_rows(((-1,), -1, "x>=1")), 1)


def test_fm_witness_guard_rejects_an_empty_interval(monkeypatch):
    eliminate = ratlp._eliminate
    calls = []

    def contradictory(rows, variables):
        calls.append(variables)
        if len(calls) == 1:
            return eliminate(rows, variables)
        # projected rows are (coeffs, rhs numerator, rhs denominator, tags)
        return [((1,), 0, 1, None), ((-1,), -1, 1, None)]

    monkeypatch.setattr(ratlp, "_eliminate", contradictory)
    with pytest.raises(RuntimeError, match="no value"):
        fm_feasible(_rows(((1,), 5, "x<=5")), 1)


def test_fm_point_settles_zero_first_and_projects_only_when_it_fails(monkeypatch):
    # x0 in [1, 3] takes the midpoint; then x1 >= x0 + 1 has one bound, 3;
    # x2 in [-5, 0] takes 0, which the zero test settles without projecting.
    eliminate = ratlp._eliminate
    calls = []

    def counted(rows, variables):
        calls.append(tuple(variables))
        return eliminate(rows, variables)

    monkeypatch.setattr(ratlp, "_eliminate", counted)
    ok, point, _ = fm_feasible(
        _rows(
            ((1, 0, 0), 3, "x0<=3"), ((-1, 0, 0), -1, "x0>=1"), ((1, -1, 0), -1, "x1>=x0+1"),
            ((0, 0, 1), 0, "x2<=0"), ((0, 0, -1), 5, "x2>=-5"),
        ),
        3,
    )
    assert ok and point == [F(2), F(3), F(0)]
    # the verdict, then per variable the zero test and, where 0 fails, the projection
    assert calls == [(0, 1, 2), (1, 2), (1, 2), (2,), (2,), ()]


def test_fm_row_cap_still_applies(monkeypatch):
    monkeypatch.setattr(ratlp, "FM_ROW_CAP", 3)
    # x[0] has three upper and two lower bounds: six combined rows.
    rows = _rows(
        ((1, 1), 1, 0), ((1, 2), 1, 1), ((1, 3), 1, 2), ((-1, 1), 1, 3), ((-1, 2), 1, 4),
        ((0, 1), 1, 5), ((0, -1), 1, 6), ((0, -2), 1, 7), ((0, -3), 1, 8),
    )
    with pytest.raises(CapExceededError):
        fm_feasible(rows, 2)


def test_fm_row_cap_bounds_the_rows_one_step_makes(monkeypatch):
    # Both variables grow by 0; x1 goes first and makes the zero row plus
    # 2 * 2 combinations. No later elimination makes more.
    rows = _rows(
        ((1, 1), 1, 0), ((1, -1), 1, 1), ((-1, 1), 1, 2), ((-1, -1), 1, 3), ((0, 0), 5, 4),
    )
    monkeypatch.setattr(ratlp, "FM_ROW_CAP", 5)
    assert fm_feasible(rows, 2)[0]
    monkeypatch.setattr(ratlp, "FM_ROW_CAP", 4)
    with pytest.raises(CapExceededError):
        fm_feasible(rows, 2)


def test_fm_rejects_rows_of_the_wrong_width():
    # x0 + x1 <= -1 read as a one-variable row would be a wrong infeasible verdict
    with pytest.raises(ValueError, match="row width"):
        fm_feasible(_rows(((1, 1), -1, "a"), ((-1,), 0, "b")), 1)
    with pytest.raises(ValueError, match="row width"):
        fm_feasible(_rows(((1,), 0, "a"), ((-1, 0), 0, "b")), 2)


# The Fraction kernel that ``fm_feasible`` ran before it worked in integer
# pairs, kept as an oracle without its row cap and fault guards: the same
# elimination order, dedupe rule, point rule and conflict, with every
# right-hand side a Fraction.


def _fraction_integer_row(coeffs, rhs):
    coeffs = [Fraction(c) for c in coeffs]
    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs), Fraction(rhs) * scale


def _fraction_normalize(coeffs, rhs):
    g = gcd(*coeffs)
    if g > 1:
        return tuple(c // g for c in coeffs), rhs / g
    return coeffs, rhs


def _fraction_dedupe(rows):
    best: dict = {}
    for coeffs, rhs, tags in rows:
        coeffs, rhs = _fraction_normalize(coeffs, rhs)
        kept = best.get(coeffs)
        if kept is None or rhs < kept[0]:
            best[coeffs] = (rhs, tags)
    return [(coeffs, rhs, tags) for coeffs, (rhs, tags) in best.items()]


def _fraction_eliminate(rows, variables):
    current = _fraction_dedupe(rows)
    remaining = set(variables)
    while remaining:
        def growth(var):
            pos = sum(1 for coeffs, _, _ in current if coeffs[var] > 0)
            neg = sum(1 for coeffs, _, _ in current if coeffs[var] < 0)
            return pos * neg - pos - neg, -var

        var = min(remaining, key=growth)
        remaining.remove(var)
        pos, neg, combined = [], [], []
        for row in current:
            a = row[0][var]
            (pos if a > 0 else neg if a < 0 else combined).append(row)
        for pc, pr, pt in pos:
            a = pc[var]
            for nc, nr, nt in neg:
                b = -nc[var]
                coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
                combined.append((coeffs, b * pr + a * nr, pt | nt))
        current = _fraction_dedupe(combined)
    return current


def reference_fraction_fm_feasible(rows, num_vars):
    scaled = [_fraction_integer_row(coeffs, rhs) + (tags,) for coeffs, rhs, tags in rows]
    for coeffs, rhs, tags in _fraction_eliminate(scaled, range(num_vars)):
        if rhs < 0:
            return False, None, tags

    point = [Fraction(0)] * num_vars
    current = scaled
    for var in range(num_vars):
        lo = hi = None
        for coeffs, rhs, _ in _fraction_eliminate(current, range(var + 1, num_vars)):
            a = coeffs[var]
            if a > 0 and (hi is None or rhs / a < hi):
                hi = rhs / a
            elif a < 0 and (lo is None or rhs / a > lo):
                lo = rhs / a
        if (lo is None or lo <= 0) and (hi is None or hi >= 0):
            value = Fraction(0)
        elif lo is None or hi is None:
            value = lo if hi is None else hi
        else:
            value = (lo + hi) / 2
        point[var] = value
        current = [
            (coeffs[:var] + (0,) + coeffs[var + 1 :], rhs - coeffs[var] * value, tags)
            for coeffs, rhs, tags in current
        ]
    return True, point, None


mixed = st.builds(F, st.integers(min_value=-6, max_value=6), st.sampled_from((1, 2, 3, 4)))


@st.composite
def exact_systems(draw):
    """Up to ten rows over up to four free variables with mixed denominators,
    each tagged with its position. A drawn row may come with its negation (an
    equality) or with a positive multiple whose right-hand side is scaled
    alike (a dedupe tie) or shifted; a zero row comes with a second one."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for coeffs, rhs, kind in draw(
        st.lists(
            st.tuples(
                st.lists(mixed, min_size=num_vars, max_size=num_vars).map(tuple),
                mixed,
                st.sampled_from(("plain", "equality", "multiple", "zero")),
            ),
            min_size=1,
            max_size=7,
        )
    ):
        if kind == "zero":
            coeffs = (F(0),) * num_vars
            rows.append((coeffs, draw(mixed)))
        rows.append((coeffs, rhs))
        if kind == "equality":
            rows.append((tuple(-c for c in coeffs), -rhs))
        elif kind == "multiple":
            k = draw(st.sampled_from((F(1, 3), F(1, 2), F(2), F(5, 2), F(4))))
            shift = draw(st.sampled_from((F(0), F(0), F(-1), F(1, 2))))
            rows.append((tuple(k * c for c in coeffs), k * rhs + shift))
    rows = draw(st.permutations(rows[:10]))
    return num_vars, [(coeffs, rhs, frozenset({i})) for i, (coeffs, rhs) in enumerate(rows)]


@settings(max_examples=600, deadline=None)
@given(exact_systems())
def test_fm_feasible_matches_fraction_reference(system):
    num_vars, rows = system
    ok, point, conflict = fm_feasible(rows, num_vars)
    assert (ok, point, conflict) == reference_fraction_fm_feasible(rows, num_vars)

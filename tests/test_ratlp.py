from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

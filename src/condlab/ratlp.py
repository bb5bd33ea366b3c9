"""Exact linear programming over rationals for small dense models.

Two engines, both exact:

* :func:`simplex_maximize` optimizes ``c . x`` subject to ``A x <= b`` and
  ``x >= 0`` by primal simplex with Bland's rule. Every right-hand side must
  be nonnegative so the origin is a basic feasible point; the callers in
  this package arrange their models that way and treat a negative right-hand
  side as model infeasibility before pivoting starts.

* :func:`fm_feasible` decides feasibility of ``A x <= b`` (free variables)
  by Fourier-Motzkin elimination, tracking which original constraints were
  combined into each derived row. The elimination creates no ``Fraction``:
  each input row is scaled to integer coefficients, its right-hand side
  held as a reduced integer pair ``(num, den)`` with ``den > 0`` and
  compared by cross-multiplication, and every row is kept divided by the
  gcd of its coefficients, so rows with the same direction share one key.
  Each step eliminates the variable adding the fewest rows (ties: highest
  index). On infeasibility that provenance
  is an audit trail: a nonnegative combination of exactly those constraints
  is contradictory. On feasibility the point, the only ``Fraction`` output,
  depends on the feasible region alone: in index order, each variable,
  with the earlier values substituted, takes 0 if that fits, else its one
  finite bound, else the midpoint of its interval. Whether 0 fits is one
  feasibility elimination of the later variables with 0 substituted too;
  only when it does not is the variable projected (without provenance) to
  find its interval. :func:`satisfies` is the one test of a point on rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .core import CapExceededError

FM_ROW_CAP = 200_000


class UnboundedModelError(RuntimeError):
    """The linear program has unbounded objective value."""


def simplex_maximize(
    objective: Sequence[Fraction], rows: Sequence[Tuple[Sequence[Fraction], Fraction]]
) -> Tuple[Fraction, List[Fraction]]:
    """Maximize ``objective . x`` s.t. ``coeffs . x <= rhs`` per row and ``x >= 0``."""
    num_vars = len(objective)
    for coeffs, rhs in rows:
        if rhs < 0:
            raise ValueError("simplex_maximize needs nonnegative right-hand sides")
        if len(coeffs) != num_vars:
            raise ValueError("row width does not match objective")
    num_rows = len(rows)
    width = num_vars + num_rows + 1
    # tableau rows: [A | I | b]; objective row keeps reduced costs. Fractions
    # are immutable, so every zero is one object, and a pivot leaves zeros as
    # they are: most of the tableau is slack columns that stay 0.
    zero = Fraction(0)
    tableau = []
    for r, (coeffs, rhs) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [zero] * num_rows + [Fraction(rhs)]
        row[num_vars + r] = Fraction(1)
        tableau.append(row)
    cost = [-Fraction(c) for c in objective] + [zero] * (num_rows + 1)
    basis = [num_vars + r for r in range(num_rows)]

    while True:
        entering = next((j for j in range(width - 1) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best: Optional[Fraction] = None
        for r in range(num_rows):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise UnboundedModelError("objective is unbounded above")
        pivot = tableau[leaving][entering]
        tableau[leaving] = pivot_row = [v / pivot if v else v for v in tableau[leaving]]
        for r in range(num_rows):
            factor = tableau[r][entering]
            if r != leaving and factor:
                tableau[r] = [v - factor * p if p else v for v, p in zip(tableau[r], pivot_row)]
        factor = cost[entering]
        if factor:
            cost = [v - factor * p if p else v for v, p in zip(cost, pivot_row)]
        basis[leaving] = entering

    solution = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = tableau[r][-1]
    value = sum(c * x for c, x in zip(objective, solution))
    return value, solution


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction):
    """``coeffs . x <= rhs`` scaled by a positive factor to integer
    coefficients, as ``(coeffs, num, den)`` with ``num / den`` the reduced
    right-hand side. Every value must be an ``int`` or a ``Fraction``."""
    scale = lcm(*(c.denominator for c in coeffs))
    num, den = rhs.numerator * scale, rhs.denominator
    g = gcd(num, den)
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs), num // g, den // g


def _dedupe(rows):
    """One row per direction: coefficients divided by their gcd (which never
    includes the right-hand side) and the right-hand side by the same number;
    the least right-hand side wins, the first seen on a tie."""
    best: dict = {}
    for row in rows:
        coeffs, num, den, tags = row
        g = gcd(*coeffs)
        if g > 1:
            coeffs, den = tuple(c // g for c in coeffs), den * g
        r = gcd(num, den)
        if g > 1 or r > 1:
            row = (coeffs, num // r, den // r, tags)
        kept = best.get(coeffs)
        if kept is None or num * kept[2] < kept[1] * den:
            best[coeffs] = row
    return list(best.values())


def _eliminate(rows, variables):
    """Project ``rows`` by eliminating ``variables``, each step taking the one
    with least ``|pos| * |neg| - |pos| - |neg|``, ties to the highest index.
    Rows are ``(coeffs, num, den, tags)``; a combined row's tags are the union
    of its parents' unless they are ``None``. A step that would make more than
    ``FM_ROW_CAP`` rows raises ``CapExceededError`` before building any."""
    current = _dedupe(rows)
    remaining = set(variables)
    while remaining and current:  # no rows, no columns to count
        columns = list(zip(*(row[0] for row in current)))

        def growth(var):
            column = columns[var]
            pos = sum(c > 0 for c in column)
            neg = len(column) - column.count(0) - pos
            return pos * neg - pos - neg, -var

        var = min(remaining, key=growth)
        remaining.remove(var)
        pos, neg, combined = [], [], []
        for row in current:
            a = row[0][var]
            (pos if a > 0 else neg if a < 0 else combined).append(row)
        if len(combined) + len(pos) * len(neg) > FM_ROW_CAP:
            raise CapExceededError("Fourier-Motzkin row blow-up")
        for pc, pn, pd, pt in pos:
            a = pc[var]
            for nc, nn, nd, nt in neg:
                b = -nc[var]
                coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
                num = b * pn * nd + a * nn * pd
                combined.append((coeffs, num, pd * nd, None if pt is None else pt | nt))
        current = _dedupe(combined)
    return current


def _substitute(rows, var, value: Fraction):
    """``rows`` with ``x[var] = value`` moved into the right-hand sides."""
    vn, vd = value.numerator, value.denominator
    out = []
    for row in rows:
        coeffs, num, den, _ = row
        c = coeffs[var]
        if c:
            num, den = num * vd - c * vn * den, den * vd
            g = gcd(num, den)
            row = (coeffs[:var] + (0,) + coeffs[var + 1 :], num // g, den // g, None)
        out.append(row)
    return out


def fm_feasible(
    rows: Sequence[Tuple[Sequence[Fraction], Fraction, frozenset]], num_vars: int
):
    """Fourier-Motzkin feasibility for ``coeffs . x <= rhs`` rows with free variables.

    Each row carries a frozenset of caller-chosen tags. Returns
    ``(True, point, None)`` or ``(False, None, conflict_tags)``. A built point
    that fails an input row is an internal fault and raises ``RuntimeError``.
    """
    if any(len(coeffs) != num_vars for coeffs, _, _ in rows):
        raise ValueError("row width does not match num_vars")
    scaled = [_integer_row(coeffs, rhs) for coeffs, rhs, _ in rows]
    tagged = [row + (tags,) for row, (_, _, tags) in zip(scaled, rows)]
    for coeffs, num, den, tags in _eliminate(tagged, range(num_vars)):
        if num < 0:
            return False, None, tags

    point = [Fraction(0)] * num_vars
    current = [row + (None,) for row in scaled]
    for var in range(num_vars):
        later = range(var + 1, num_vars)
        zeroed = _substitute(current, var, Fraction(0))
        if all(num >= 0 for _, num, _, _ in _eliminate(zeroed, later)):
            current = zeroed  # x[var] = 0 fits: the point already holds it
            continue
        lo = hi = None  # bounds as (num, den) pairs, den > 0
        for coeffs, num, den, _ in _eliminate(current, later):
            a = coeffs[var]
            if a > 0 and (hi is None or num * hi[1] < hi[0] * den * a):
                hi = (num, den * a)
            elif a < 0 and (lo is None or num * lo[1] < lo[0] * den * a):
                lo = (-num, -den * a)
        lo = None if lo is None else Fraction(*lo)
        hi = None if hi is None else Fraction(*hi)
        if lo is not None and hi is not None and lo > hi:
            raise RuntimeError(f"Fourier-Motzkin found no value for variable {var}")
        # 0 failed the test above, so it lies outside [lo, hi]
        point[var] = lo if hi is None else hi if lo is None else (lo + hi) / 2
        current = _substitute(current, var, point[var])
    if not satisfies(rows, point):
        raise RuntimeError("Fourier-Motzkin point violates an input row")
    return True, point, None


def satisfies(rows: Sequence[Tuple[Sequence[Fraction], Fraction, frozenset]], point) -> bool:
    """Whether ``point`` meets every tagged ``coeffs . x <= rhs`` row."""
    return all(sum(c * x for c, x in zip(coeffs, point) if c and x) <= rhs for coeffs, rhs, _ in rows)

"""Reference implementations the engines are tested against.

No engine or CLI path runs them.

``feasible_point``: exact feasibility of small linear-inequality systems
over the rationals, the leaf solver of the disjunctive core search in
``test_core.py``.  Core membership is boundary-sensitive, so that search
cannot run on float comparisons.  This solver takes constraints
``coeffs . x <= rhs`` with Fraction data and free variables, rewrites
x_k = y_k - t with a shared shift (all nonnegative), and runs a
phase-one simplex with Bland's rule.  Everything stays in Fractions;
the answer is exact for the given data.

Scale is tiny by design (a handful of variables, a few dozen rows), so
clarity wins over pivoting tricks.

``bruteforce_max_matching``: the maximum-total-reward matching by a scan
of all n! assignments, against which ``optimal_assignment`` and the
``ft`` core search are checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

from matchkit import Matching
from matchkit.transferable import _square

ZERO = Fraction(0)
ONE = Fraction(1)

Constraint = tuple[Sequence[Fraction], Fraction]  # (coefficients, rhs): coeffs . x <= rhs


def feasible_point(num_vars: int, constraints: Sequence[Constraint]) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every constraint, or None.

    Free variables; each constraint is (coeffs, rhs) with len(coeffs)
    == num_vars, meaning sum(coeffs[k] * x[k]) <= rhs.
    """
    if not constraints:
        return (ZERO,) * num_vars
    m = len(constraints)
    d = num_vars + 1  # y variables plus the shared shift t

    # Build rows over columns [y_0..y_{nv-1}, t, s_0..s_{m-1}, artificials..., rhs].
    n_art = sum(1 for _, rhs in constraints if rhs < 0)
    width = d + m + n_art
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    art_base = d + m
    art_used = 0
    for r, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != num_vars:
            raise ValueError(f"constraint {r} has {len(coeffs)} coefficients, expected {num_vars}")
        shift = -sum(coeffs, ZERO)
        row = [ZERO] * (width + 1)
        for k, c in enumerate(coeffs):
            row[k] = Fraction(c)
        row[num_vars] = shift
        rhs = Fraction(rhs)
        if rhs < 0:
            for k in range(d):
                row[k] = -row[k]
            rhs = -rhs
            row[d + r] = -ONE
            col = art_base + art_used
            art_used += 1
            row[col] = ONE
            basis.append(col)
        else:
            row[d + r] = ONE
            basis.append(d + r)
        row[width] = rhs
        rows.append(row)

    # Phase-one objective: minimize the sum of artificials.  Reduced-cost
    # row starts as -(sum of rows whose basic variable is artificial),
    # with +1 restored on the artificial columns themselves.
    obj = [ZERO] * (width + 1)
    for r in range(m):
        if basis[r] >= art_base:
            row = rows[r]
            for k in range(width + 1):
                obj[k] -= row[k]
    for col in range(art_base, art_base + n_art):
        obj[col] += ONE

    while True:
        enter = -1
        for col in range(width):  # Bland: smallest eligible index
            if obj[col] < 0:
                enter = col
                break
        if enter == -1:
            break
        leave = -1
        best_ratio = None
        for r in range(m):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][width] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave == -1:  # pragma: no cover - phase one is bounded below
            raise ArithmeticError("phase-one simplex claims unboundedness")
        _pivot(rows, obj, basis, leave, enter, width)

    if -obj[width] != 0:  # leftover artificial value: infeasible
        return None
    values = [ZERO] * width
    for r in range(m):
        values[basis[r]] = rows[r][width]
    t = values[num_vars]
    return tuple(values[k] - t for k in range(num_vars))


def _pivot(rows, obj, basis, leave: int, enter: int, width: int) -> None:
    pivot_row = rows[leave]
    coef = pivot_row[enter]
    inv = ONE / coef
    for k in range(width + 1):
        pivot_row[k] *= inv
    for r, row in enumerate(rows):
        if r == leave:
            continue
        factor = row[enter]
        if factor != 0:
            for k in range(width + 1):
                row[k] -= factor * pivot_row[k]
    factor = obj[enter]
    if factor != 0:
        for k in range(width + 1):
            obj[k] -= factor * pivot_row[k]
    basis[leave] = enter


def satisfies(point: Sequence[Fraction], constraints: Sequence[Constraint]) -> bool:
    """Exact check that a point meets every constraint."""
    for coeffs, rhs in constraints:
        total = ZERO
        for c, x in zip(coeffs, point):
            total += c * x
        if total > rhs:
            return False
    return True


def bruteforce_max_matching(theta: Sequence[Sequence[float]]) -> tuple[Matching, float]:
    """Oracle: maximum over all n! assignments by direct enumeration."""
    mat = _square(theta).tolist()
    n = len(mat)
    best_perm = None
    best_value = -float("inf")
    for perm in permutations(range(n)):
        value = sum(mat[i][perm[i]] for i in range(n))
        if value > best_value:
            best_value = value
            best_perm = perm
    return Matching(best_perm), best_value

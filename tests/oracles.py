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

``fnt_blocking_pairs``: the blocking pairs of a whole matching by a Python
loop over every pair, with the same float subtractions and ``> eps`` tests
as ``find_fnt_blocking_pairs`` makes on the tables' arrays.

``fraction_search_core``: ``search_core``'s descent with every value a
Fraction of the floats' exact values, against which its integer descent on
the instance's power-of-two grid is checked.  It returns the cuts or None,
or raises the same error, and counts its rounds (sweeps).

``scalar_random_instance`` and ``scalar_instance_stream``: the seeded
generators drawing one reward at a time through ``Distribution.sample``
and ``SplitMix64.uniform01``, against which the block draws of
``random_instance`` and ``mixed_instance_stream`` are checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from matchkit import (
    CutVector, Instance, Matching, NonFiniteEntryError, SplitMix64, Uniform01,
    counterexample_instance, derive_seed,
)
from matchkit.bargaining import _halfplanes
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
    mat = _square(theta).array.tolist()
    n = len(mat)
    best_perm = None
    best_value = -float("inf")
    for perm in permutations(range(n)):
        value = sum(mat[i][perm[i]] for i in range(n))
        if value > best_value:
            best_value = value
            best_perm = perm
    return Matching(best_perm), best_value


def fnt_blocking_pairs(inst: Instance, matching: Matching, eps: float) -> list[tuple[int, int]]:
    """Oracle: every blocking pair (man, woman) in row-major order, pair by pair."""
    theta_w, husbands = tuple(inst.theta_w), matching.inverse
    pairs = []
    for i, (row_m, row_w, wi) in enumerate(zip(inst.theta_m, theta_w, matching.assignment)):
        own = row_m[wi]  # his gain with his own wife is exactly 0, and eps >= 0
        pairs += [
            (i, j)
            for j, mj in enumerate(husbands)
            if row_m[j] - own > eps and row_w[j] - theta_w[mj][j] > eps
        ]
    return pairs


def scalar_random_instance(n: int, seed: int, dist=Uniform01()) -> Instance:
    """``random_instance`` one draw at a time: the men's table row by row,
    then the women's."""
    rng = SplitMix64(seed)
    theta_m = tuple(tuple(dist.sample(rng) for _ in range(n)) for _ in range(n))
    theta_w = tuple(tuple(dist.sample(rng) for _ in range(n)) for _ in range(n))
    return Instance(n, theta_m, theta_w)


def scalar_instance_stream(n: int, seed: int):
    """``mixed_instance_stream(n, seed)`` one trial, and one draw, at a time."""

    def trial_instance(p: float, q: float, trial: int) -> Instance:
        cell_seed = derive_seed(seed, round(p * 10**9), round(q * 10**9), trial)
        if trial % 2 == 1 and q - p > 1e-6:
            base = counterexample_instance(p, q)
            amp = (q - p) / 100.0
            rng = SplitMix64(cell_seed)

            def jitter(x: float) -> float:
                return x + amp * (2.0 * rng.uniform01() - 1.0)

            theta_m = tuple(tuple(jitter(x) for x in row) for row in base.theta_m)
            theta_w = tuple(tuple(jitter(x) for x in row) for row in base.theta_w)
            return Instance(2, theta_m, theta_w)
        return scalar_random_instance(n, cell_seed, Uniform01())

    def gen(p: float, q: float, trials: int):
        return (trial_instance(p, q, trial) for trial in range(trials))

    return gen


class _FractionBound:
    """``bargaining._PairBound`` with every quotient a Fraction."""

    def __init__(self, mine, his):
        self.over = min((rhs / cu for cu, cv, rhs in mine if cv == 0), default=math.inf)
        self.ys = [(Fraction(cu) / cv, rhs / cv) for cu, cv, rhs in mine if cv != 0]
        self.wall = min((rhs / cv for cu, cv, rhs in his if cu == 0), default=math.inf)
        self.alpha, self.gamma = next(
            ((rhs / cu, Fraction(cv) / cu) for cu, cv, rhs in his if cu and cv), (None, None)
        )

    def __call__(self, t):
        if t >= self.over:
            return math.inf
        y = min(icpt - slope * t for slope, icpt in self.ys)
        if y > self.wall:
            return -math.inf
        return math.inf if self.alpha is None else self.alpha - self.gamma * y

    def piece(self, t):
        slope, icpt = min(self.ys, key=lambda q: (q[1] - q[0] * t, q[0]))
        los = [(icpt - i2) / (slope - s2) for s2, i2 in self.ys if s2 < slope]
        if slope > 0 and self.wall < math.inf:
            los.append((icpt - self.wall) / slope)
        return self.gamma * slope, self.alpha - self.gamma * icpt, max(los, default=-math.inf)


class _NoCore(Exception):
    pass


def _fraction_sweep(bounds, u, pred):
    last = None
    for h in range(len(u)):
        for m in range(len(u)):
            if m == h:
                continue
            r = bounds[m][h](u[m])
            if r < u[h]:
                if r == -math.inf:
                    raise _NoCore
                u[h], pred[h], last = r, m, h
    return last


def _fraction_accelerate(bounds, u, pred, start):
    head = start
    for _ in u:
        if (head := pred[head]) is None:
            return
    cycle, x = [head], pred[head]
    while x != head:
        cycle.insert(1, x)
        x = pred[x]
    x0 = t = u[head]
    A, B, L = Fraction(1), Fraction(0), -math.inf
    for k, m in enumerate(cycle):
        bound = bounds[m][cycle[(k + 1) % len(cycle)]]
        r = bound(t)
        if r == -math.inf:
            raise _NoCore
        a, b, lo = bound.piece(t)
        if A > 0 and lo > -math.inf:
            L = max(L, (lo - B) / A)
        t, A, B = r, a * A, a * B + b
    if A < 1 and B / (1 - A) >= L:
        u[head] = B / (1 - A)
    elif L == -math.inf or L == x0:
        raise _NoCore
    else:
        u[head] = L
    pred[head] = None


def fraction_search_core(
    model, inst: Instance, matching: Matching, sweeps: list
) -> CutVector | None:
    """Oracle: the men-optimal core cuts or None, in Fractions, at any n;
    appends one entry per round to ``sweeps``, empty on entry."""
    n = inst.n
    wife = matching.assignment
    own = [_halfplanes(model, inst, h, wife[h], Fraction) for h in range(n)]
    bounds = [
        [
            _FractionBound(_halfplanes(model, inst, m, wife[h], Fraction), own[h])
            if m != h else None
            for h in range(n)
        ]
        for m in range(n)
    ]
    u = [min((rhs / cu for cu, cv, rhs in hp if cv == 0), default=hp[0][2]) for hp in own]
    pred: list = [None] * n
    try:
        while True:
            sweeps.append(1)
            if (last := _fraction_sweep(bounds, u, pred)) is None:
                break
            if len(sweeps) > n:
                _fraction_accelerate(bounds, u, pred, last)
    except _NoCore:
        return None
    v = [Fraction(0)] * n
    for h in range(n):
        v[wife[h]] = min((rhs - cu * u[h]) / cv for cu, cv, rhs in own[h] if cv != 0)
    try:
        return CutVector(tuple(float(x) for x in u), tuple(float(x) for x in v))
    except OverflowError:
        raise NonFiniteEntryError("the core point found has a cut beyond the float range") from None

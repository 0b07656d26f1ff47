"""Pairwise bargaining sets and core verification.

Five built-in feasibility-set families describe what cut pair (u, v) a
couple can jointly guarantee: rigid per-person caps ("fnt"), a pooled
budget ("ft"), pooled with per-person caps ("ft_nonneg"), pooled with
one-directional transfers ("ft_m2w"), and one-directional transfers
losing a pair-specific fraction in transit ("ft_taxed").  All are
closed, downward-closed intersections of at most three half-planes.

A cut vector supports a matching when every matched pair can guarantee
its cuts and no pair at all could enter the interior of its own set.
``search_core`` decides that condition exactly at tiny n by branching
over the half-plane complements of each interior and solving each
branch with rational arithmetic, sidestepping float boundaries exactly
where the definition is boundary-sensitive.  One half-plane table serves
both: the float predicates read it in floats, the search in Fractions
of the same floats' exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteEntryError,
    PreconditionError,
    SizeLimitError,
)
from .exact_lp import feasible_point
from .instances import CutVector, Instance, Matching, Matrix, _coerce_matrix
from .rng import SplitMix64
from .tolerance import DEFAULT_EPS

MODEL_KINDS = ("fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed")

CORE_SEARCH_LIMIT = 3


@dataclass(frozen=True)
class BargainingModel:
    """One of the five built-in feasibility-set families.

    ``beta`` (transfer retention factors in (0, 1], entrywise) is
    required for "ft_taxed" and must be absent otherwise; an entry whose
    reciprocal overflows (a subnormal beta) is rejected, since the taxed
    half-plane u + v/beta <= tm + tw/beta has no float form there.
    """

    kind: str
    beta: Matrix | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.kind == "ft_taxed":
            if self.beta is None:
                raise PreconditionError('model "ft_taxed" requires a beta matrix')
            beta = _coerce_matrix(self.beta, len(tuple(self.beta)), "beta")
            for r, row in enumerate(beta):
                for c, x in enumerate(row):
                    if not 0.0 < x <= 1.0:
                        raise DomainError(f"beta[{r}][{c}]={x} must lie in (0, 1]")
                    if math.isinf(1.0 / x):
                        raise DomainError(f"beta[{r}][{c}]={x} is too small: 1/beta overflows")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise DomainError(f'model "{self.kind}" does not take a beta matrix')


def _check_pair(inst: Instance, i: int, j: int) -> None:
    if not (0 <= i < inst.n and 0 <= j < inst.n):
        raise DomainError(f"pair ({i}, {j}) out of range for n={inst.n}")


def _beta_at(model: BargainingModel, inst: Instance, i: int, j: int) -> float:
    if model.beta is None:
        raise PreconditionError('model "ft_taxed" requires a beta matrix')
    if len(model.beta) != inst.n:
        raise DimensionMismatchError(
            f"beta is {len(model.beta)}x{len(model.beta)}, instance needs {inst.n}x{inst.n}"
        )
    return model.beta[i][j]


def _halfplanes(model: BargainingModel, inst: Instance, i: int, j: int, num=float) -> tuple:
    """F(i, j) as half-planes (cu, cv, rhs): cu*u + cv*v <= rhs.

    ``num`` is the number type of the right-hand sides and of 1/beta:
    ``float`` for the tolerance predicates, ``Fraction`` for the exact
    search, which then works on each float's exact binary value.  The
    coefficients are plain 1s and 0s, exact in either arithmetic.
    """
    tm = num(inst.theta_m[i][j])
    tw = num(inst.theta_w[i][j])
    kind = model.kind
    if kind == "fnt":
        return ((1, 0, tm), (0, 1, tw))
    total = tm + tw
    if kind == "ft":
        return ((1, 1, total),)
    if kind == "ft_nonneg":
        return ((1, 1, total), (1, 0, total), (0, 1, total))
    if kind == "ft_m2w":
        return ((1, 1, total), (1, 0, tm))
    inv = 1 / num(_beta_at(model, inst, i, j))
    return ((1, inv, tm + tw * inv), (1, 0, tm))


def in_feasible_set(
    model: BargainingModel,
    inst: Instance,
    i: int,
    j: int,
    u: float,
    v: float,
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Closed-set membership: can couple (i, j) guarantee cuts (u, v)?"""
    _check_pair(inst, i, j)
    return all(cu * u + cv * v <= rhs + eps for cu, cv, rhs in _halfplanes(model, inst, i, j))


def in_interior(
    model: BargainingModel,
    inst: Instance,
    i: int,
    j: int,
    u: float,
    v: float,
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Strict membership: every defining inequality strictly satisfied.

    The built-in sets are full-dimensional half-plane intersections, so
    all-strict equals the topological interior.
    """
    _check_pair(inst, i, j)
    return all(cu * u + cv * v < rhs - eps for cu, cv, rhs in _halfplanes(model, inst, i, j))


def _corner_level(model: BargainingModel, inst: Instance, i: int, j: int) -> float:
    """Largest c with (c, c) guaranteed inside F(i, j).

    Every half-plane has cu + cv >= 1, so (c, c) meets it exactly when
    c <= rhs / (cu + cv).  A table that leaves the float range (a tiny
    beta against large rewards, or rewards near the limit) is divided
    exactly.
    """
    rows = _halfplanes(model, inst, i, j)
    if not all(math.isfinite(x) for row in rows for x in row):
        rows = _halfplanes(model, inst, i, j, Fraction)
    return float(min(rhs / (cu + cv) for cu, cv, rhs in rows))


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled audit of the structural requirements on a family.

    Verifies on random points that membership is downward closed and
    sandwiched between the corner box max(u, v) <= c2 and the budget
    half-plane u + v <= c1.  The built-in families must report zero
    violations.
    """

    kind: str
    samples: int
    c1: float
    c2: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_assumption(
    model: BargainingModel,
    inst: Instance,
    samples: int,
    seed: int,
    *,
    eps: float = DEFAULT_EPS,
) -> AssumptionReport:
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    n = inst.n
    # the pooled budget tm + tw is the largest u + v in every family
    c1 = max(inst.theta_m[i][j] + inst.theta_w[i][j] for i in range(n) for j in range(n))
    c2 = min(_corner_level(model, inst, i, j) for i in range(n) for j in range(n))
    span = max(c1 - c2, 1.0)
    lo = c2 - span - 1.0
    hi = c1 + span + 1.0
    rng = SplitMix64(seed)
    violations: list[str] = []
    for _ in range(samples):
        i = rng.randint(0, n - 1)
        j = rng.randint(0, n - 1)
        u = lo + (hi - lo) * rng.uniform01()
        v = lo + (hi - lo) * rng.uniform01()
        if in_feasible_set(model, inst, i, j, u, v, eps=eps):
            if u + v > c1 + eps:
                violations.append(f"pair ({i},{j}): member ({u},{v}) exceeds budget {c1}")
            u2 = u - span * rng.uniform01()
            v2 = v - span * rng.uniform01()
            if not in_feasible_set(model, inst, i, j, u2, v2, eps=eps):
                violations.append(
                    f"pair ({i},{j}): downward closure fails from ({u},{v}) to ({u2},{v2})"
                )
        if max(u, v) <= c2 and not in_feasible_set(model, inst, i, j, u, v, eps=eps):
            violations.append(f"pair ({i},{j}): corner point ({u},{v}) rejected below {c2}")
    return AssumptionReport(model.kind, samples, c1, c2, tuple(violations))


def verify_core_point(
    model: BargainingModel,
    inst: Instance,
    matching: Matching,
    cuts: CutVector,
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Core membership of (matching, cuts) under the given family.

    Every matched pair must be able to guarantee its cuts, and no pair
    whatsoever may sit in the interior of its own feasibility set.
    """
    n = inst.n
    if matching.n != n or cuts.n != n:
        raise DimensionMismatchError("matching, cuts, and instance sizes must agree")
    for i in range(n):
        wi = matching.assignment[i]
        if not in_feasible_set(model, inst, i, wi, cuts.u[i], cuts.v[wi], eps=eps):
            return False
    for i in range(n):
        for j in range(n):
            if in_interior(model, inst, i, j, cuts.u[i], cuts.v[j], eps=eps):
                return False
    return True


def canonical_fnt_cuts(inst: Instance, matching: Matching) -> CutVector:
    """Everyone takes their own matched reward in full."""
    n = inst.n
    if matching.n != n:
        raise DimensionMismatchError("matching and instance sizes must agree")
    u = [0.0] * n
    v = [0.0] * n
    for i in range(n):
        wi = matching.assignment[i]
        u[i] = inst.theta_m[i][wi]
        v[wi] = inst.theta_w[i][wi]
    return CutVector(tuple(u), tuple(v))


def _pair_constraint(nv, ui, vj, cu, cv, rhs):
    coeffs = [Fraction(0)] * nv
    coeffs[ui] = cu
    coeffs[vj] = cv
    return (tuple(coeffs), rhs)


def _apply_bounds(constraint, lo, hi) -> bool:
    """Tighten per-variable bounds from a one-variable constraint."""
    coeffs, rhs = constraint
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c != 0]
    if len(nonzero) != 1:
        return True
    k, c = nonzero[0]
    bound = rhs / c
    if c > 0:
        if hi[k] is None or bound < hi[k]:
            hi[k] = bound
    else:
        if lo[k] is None or bound > lo[k]:
            lo[k] = bound
    if lo[k] is not None and hi[k] is not None and lo[k] > hi[k]:
        return False
    return True


def _box_ok(constraints, lo, hi) -> bool:
    """Can each constraint be met somewhere in the bounding box?"""
    for coeffs, rhs in constraints:
        total = Fraction(0)
        unbounded = False
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            bound = lo[k] if c > 0 else hi[k]
            if bound is None:
                unbounded = True
                break
            total += c * bound
        if not unbounded and total > rhs:
            return False
    return True


def search_core(
    model: BargainingModel,
    inst: Instance,
    matching: Matching,
    *,
    eps: float = DEFAULT_EPS,
) -> CutVector | None:
    """Exact constructive core search at n <= 3.

    Each pair's exclusion from its open feasibility set is a disjunction
    over the closed complements of its defining half-planes (two for the
    per-person-cap family, one for the pooled budget, up to three for
    the capped-pool family).  Branches are explored depth-first in a
    fixed pair-major order with interval pruning; each leaf is an exact
    rational feasibility problem over the exact binary values of the
    float rewards and betas, built from the same half-plane table as
    the float predicates, so boundary cases are decided consistently.

    Returns supporting cuts for the first feasible branch, or None when
    every branch is infeasible (the matching has no core point).
    """
    n = inst.n
    if matching.n != n:
        raise DimensionMismatchError("matching and instance sizes must agree")
    if n > CORE_SEARCH_LIMIT:
        raise SizeLimitError(f"core search limited to n <= {CORE_SEARCH_LIMIT}, got {n}")
    nv = 2 * n

    base: list = []
    for i in range(n):
        wi = matching.assignment[i]
        for cu, cv, rhs in _halfplanes(model, inst, i, wi, Fraction):
            base.append(_pair_constraint(nv, i, n + wi, cu, cv, rhs))

    branch_sets: list[list] = []
    for i in range(n):
        for j in range(n):
            options = []
            for cu, cv, rhs in _halfplanes(model, inst, i, j, Fraction):
                options.append(_pair_constraint(nv, i, n + j, -cu, -cv, -rhs))
            branch_sets.append(options)

    lo: list[Fraction | None] = [None] * nv
    hi: list[Fraction | None] = [None] * nv
    for constraint in base:
        if not _apply_bounds(constraint, lo, hi):
            return None
    if not _box_ok(base, lo, hi):
        return None

    def descend(idx: int, constraints: list, lo, hi) -> tuple[Fraction, ...] | None:
        if idx == len(branch_sets):
            return feasible_point(nv, constraints)
        for option in branch_sets[idx]:
            new_lo = lo[:]
            new_hi = hi[:]
            if not _apply_bounds(option, new_lo, new_hi):
                continue
            new_constraints = constraints + [option]
            if not _box_ok(new_constraints, new_lo, new_hi):
                continue
            found = descend(idx + 1, new_constraints, new_lo, new_hi)
            if found is not None:
                return found
        return None

    point = descend(0, base, lo, hi)
    if point is None:
        return None
    try:
        values = [float(x) for x in point]
    except OverflowError:
        raise NonFiniteEntryError("the core point found has a cut beyond the float range") from None
    return CutVector(tuple(values[:n]), tuple(values[n:]))

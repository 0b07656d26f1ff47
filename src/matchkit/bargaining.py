"""Pairwise bargaining sets and core verification.

Five built-in feasibility-set families describe what cut pair (u, v) a
couple can jointly guarantee: rigid per-person caps ("fnt"), a pooled
budget ("ft"), pooled with per-person caps ("ft_nonneg"), pooled with
one-directional transfers ("ft_m2w"), and one-directional transfers
losing a pair-specific fraction in transit ("ft_taxed").  All are
closed, downward-closed intersections of at most three half-planes.

A cut vector supports a matching when every matched pair can guarantee
its cuts and no pair at all could enter the interior of its own set.
With the matching fixed, the supporting cut vectors form a lattice
(Demange & Gale 1985), and ``search_core`` finds its men-optimal point
exactly: a monotone descent on the men's cuts, with cycles of binding
bounds accelerated, so boundary cases are decided without float
ambiguity.  It runs on ints, the rewards scaled to their power-of-two
grid, which scales every value of the descent and keeps every slope and
comparison; a quotient that is not whole (the taxed family's 1/beta) is
a Fraction.  One half-plane table serves every arithmetic: the float
predicates read it in floats (a row that overflows, exactly, in
Fractions), the search on the grid.
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
    _shown,
)
from .instances import (
    CutVector, Instance, Matching, Matrix, _check_fits, _check_limit, _check_pair, _coerce_matrix,
    _coerce_row,
)
from .rng import SplitMix64, _check_count, _check_integer
from .tolerance import DEFAULT_EPS, _check_tolerance

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
            kind = _shown(self.kind, repr)
            raise DomainError(f"unknown model kind {kind}; expected one of {MODEL_KINDS}")
        if self.kind == "ft_taxed":
            if self.beta is None:
                raise PreconditionError('model "ft_taxed" requires a beta matrix')
            beta = _coerce_matrix(self.beta, None, "beta")
            for r, row in enumerate(beta):
                for c, x in enumerate(row):
                    if not 0.0 < x <= 1.0:
                        raise DomainError(f"beta[{r}][{c}]={x} must lie in (0, 1]")
                    if math.isinf(1.0 / x):
                        raise DomainError(f"beta[{r}][{c}]={x} is too small: 1/beta overflows")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise DomainError(f'model "{self.kind}" does not take a beta matrix')


def _beta_at(model: BargainingModel, inst: Instance, i: int, j: int) -> float:
    if len(model.beta) != inst.n:
        raise DimensionMismatchError(
            f"beta is {len(model.beta)}x{len(model.beta)}, instance needs {inst.n}x{inst.n}"
        )
    return model.beta[i][j]


def _halfplanes(model: BargainingModel, inst: Instance, i: int, j: int, num=float) -> tuple:
    """F(i, j) as half-planes (cu, cv, rhs): cu*u + cv*v <= rhs.

    ``num`` maps a reward to the number type of the right-hand sides:
    ``float`` for the tolerance predicates, ``Fraction`` for their exact
    branch, and an int on the instance's power-of-two grid (``_grid``)
    for the search.  1/beta is a ratio, not a reward: a float in float
    arithmetic, an exact Fraction otherwise.  The other coefficients are
    plain 1s and 0s, exact in any arithmetic.
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
    beta = _beta_at(model, inst, i, j)
    inv = 1 / (beta if num is float else Fraction(beta))
    return ((1, inv, tm + tw * inv), (1, 0, tm))


def _holds(model, inst, i, j, u, v, eps, strict) -> bool:
    """Every half-plane of F(i, j) met at finite (u, v) within eps, or by
    more than eps when ``strict``.  A row whose float form overflows (tw/beta
    for a tiny beta) would read inf <= inf; it is decided exactly over
    the floats' values, as ``_corner_level`` divides."""
    exact = None
    for k, row in enumerate(_halfplanes(model, inst, i, j)):
        x, y, e = u, v, eps
        if not all(map(math.isfinite, row)):
            exact = exact or _halfplanes(model, inst, i, j, Fraction)
            row, x, y, e = exact[k], Fraction(u), Fraction(v), Fraction(eps)
        cu, cv, rhs = row
        lhs = cu * x + cv * y
        if not (lhs < rhs - e if strict else lhs <= rhs + e):
            return False
    return True


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
    """Closed-set membership: can couple (i, j) guarantee the finite cuts (u, v)?"""
    eps = _check_tolerance(eps)
    i, j = _check_pair(inst.n, i, j)
    u, v = _coerce_row((u, v), "(u, v)")
    return _holds(model, inst, i, j, u, v, eps, strict=False)


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
    eps = _check_tolerance(eps)
    i, j = _check_pair(inst.n, i, j)
    u, v = _coerce_row((u, v), "(u, v)")
    return _holds(model, inst, i, j, u, v, eps, strict=True)


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
    level = min(rhs / (cu + cv) for cu, cv, rhs in rows)
    try:
        return float(level)
    except OverflowError:  # an exact level beyond the float range
        return math.inf if level > 0 else -math.inf


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
    eps = _check_tolerance(eps)
    samples = _check_count("samples", samples, 1)
    seed = _check_integer("seed", seed)
    n = inst.n
    # the pooled budget tm + tw is the largest u + v in every family
    c1 = max(inst.theta_m[i][j] + inst.theta_w[i][j] for i in range(n) for j in range(n))
    c2 = min(_corner_level(model, inst, i, j) for i in range(n) for j in range(n))
    span = max(c1 - c2, 1.0)
    lo = c2 - span - 1.0
    hi = c1 + span + 1.0
    if not math.isfinite(hi - lo):  # every sample would be nan or infinite
        raise PreconditionError(f"cannot sample around budget c1={c1} and corner c2={c2}")
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
    eps = _check_tolerance(eps)
    n = inst.n
    _check_fits(n, matching, cuts)
    for i in range(n):
        wi = matching.assignment[i]
        if not _holds(model, inst, i, wi, cuts.u[i], cuts.v[wi], eps, strict=False):
            return False
    for i in range(n):
        for j in range(n):
            if _holds(model, inst, i, j, cuts.u[i], cuts.v[j], eps, strict=True):
                return False
    return True


def canonical_fnt_cuts(inst: Instance, matching: Matching) -> CutVector:
    """Everyone takes their own matched reward in full."""
    n = inst.n
    _check_fits(n, matching)
    u = [0.0] * n
    v = [0.0] * n
    for i in range(n):
        wi = matching.assignment[i]
        u[i] = inst.theta_m[i][wi]
        v[wi] = inst.theta_w[i][wi]
    return CutVector(tuple(u), tuple(v))


def _grid(inst: Instance) -> tuple:
    """(2**s, num): the least power of two putting every reward of both
    tables on the integers, and the map of a reward to its int there."""
    rows = (*inst.theta_m, *inst.theta_w)
    scale = max(x.as_integer_ratio()[1] for row in rows for x in row)

    def num(x: float) -> int:
        top, den = x.as_integer_ratio()
        return top * (scale // den)

    return scale, num


def _quotient(a, b):
    """a / b exactly, for every division of the search: an int when both
    are ints and b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class _PairBound:
    """Pair (m, j)'s bound u_h <= R(u_m) on j's husband h, with v_j at
    phi(u_h), the most F(h, j) allows.  R is +inf once a cv = 0
    half-plane of F(m, j) holds at u_m; else R(t) is the largest x with
    phi(x) >= Y(t), the least (rhs - cu*t)/cv over F(m, j)'s others:
    -inf past the "wall" (a cu = 0 cap of F(h, j)), else alpha - gamma*Y
    from F(h, j)'s one half-plane with cu, cv > 0."""

    __slots__ = ("over", "ys", "wall", "alpha", "gamma")

    def __init__(self, mine, his):
        self.over = min((_quotient(rhs, cu) for cu, cv, rhs in mine if cv == 0), default=math.inf)
        self.ys = [(_quotient(cu, cv), _quotient(rhs, cv)) for cu, cv, rhs in mine if cv != 0]
        self.wall = min((_quotient(rhs, cv) for cu, cv, rhs in his if cu == 0), default=math.inf)
        self.alpha, self.gamma = next(
            ((_quotient(rhs, cu), _quotient(cv, cu)) for cu, cv, rhs in his if cu and cv),
            (None, None),
        )

    def __call__(self, t):
        if t >= self.over:
            return math.inf
        y = min(icpt - slope * t for slope, icpt in self.ys)
        if y > self.wall:
            return -math.inf
        return math.inf if self.alpha is None else self.alpha - self.gamma * y

    def piece(self, t):
        """(a, b, lo): R(x) = a*x + b on [lo, t], where R(t) is finite;
        lo is the next breakpoint down, a flatter piece of Y or the wall."""
        slope, icpt = min(self.ys, key=lambda q: (q[1] - q[0] * t, q[0]))
        los = [_quotient(icpt - i2, slope - s2) for s2, i2 in self.ys if s2 < slope]
        if slope > 0 and self.wall < math.inf:
            los.append(_quotient(icpt - self.wall, slope))
        return self.gamma * slope, self.alpha - self.gamma * icpt, max(los, default=-math.inf)


class _NoCore(Exception):
    """A bound of -inf: the matching has no core point."""


def _sweep(bounds, u: list, pred: list) -> int | None:
    """One round: lower each u_h to its tightest bound, noting whose it
    was.  Returns the last man lowered, None when nobody moved."""
    last = None
    for h in range(len(u)):
        for m in range(len(u)):
            if m == h:  # a matched pair never binds: R(u_h) >= u_h
                continue
            r = bounds[m][h](u[m])
            if r < u[h]:
                if r == -math.inf:
                    raise _NoCore
                u[h], pred[h], last = r, m, h
    return last


def _accelerate(bounds, u: list, pred: list, start: int) -> None:
    """Lower the head of the predecessor cycle behind ``start`` in one step.

    On the pieces they follow just below the head's value x0, the bounds
    compose to x -> A*x + B down to the highest breakpoint L they meet.
    Each man on the cycle was last lowered by his predecessor's bound, at
    no less than the predecessor's value now.  Bounds strictly increase
    where finite, except ft_nonneg's, flat below 0 but never finite below
    0: so the composition is finite and lowers x0.  On [L, x0] the cycle
    allows the head up to B/(1 - A) when A < 1, and nowhere when A >= 1:
    then the head lies below L, or there is no core point (L = -inf, or
    L = x0 at a wall).
    """
    head = start
    for _ in u:  # n steps back from a lowered man end on a cycle
        if (head := pred[head]) is None:
            return
    cycle, x = [head], pred[head]
    while x != head:
        cycle.insert(1, x)
        x = pred[x]
    x0 = t = u[head]
    A, B, L = 1, 0, -math.inf
    for k, m in enumerate(cycle):
        bound = bounds[m][cycle[(k + 1) % len(cycle)]]
        r = bound(t)
        if r == -math.inf:
            raise _NoCore
        a, b, lo = bound.piece(t)
        if A > 0 and lo > -math.inf:
            L = max(L, _quotient(lo - B, A))
        t, A, B = r, a * A, a * B + b
    if A < 1 and (fixed := _quotient(B, 1 - A)) >= L:
        u[head] = fixed
    elif L == -math.inf or L == x0:
        raise _NoCore
    else:
        u[head] = L
    pred[head] = None  # until a bound lowers it again


def search_core(
    model: BargainingModel,
    inst: Instance,
    matching: Matching,
    *,
    eps: float = DEFAULT_EPS,
) -> CutVector | None:
    """Exact men-optimal core search at n <= 3; None without a core point.

    The cuts supporting a fixed matching form a lattice (Demange & Gale
    1985).  With each woman at the most her husband's set allows, the
    men-optimal u is the greatest one under the caps with u_h <= R(u_m)
    for every pair (m, j), h being j's husband (``_PairBound``).  Each R
    is nondecreasing, so u <- min(u, R(u)) descends to it from the caps,
    exactly, or meets -inf.  After n rounds the cycle behind the last man
    lowered is accelerated, as in the generalized Bellman-Ford of
    two-variable-per-inequality systems (Hochbaum & Naor 1994).

    Rounds.  Events are: a bound moving onto a lower piece (at most twice
    for each of m = n(n - 1)); a jump to a breakpoint (a piece change
    follows); a head landing on its cycle's fixed point (once per cycle,
    head and pieces; c = 2 such pairs at n = 2, 12 at n = 3).  Between
    events, a moving round after the (n + 1)-th leaves a cycle lowering
    its head, and its acceleration is an event.  So at most
    (n + 2)(1 + 4m + c(2m + 1)) rounds run: 76 at n = 2, 905 at n = 3.

    "ft" has no caps and its cuts translate; its gauge caps u_h at the
    pair's total, so the least-paid woman gets exactly 0.

    Arithmetic.  The descent runs on ints, every reward times the least
    2**s that makes each entry of both tables whole (``_grid``).  That
    scales every value of the descent by 2**s and keeps every slope and
    comparison, so each round, each exit without a core point and each
    cut, divided by 2**s and rounded once, are those of the descent over
    the floats' exact values.  Only the taxed family's 1/beta makes a
    quotient that is not whole, a Fraction (``_quotient``).

    The search decides exactly and does not apply ``eps``, so a gap
    below eps that ``verify_core_point`` forgives still rules a core
    point out here (identity matching, theta_m = [[1, 1.0000000001],
    [1, 1]], theta_w = 0, "ft").
    """
    eps = _check_tolerance(eps)
    n = inst.n
    _check_fits(n, matching)
    _check_limit("core search", n, CORE_SEARCH_LIMIT)
    wife = matching.assignment
    scale, num = _grid(inst)
    own = [_halfplanes(model, inst, h, wife[h], num) for h in range(n)]
    bounds = [
        [
            _PairBound(_halfplanes(model, inst, m, wife[h], num), own[h]) if m != h else None
            for h in range(n)
        ]
        for m in range(n)
    ]
    # the caps; "ft" has none, and its gauge puts u_h at the pair's total
    u = [min((_quotient(rhs, cu) for cu, cv, rhs in hp if cv == 0), default=hp[0][2]) for hp in own]
    pred: list = [None] * n
    rounds = 0
    try:
        while (last := _sweep(bounds, u, pred)) is not None:
            rounds += 1
            if rounds > n:
                _accelerate(bounds, u, pred, last)
    except _NoCore:
        return None
    v = [0] * n
    for h in range(n):
        v[wife[h]] = min(_quotient(rhs - cu * u[h], cv) for cu, cv, rhs in own[h] if cv != 0)
    try:  # off the grid, rounded once: int / int and float(Fraction) round correctly
        return CutVector(tuple(float(x / scale) for x in u), tuple(float(x / scale) for x in v))
    except OverflowError:
        raise NonFiniteEntryError("the core point found has a cut beyond the float range") from None

"""Fully transferable stability: optimal assignment, blocking chains,
and dual cuts.

With pooled rewards, a matching is stable exactly when no chain of
couples can rotate partners for a positive total gain, which in turn is
exactly when the matching maximizes total reward.  The supporting cut
vector comes from shortest-path potentials over the chain graph and
certifies stability: matched pairs split their reward exactly, and no
other pair's reward exceeds the sum of its two cuts.  Those potentials
settle exactly when no blocking chain exists, so they decide stability;
the cycle detector runs only to name a witness, or where rounding could
hide a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cycles import find_positive_cycle, relax_potentials
from .errors import (
    DimensionMismatchError,
    NonFiniteEntryError,
    NotCyclicallyMonotoneError,
    PreconditionError,
)
from .instances import CutVector, Matching, Matrix, _coerce_matrix
from .tolerance import DEFAULT_EPS

# Tight-edge guard in units of n * max(1, max|theta|) ulps: enough for the
# rounding of potentials summed along chains of up to n hops.
_TIGHT_ULPS = 32

_DIVERGED = "chain potentials diverge: a blocking chain exists"


@dataclass(frozen=True)
class ChainWitness:
    """A violating partner-rotation cycle over couple indices.

    Falsy on purpose: ``is_cyclically_monotone`` returns True or a
    witness, so truth-testing the result reads as "is it monotone".
    """

    cycle: tuple[int, ...]
    gain: float

    def __bool__(self) -> bool:
        return False


def _as_square(theta, name: str = "theta") -> Matrix:
    rows = list(theta)
    return _coerce_matrix(rows, len(rows), name)


def _chain_weights(theta: Matrix, matching: Matching) -> list[list[float]]:
    """weights[a][b]: gain for couple a's man taking couple b's woman."""
    n = len(theta)
    assignment = matching.assignment
    out = []
    for a in range(n):
        row = theta[a]
        own = row[assignment[a]]
        out.append([row[assignment[b]] - own for b in range(n)])
    return out


def optimal_assignment(
    theta: Sequence[Sequence[float]], *, eps: float = DEFAULT_EPS
) -> tuple[Matching, float]:
    """Exact maximum-total-reward matching and its value.

    One O(n^3) assignment solve finds an optimum.  Chain potentials over
    it give dual cuts u, v, and by complementary slackness the optimal
    assignments are exactly the perfect matchings of the tight edges
    u[i] + v[j] = theta[i][j].  Among tied optima the lexicographically
    smallest assignment is returned, read off that tight-edge graph row
    by row.  Tightness is tested to a few dozen ulps of
    n * max(1, max|theta|), an arithmetic guard rather than a stability
    predicate, so the result does not depend on ``eps``; the keyword is
    accepted for symmetry with the predicates.
    """
    mat = _as_square(theta)
    n = len(mat)
    arr = np.asarray(mat, dtype=float).reshape(n, n)
    _, cols = linear_sum_assignment(arr, maximize=True)
    chosen = _lex_first_perfect_matching(_tight_edges(arr, cols), cols.tolist())
    matching = Matching(tuple(chosen))
    value = sum(mat[i][chosen[i]] for i in range(n))
    return matching, value


def _chain_distances(
    arr: np.ndarray, assignment: np.ndarray, max_passes: int
) -> tuple[np.ndarray, bool]:
    """``relax_potentials`` over the hop costs of ``chain_potentials``.

    The hop from couple s to couple t costs own[s] - arr[t, assignment[s]].
    Rewards near the float limit can overflow to inf or nan here; that is
    left to the callers rather than reported as a warning.
    """
    own = arr[np.arange(arr.shape[0]), assignment]
    with np.errstate(over="ignore", invalid="ignore"):
        return relax_potentials(own[:, None] - arr[:, assignment].T, max_passes)


def _tight_edges(arr: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Mask of pairs whose dual slack is zero up to rounding.

    The potentials are chain potentials over ``assignment``, so the
    assignment's own pairs are tight by construction and are marked
    tight outright.  Rewards near the float limit can overflow to inf or
    nan here, which leaves those pairs out of the mask but never the
    assignment's own.
    """
    n = arr.shape[0]
    rows = np.arange(n)
    own = arr[rows, assignment]
    dist, _ = _chain_distances(arr, assignment, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        u = -dist
        v = np.empty(n)
        v[assignment] = own - u
        scale = n * max(1.0, float(np.abs(arr).max(initial=0.0)))
        tight = u[:, None] + v[None, :] - arr <= _TIGHT_ULPS * np.finfo(float).eps * scale
    tight[rows, assignment] = True
    return tight


def _lex_first_perfect_matching(tight: np.ndarray, assignment: list[int]) -> list[int]:
    """Lexicographically smallest perfect matching of a bipartite graph.

    ``assignment`` is any perfect matching of ``tight``.  Rows are fixed
    in order; row i takes its smallest tight column j that some
    alternating path through the unfixed rows can free, and the path is
    flipped: O(n^3) at worst.  A search runs only when row i has a tight
    unfixed column below its current one, so tie-free inputs need none.
    """
    n = len(assignment)
    cols_of = [np.flatnonzero(row).tolist() for row in tight]
    rows_of = [np.flatnonzero(col).tolist() for col in tight.T]
    match = list(assignment)
    owner = [0] * n
    for i, j in enumerate(match):
        owner[j] = i
    for i in range(n):
        target = match[i]
        if next(j for j in cols_of[i] if owner[j] >= i) == target:
            continue
        # via[r] = the column row r moves to on its way to freeing target.
        via: dict[int, int] = {}
        stack = [target]
        while stack:
            c = stack.pop()
            for r in rows_of[c]:
                if r > i and r not in via:
                    via[r] = c
                    stack.append(match[r])
        j = next(j for j in cols_of[i] if j == target or owner[j] in via)
        if j == target:
            continue
        r = owner[j]
        match[i], owner[j] = j, i
        while True:
            c = via[r]
            after = owner[c]
            match[r], owner[c] = c, r
            if c == target:
                break
            r = after
    return match


def is_cyclically_monotone(
    theta: Sequence[Sequence[float]], matching: Matching, *, eps: float = DEFAULT_EPS
) -> Union[bool, ChainWitness]:
    """True when no couple cycle gains from rotating partners.

    Otherwise returns a ChainWitness (which is falsy) carrying one
    violating cycle and its gain.
    """
    mat = _as_square(theta)
    _check_sizes(mat, matching)
    found = find_positive_cycle(_chain_weights(mat, matching), eps)
    if found is None:
        return True
    cycle, gain = found
    return ChainWitness(cycle=cycle, gain=gain)


def chain_potentials(theta: Sequence[Sequence[float]], matching: Matching) -> list[float]:
    """Raw per-man potentials u0 before gauge normalization.

    -u0[i] is the cheapest chain of couples ending at couple i: every
    node starts at potential zero, and the hop from couple s to couple
    t hands s's woman over to t's man, costing theta[s][woman of s] -
    theta[t][woman of s].  These hop costs have the same cycle sums as
    the blocking-chain gains, so absence of blocking chains keeps every
    value finite; the resulting potentials dominate every pair's reward
    split, which the departure-oriented hop costs would not.  Raises
    NotCyclicallyMonotoneError when the relaxation does not settle, and
    NonFiniteEntryError, naming the entry as CutVector would, when it
    settles on a potential beyond the float range.
    """
    mat = _as_square(theta)
    _check_sizes(mat, matching)
    n = len(mat)
    arr = np.asarray(mat, dtype=float).reshape(n, n)
    dist, settled = _chain_distances(arr, np.asarray(matching.assignment), 4 * n)
    if not settled:
        raise NotCyclicallyMonotoneError(_DIVERGED)
    lost = np.flatnonzero(~np.isfinite(dist))
    if lost.size:
        raise NonFiniteEntryError(f"u[{lost[0]}] is not finite")
    return (-dist).tolist()


def dual_cuts(
    theta: Sequence[Sequence[float]], matching: Matching, *, eps: float = DEFAULT_EPS
) -> CutVector:
    """Supporting cuts for a chain-free matching.

    u comes from chain potentials, gauged so min(u) = 0; v completes
    each matched pair to an exact split of its reward.  The result
    satisfies u[i] + v[j] >= theta[i][j] for every pair, with equality
    on matched pairs.

    The relaxation is the stability check: when it settled and its cuts
    bound, rounding included, every chain gain the cycle detector could
    compute by ``eps``, they are returned.  Otherwise the detector runs
    to name a witness chain; without one, an unsettled relaxation is
    reported as divergence.  Large rewards or ``eps`` = 0 always run it.
    """
    mat = _as_square(theta)
    _check_sizes(mat, matching)
    n = len(mat)
    arr = np.asarray(mat, dtype=float).reshape(n, n)
    dist, settled = _chain_distances(arr, np.asarray(matching.assignment), 4 * n)
    u_raw = (-dist).tolist()
    anchor = min(u_raw)
    u = [x - anchor for x in u_raw]
    v = [0.0] * n
    for i in range(n):
        woman = matching.assignment[i]
        v[woman] = mat[i][woman] - u[i]
    # With s = u + v - theta, a chain's gain telescopes to the sum over its
    # couples of s(own pair) - s(pair taken).  Own slacks are within one
    # rounding of size = max|theta| + max|u| + max|v| of zero, computed
    # slacks within three of exact, and the detector's float sums of up to
    # n hops within 2 n^2 roundings of the widest row range: so no chain
    # the detector computes gains more than n * (margin - min slack).
    unit = np.finfo(float).eps / 2
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(arr).max() + np.abs(u).max() + np.abs(v).max()
        margin = unit * (4 * size + 2 * n * np.ptp(arr, axis=1).max())
        bound = n * (margin - (np.add.outer(u, v) - arr).min()) * (1 + 8 * unit)
    if not (settled and bound <= eps):
        witness = is_cyclically_monotone(mat, matching, eps=eps)
        if witness is not True:
            raise NotCyclicallyMonotoneError(
                f"matching admits blocking chain {witness.cycle} with gain {witness.gain}"
            )
        if not settled:
            raise NotCyclicallyMonotoneError(_DIVERGED)
    return CutVector(tuple(u), tuple(v))


def verify_ft_core(
    theta: Sequence[Sequence[float]],
    matching: Matching,
    cuts: CutVector,
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Exact split on matched pairs, no pair underpaid anywhere else."""
    mat = _as_square(theta)
    _check_sizes(mat, matching)
    if cuts.n != len(mat):
        raise DimensionMismatchError(f"cut vector size {cuts.n} does not fit n={len(mat)}")
    n = len(mat)
    u, v = cuts.u, cuts.v
    for i in range(n):
        wi = matching.assignment[i]
        if abs(u[i] + v[wi] - mat[i][wi]) > eps:
            return False
    for i in range(n):
        ui = u[i]
        row = mat[i]
        for j in range(n):
            if ui + v[j] < row[j] - eps:
                return False
    return True


def check_optimality_of_cuts(
    theta: Sequence[Sequence[float]],
    matching: Matching,
    cuts: CutVector,
    *,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Do these cuts achieve the minimal total over the feasible set?

    Precondition: the cuts are feasible, i.e. u[i] + v[j] covers every
    pair's reward (the matched-equality part of verify_ft_core is not
    required: feasible-but-loose cuts are legal input and yield False).
    The minimal feasible total equals the optimal assignment value, so
    the check compares against that within n*eps.
    """
    mat = _as_square(theta)
    _check_sizes(mat, matching)
    if cuts.n != len(mat):
        raise DimensionMismatchError(f"cut vector size {cuts.n} does not fit n={len(mat)}")
    n = len(mat)
    u, v = cuts.u, cuts.v
    for i in range(n):
        ui = u[i]
        row = mat[i]
        for j in range(n):
            if ui + v[j] < row[j] - eps:
                raise PreconditionError(
                    f"cuts are infeasible: u[{i}]+v[{j}] = {ui + v[j]} < theta = {row[j]}"
                )
    _, best = optimal_assignment(mat, eps=eps)
    return abs(cuts.total() - best) <= max(n, 1) * eps


def bruteforce_max_matching(theta: Sequence[Sequence[float]]) -> tuple[Matching, float]:
    """Oracle: maximum over all n! assignments by direct enumeration."""
    mat = _as_square(theta)
    n = len(mat)
    best_perm = None
    best_value = -float("inf")
    for perm in permutations(range(n)):
        value = sum(mat[i][perm[i]] for i in range(n))
        if value > best_value:
            best_value = value
            best_perm = perm
    return Matching(best_perm), best_value


def _check_sizes(mat: Matrix, matching: Matching) -> None:
    if matching.n != len(mat):
        raise DimensionMismatchError(
            f"matching size {matching.n} does not fit matrix size {len(mat)}"
        )

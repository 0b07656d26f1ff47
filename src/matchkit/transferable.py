"""Fully transferable stability: optimal assignment, blocking chains,
and dual cuts.

With pooled rewards, a matching is stable exactly when no chain of
couples can rotate partners for a positive total gain, which in turn is
exactly when the matching maximizes total reward.  The supporting cut
vector comes from shortest-path potentials over the chain graph and
certifies stability: matched pairs split their reward exactly, and no
other pair's reward exceeds the sum of its two cuts.  A blocking chain
keeps those potentials from settling, but so can rounding on tied tables;
the cuts certify stability when they bound every chain's gain by eps,
and the cycle detector runs only to name a witness, or where rounding
could hide a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cycles import _resum_error, find_positive_cycle, relax_potentials
from .errors import DimensionMismatchError, NotCyclicallyMonotoneError, PreconditionError
from .instances import CutVector, Matching, _check_fits, _coerce_matrix, _coerce_row
from .tolerance import DEFAULT_EPS, rounding_bound

_DIVERGED = "chain potentials diverge: the relaxation does not settle in 4n passes"


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


def _square(theta, matching: Matching | None = None, cuts: CutVector | None = None) -> np.ndarray:
    """``theta`` validated as a square float array; the matching and the
    cuts, when given, must fit its size."""
    rows = list(theta)
    n = len(rows)
    if n == 0:
        raise DimensionMismatchError("theta must not be empty")
    arr = np.array(_coerce_matrix(rows, n, "theta"), dtype=float).reshape(n, n)
    if matching is not None:
        _check_fits(n, matching, cuts)
    return arr


def _chain_weights(arr: np.ndarray, matching: Matching) -> list[list[float]]:
    """weights[a][b]: gain for couple a's man taking couple b's woman."""
    assignment = np.asarray(matching.assignment)
    own = arr[np.arange(len(arr)), assignment]
    with np.errstate(over="ignore"):
        return (arr[:, assignment] - own[:, None]).tolist()


def _underpaid(arr: np.ndarray, cuts: CutVector, eps: float) -> np.ndarray:
    """Mask of the pairs whose reward exceeds their two cuts by more than eps."""
    u, v = np.array(cuts.u), np.array(cuts.v)
    with np.errstate(over="ignore", invalid="ignore"):
        return u[:, None] + v[None, :] < arr - eps


def optimal_assignment(theta: Sequence[Sequence[float]]) -> tuple[Matching, float]:
    """Exact maximum-total-reward matching and its value.

    One O(n^3) assignment solve finds an optimum.  Chain potentials over
    it give dual cuts u, v, and by complementary slackness the optimal
    assignments are exactly the perfect matchings of the tight edges
    u[i] + v[j] = theta[i][j].  Among tied optima the lexicographically
    smallest is returned, by one breadth-first alternating-path search
    per row of that graph, O(n^3) at worst.  Tightness is tested to 64
    roundings of n * max(1, max|theta|), enough for potentials summed
    along chains of up to n hops: a tie rule, not a worst-case bound (a
    wider one would accept matchings more than eps below the optimum),
    nor a stability predicate, so it takes no ``eps``.
    """
    return _optimal_assignment(_square(theta))


def _optimal_assignment(arr: np.ndarray) -> tuple[Matching, float]:
    """``optimal_assignment`` on an array ``_square`` has validated."""
    _, cols = linear_sum_assignment(arr, maximize=True)
    chosen = _lex_first_perfect_matching(_tight_edges(arr, cols), cols.tolist())
    # Python floats summed left to right: the CLI prints this value's repr
    return Matching(tuple(chosen)), sum(arr[np.arange(len(arr)), chosen].tolist())


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
        tight = u[:, None] + v[None, :] - arr <= rounding_bound(64, scale)
    tight[rows, assignment] = True
    return tight


def _lex_first_perfect_matching(tight: np.ndarray, assignment: list[int]) -> list[int]:
    """Lexicographically smallest perfect matching of a bipartite graph.

    ``assignment`` is any perfect matching of ``tight``.  Rows are fixed
    in order; row i tries its tight columns below its current one in
    ascending order.  From each candidate's owner a breadth-first search
    through the unfixed rows seeks one tight on row i's current column,
    then flips that alternating path.  Rows a failed search visited are
    not searched again for row i, so each row costs one search: O(n^3)
    at worst.  The lex-first matching is unique, so the path taken does
    not change it.
    """
    n = len(assignment)
    rows, cols = np.nonzero(tight)
    cols_of = [c.tolist() for c in np.split(cols, np.flatnonzero(np.diff(rows)) + 1)]
    match = list(assignment)
    owner = np.argsort(assignment).tolist()
    for i in range(n):
        target = match[i]
        prev = {i: -1}  # row reached -> the row that takes its column
        for j in cols_of[i][: cols_of[i].index(target)]:
            if owner[j] < i or owner[j] in prev:
                continue
            queue = [owner[j]]
            prev[owner[j]] = i
            for r in queue:  # grows as it is read: breadth first
                if tight[r, target]:
                    break
                for c in cols_of[r]:
                    if owner[c] > i and owner[c] not in prev:
                        prev[owner[c]] = r
                        queue.append(owner[c])
            else:
                continue
            c = target
            while r != -1:  # back to row i: each row takes the column of the row it reached
                match[r], c = c, match[r]
                owner[match[r]], r = r, prev[r]
            break
    return match


def is_cyclically_monotone(
    theta: Sequence[Sequence[float]], matching: Matching, *, eps: float = DEFAULT_EPS
) -> Union[bool, ChainWitness]:
    """True when no couple cycle gains from rotating partners.

    Otherwise returns a ChainWitness (which is falsy) carrying one
    violating cycle and its gain.
    """
    found = find_positive_cycle(_chain_weights(_square(theta, matching), matching), eps)
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
    NonFiniteEntryError, from CutVector's entry check, when it settles
    on a potential beyond the float range.
    """
    arr = _square(theta, matching)
    dist, settled = _chain_distances(arr, np.asarray(matching.assignment), 4 * len(arr))
    if not settled:
        raise NotCyclicallyMonotoneError(_DIVERGED)
    return list(_coerce_row(tuple((-dist).tolist()), "u"))


def dual_cuts(
    theta: Sequence[Sequence[float]], matching: Matching, *, eps: float = DEFAULT_EPS
) -> CutVector:
    """Supporting cuts for a chain-free matching.

    u comes from chain potentials, gauged so min(u) = 0; v completes
    each matched pair to an exact split of its reward.  The result
    satisfies u[i] + v[j] >= theta[i][j] for every pair, with equality
    on matched pairs.

    The relaxation is the stability check: when its cuts bound, rounding
    included, every chain gain the cycle detector could compute by
    ``eps``, they are returned, settled or not (rounding-level cycles
    keep it from settling on tied tables).  Otherwise the detector runs
    to name a witness chain; without one, an unsettled relaxation is
    reported as divergence.  Large rewards always run it, and so does
    ``eps`` = 0 unless the table holds small integers.
    """
    arr = _square(theta, matching)
    n = len(arr)
    assignment = np.asarray(matching.assignment)
    dist, settled = _chain_distances(arr, assignment, 4 * n)
    u_raw = (-dist).tolist()
    anchor = min(u_raw)
    u = [x - anchor for x in u_raw]
    v = [0.0] * n
    for i, own in enumerate(arr[np.arange(n), assignment].tolist()):
        v[matching.assignment[i]] = own - u[i]
    # With s = u + v - theta, a chain's gain telescopes to the sum over its
    # couples of s(own pair) - s(pair taken).  Own slacks are within one
    # rounding of size = max|theta| + max|u| + max|v| of zero and computed
    # slacks within three of exact, and the detector re-sums weights within
    # the row ranges: no chain it computes gains more than ``bound``, whether
    # or not the relaxation settled.
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(arr).max() + np.abs(u).max() + np.abs(v).max()
        bound = rounding_bound(4, n * size) - n * (np.add.outer(u, v) - arr).min()
        bound += _resum_error(n, np.ptp(arr, axis=1).max())
        bound += rounding_bound(16, abs(bound))  # the roundings of the bound itself
    # On integer tables with 64 n max|theta| <= 2**53, every distance (a walk
    # of at most 4n hops), cut and slack is an integer below 2**53, so floats
    # hold it exactly and a settled relaxation certifies with no rounding term.
    if not (
        bound <= eps or settled and np.abs(arr).max() <= 2.0**47 / n and (arr % 1 == 0).all()
    ):
        found = find_positive_cycle(_chain_weights(arr, matching), eps)
        if found is not None:
            raise NotCyclicallyMonotoneError(
                f"matching admits blocking chain {found[0]} with gain {found[1]}"
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
    arr = _square(theta, matching, cuts)
    rows, cols = np.arange(len(arr)), np.asarray(matching.assignment)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = np.array(cuts.u) + np.array(cuts.v)[cols] - arr[rows, cols]
        return not (np.abs(slack) > eps).any() and not _underpaid(arr, cuts, eps).any()


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
    arr = _square(theta, matching, cuts)
    under = np.argwhere(_underpaid(arr, cuts, eps))
    if under.size:
        i, j = under[0].tolist()
        raise PreconditionError(
            f"cuts are infeasible: u[{i}]+v[{j}] = {cuts.u[i] + cuts.v[j]} "
            f"< theta = {float(arr[i, j])}"
        )
    _, best = _optimal_assignment(arr)
    return abs(cuts.total() - best) <= max(len(arr), 1) * eps

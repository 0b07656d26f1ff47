"""Positive-cycle detection on dense couple digraphs.

Both the transferable-stability check and the partial-transfer chain
check reduce to one question: does the complete digraph on couples
contain a simple cycle whose weight sum, re-summed in floats from its
smallest node, exceeds the tolerance eps?  ``find_positive_cycle``
answers it in three stages.

1. Bellman-Ford.  The weights are negated minus a per-edge shift of
   eps/n, so a k-hop cycle has negative cost exactly when its gain
   exceeds k*eps/n <= eps, and relaxation runs in place from all nodes
   at potential zero for at most n + 1 passes.  A pass that changes no
   distance settles the question: no cycle beats eps (up to the
   rounding of the distances, ``_settle_error``).  A pass that changes
   nothing while some distance is -inf settles nothing: -inf < -inf is
   false, so an overflowed relaxation stops moving whether or not a
   cycle gains.
   After each pass that changes a distance, the predecessor graph (one
   parent per node) is walked in O(n); if one of its cycles gains more
   than eps, the best of them is returned at once (Cherkassky and
   Goldberg, 1999, "Negative-cycle detection algorithms").
   The weights come as a float64 array, from
   ``partial_transfer._pq_weights`` for a whole matching, or as list
   rows, from the existence oracle's ``_prefix_weights`` at n <= 8, the
   faster form to build at that size.  Only the cost build tells the
   two apart: numpy makes an array's cost table, the same IEEE
   operation on each entry, and turns it into list rows once; list rows
   are converted in Python.  One loop relaxes either, and every gain is
   re-summed as Python floats from the cycle's smallest node.
2. Cycle cover.  If the passes end unsettled without such a cycle, the
   shifted test saw a cycle gaining between k*eps/n and eps, or rounding
   blurred one.  A simple cycle leaves each node once and enters it
   once, so no cycle gains more than the smaller of the row-wise and
   column-wise sums of positive maxima; when that bound, plus a gamma_4n
   rounding allowance, is at most eps, no cycle's float re-sum can beat
   eps and the answer is None.  Otherwise the maximum-weight cycle cover
   (``linear_sum_assignment`` with a zero diagonal) is taken, and its
   best cycle is returned if it gains more than eps.
3. Enumeration.  Only when neither cover step decides do graphs of at
   most 10 nodes fall back to ``best_cycle_bruteforce``, so the verdict
   there matches the brute-force oracle.  Larger graphs report None in
   that case: a cycle gaining more than eps can then still be missed,
   when the cover splits the gain over cycles of at most eps each and
   no predecessor graph ever held the winner.

The shortest-path potentials behind the dual cuts and the
optimal-assignment tie-break are not computed here: they come from the
vectorized relaxation in ``transferable._chain_distances``; a validated
table keeps its last settled run, which the cuts then reuse.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import inf
from typing import Sequence, Union

import numpy as np

from .instances import _check_limit
from .tolerance import _check_tolerance, rounding_bound

_BRUTE_FORCE_LIMIT = 10

# A float64 array (whole matchings) or list rows (the existence oracle's
# prefixes); both give the same cycles and gains.
WeightMatrix = Union[np.ndarray, Sequence[Sequence[float]]]
Found = tuple[tuple[int, ...], float]


def linear_sum_assignment(weights):
    """scipy's assignment solver, maximizing the total weight; imported on
    the first call, as only ``solve ft`` needs it on every run."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(weights, maximize=True)


def _canonical(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate so the smallest node comes first; fixes the reported form."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _best_of(
    weights: WeightMatrix, cycles: list[list[int]], eps: float
) -> Found | None:
    """The first cycle of greatest gain above eps, summed from its smallest node."""
    best: Found | None = None
    for cycle in cycles:
        canon = _canonical(cycle)
        gain = 0.0
        for a, b in zip(canon, canon[1:] + canon[:1]):
            gain += float(weights[a][b])
        if gain > eps and (best is None or gain > best[1]):
            best = (canon, gain)
    return best


def _functional_cycles(step: Sequence[int]) -> list[list[int]]:
    """Every cycle of the graph x -> step[x] (-1 ends a path), in O(n).

    Each node has one successor, so each weak component holds at most
    one cycle; the nodes are listed in the order the walk meets them.
    """
    n = len(step)
    mark = [-1] * n
    cycles = []
    for start in range(n):
        node = start
        while node != -1 and mark[node] < 0:
            mark[node] = start
            node = step[node]
        if node == -1 or mark[node] != start:
            continue  # a dead end, or a walk that joined an earlier one
        loop = [node]
        nxt = step[node]
        while nxt != node:
            loop.append(nxt)
            nxt = step[nxt]
        cycles.append(loop)
    return cycles


def _cycle_cover(weights: WeightMatrix, eps: float) -> Found | None:
    """Decide a graph the relaxation left unsettled with no parent cycle above eps."""
    n = len(weights)
    arr = np.array(weights, dtype=float)
    np.fill_diagonal(arr, 0.0)
    # Rounding is monotone, so a cycle's float sum is at most the float sum
    # of its nodes' positive maxima, which lies within gamma_{n-1} of its
    # exact value, as does the computed bound.  gamma_{4n} covers both and
    # the last two roundings.
    positive = np.fmax(arr, 0.0)
    with np.errstate(over="ignore"):
        bound = min(positive.max(axis=1).sum(), positive.max(axis=0).sum())
        if bound + rounding_bound(4 * n, bound) <= eps:
            return None
    if np.isfinite(arr).all():
        _, succ = linear_sum_assignment(arr)
        step = [-1 if b == a else int(b) for a, b in enumerate(succ)]
        found = _best_of(weights, _functional_cycles(step), eps)
        if found is not None:
            return found
    if n <= _BRUTE_FORCE_LIMIT:
        return best_cycle_bruteforce(weights, eps)
    return None


def _settle_error(n: int, max_weight: float, eps: float) -> float:
    """Cycle gain that a settling relaxation can hide, weights at most
    ``max_weight`` in magnitude: distances stay within (n + 2)**2 * (eps +
    max_weight), and a pass that changes nothing holds each hop of a cycle
    up to one rounding of its distance sum and one of its shifted cost."""
    return rounding_bound(2 * n, (n + 2) ** 2 * (eps + max_weight))


def _resum_error(n: int, max_weight: float) -> float:
    """How far a gain re-summed over at most n weights of magnitude at most
    ``max_weight`` can sit from their exact sum: gamma_{n-1} of n *
    max_weight, doubled to cover one rounding inside each weight too."""
    return rounding_bound(2 * n, n * max_weight)


def find_positive_cycle(weights: WeightMatrix, eps: float) -> Found | None:
    """Simple directed cycle with weight sum > eps, or None.

    Returns (cycle, gain) with the cycle rotated to start at its
    smallest node; consecutive entries (wrapping) are the edges, and
    gain is their float sum in that order.
    """
    eps = _check_tolerance(eps)
    n = len(weights)
    if n < 2:
        return None
    shift = eps / n
    if isinstance(weights, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            cost = (-(weights - shift)).tolist()
    else:
        cost = [[-(w - shift) for w in row] for row in weights]
    for a in range(n):
        cost[a][a] = inf  # no self-loops
    dist = [0.0] * n
    pred = [-1] * n
    # Rescanning a row whose distance has not moved since its last scan
    # changes nothing, so such rows are skipped: the passes still make
    # exactly the relaxations of a full scan.
    scanned = [inf] * n
    for _ in range(n + 1):
        changed = False
        for a in range(n):
            da = dist[a]
            if da == scanned[a]:
                continue
            scanned[a] = da
            for b, c in enumerate(cost[a]):
                nd = da + c
                if nd < dist[b]:
                    dist[b] = nd
                    pred[b] = a
                    changed = True
        if not changed:
            if -inf in dist:
                break  # overflowed: "settled" would hide the cycle behind it
            return None  # converged: no cycle beats the shifted threshold
        # Parent edges point backwards, so a parent cycle reversed runs forwards.
        found = _best_of(weights, [c[::-1] for c in _functional_cycles(pred)], eps)
        if found is not None:
            return found
    return _cycle_cover(weights, eps)


def best_cycle_bruteforce(weights: WeightMatrix, eps: float) -> Found | None:
    """Exhaustive maximum over all simple directed cycles; oracle-grade.

    Enumerates every cycle once, as (smallest node, permutation of the rest).
    Guarded to small graphs; ``eps`` is not, so -inf finds the best cycle.
    """
    n = len(weights)
    _check_limit("cycle enumeration", n, _BRUTE_FORCE_LIMIT)
    rows = [[float(w) for w in row] for row in weights]
    best: Found | None = None
    for size in range(2, n + 1):
        for nodes in combinations(range(n), size):
            head = nodes[0]
            for rest in permutations(nodes[1:]):
                cycle = (head,) + rest
                gain = 0.0
                for a, b in zip(cycle, rest + (head,)):
                    gain += rows[a][b]
                if gain > eps and (best is None or gain > best[1]):
                    best = (cycle, gain)
    return best


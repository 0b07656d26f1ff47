"""Positive-cycle detection on dense couple digraphs.

Both the transferable-stability check and the partial-transfer chain
check reduce to one question: does the complete digraph on couples
contain a simple cycle whose weight sum exceeds the tolerance?

Detection negates the weights (minus a per-edge shift of eps/n, so a
cycle of length k trips the detector exactly when its gain exceeds
k*eps/n <= eps) and runs Bellman-Ford from all nodes at potential zero.
Any candidate cycle recovered from the predecessor chain is re-checked
against the raw weights before it is reported; if every candidate lands
inside the sub-eps knife edge, small graphs fall back to exhaustive
enumeration so the verdict matches the brute-force oracle exactly.

Shortest-path potentials (the dual cuts and the optimal-assignment
tie-break) come from ``relax_potentials``, one vectorized all-sources
Bellman-Ford pass per round, which also reports whether it settled.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .errors import SizeLimitError

_BRUTE_FORCE_LIMIT = 10

WeightMatrix = Sequence[Sequence[float]]


def _cycle_gain(weights: WeightMatrix, cycle: Sequence[int]) -> float:
    total = 0.0
    k = len(cycle)
    for idx in range(k):
        total += weights[cycle[idx]][cycle[(idx + 1) % k]]
    return total


def _canonical(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate so the smallest node comes first; fixes the reported form."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _cycle_from_predecessors(pred: list[int], start: int) -> tuple[int, ...] | None:
    seen: dict[int, int] = {}
    path: list[int] = []
    node = start
    while node != -1 and node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = pred[node]
    if node == -1:
        return None
    loop = path[seen[node]:]
    loop.reverse()  # predecessor edges point backwards
    return tuple(loop)


def find_positive_cycle(
    weights: WeightMatrix, eps: float
) -> tuple[tuple[int, ...], float] | None:
    """Simple directed cycle with weight sum > eps, or None.

    Returns (cycle, gain) with the cycle rotated to start at its
    smallest node; consecutive entries (wrapping) are the edges.
    """
    n = len(weights)
    if n < 2:
        return None
    shift = eps / n
    cost = [[-(weights[a][b] - shift) for b in range(n)] for a in range(n)]
    dist = [0.0] * n
    pred = [-1] * n
    touched: list[int] = []
    for _ in range(n + 1):
        touched = []
        for a in range(n):
            da = dist[a]
            row = cost[a]
            for b in range(n):
                if a == b:
                    continue
                nd = da + row[b]
                if nd < dist[b]:
                    dist[b] = nd
                    pred[b] = a
                    touched.append(b)
        if not touched:
            return None  # converged: no cycle beats the shifted threshold
    best: tuple[tuple[int, ...], float] | None = None
    for cand in sorted(set(touched)):
        cycle = _cycle_from_predecessors(pred, cand)
        if cycle is None:
            continue
        gain = _cycle_gain(weights, cycle)
        if gain > eps and (best is None or gain > best[1]):
            best = (_canonical(cycle), gain)
    if best is not None:
        return best
    # Every recovered cycle sits within eps of zero; decide exactly while
    # the graph is small enough to enumerate.
    if n <= _BRUTE_FORCE_LIMIT:
        return best_cycle_bruteforce(weights, eps)
    return None


def best_cycle_bruteforce(
    weights: WeightMatrix, eps: float
) -> tuple[tuple[int, ...], float] | None:
    """Exhaustive maximum over all simple directed cycles; oracle-grade.

    Enumerates every cycle as (smallest node, permutation of the rest),
    so each cycle is visited exactly once.  Guarded to small graphs.
    """
    n = len(weights)
    if n > _BRUTE_FORCE_LIMIT:
        raise SizeLimitError(f"cycle enumeration limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    best: tuple[tuple[int, ...], float] | None = None
    for size in range(2, n + 1):
        for nodes in combinations(range(n), size):
            head = nodes[0]
            for rest in permutations(nodes[1:]):
                cycle = (head,) + rest
                gain = _cycle_gain(weights, cycle)
                if gain > eps and (best is None or gain > best[1]):
                    best = (cycle, gain)
    return best


def relax_potentials(cost: np.ndarray, max_passes: int) -> tuple[np.ndarray, bool]:
    """All-sources shortest-path potentials, one numpy pass per round.

    Every node starts at potential zero; each pass relaxes all edges at
    once, ``dist[t] = min_s dist[s] + cost[s, t]``.  The diagonal of
    ``cost`` must be zero.  Returns ``(dist, settled)``: ``settled`` is
    True when a pass changed nothing within ``max_passes`` passes, and
    False when relaxation was still improving (a negative cycle, or one
    lost in rounding).  ``dist`` is the last iterate either way, so
    callers that tolerate rounding-level negative cycles get potentials
    that are feasible up to that rounding.  A pass leaves -inf and nan
    in place, so potentials that left the float range can settle too.
    """
    dist = np.zeros(cost.shape[0])
    for _ in range(max_passes):
        nxt = np.min(dist[:, None] + cost, axis=0)
        if not (nxt < dist).any():
            return dist, True
        dist = nxt
    return dist, False

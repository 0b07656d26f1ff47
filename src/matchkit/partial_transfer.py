"""Partial-transfer stability with two sharing levels.

A deviation is a chain of couples rotating partners.  Each hop's
appeal is the bribe margin delta_q: the best acceptable side payment at
internal sharing level q (q=0 recovers the two-sided strict-gain test,
q=1 the pooled-reward difference).  Hops with negative margin are
discounted by the inter-pair sharing level p before summing, so a chain
activates exactly when winners can cover the p-fraction of the losers'
losses.  Stability means no chain activates.

The existence question over the (p, q) square is probed empirically by
a seeded plane sweep backed by the exact existence oracle, with a known
two-couple family that has no stable matching whenever q exceeds p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .cycles import find_positive_cycle
from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .instances import Instance, Matching, PQParams, _lex_search, random_instance
from .rng import SplitMix64, Uniform01, derive_seed
from .tolerance import DEFAULT_EPS

ORACLE_LIMIT = 8
SWEEP_LIMIT = 6

InstanceStream = Callable[[float, float, int], Instance]


def clip_p(x: float, p: float) -> float:
    """Keep gains, discount losses: x when x >= 0, else p*x."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    return x if x >= 0.0 else p * x


def delta_q(inst: Instance, matching: Matching, i: int, j: int, q: float) -> float:
    """Bribe margin for man i courting woman j at internal sharing q.

    With a = man i's reward change and b = woman j's reward change
    (each against their current partner), the margin is
    min(q*a + b, q*b + a): the better side payment that both the
    briber finds worth offering and the recipient finds worth taking
    after keeping only the q-fraction.  Courting one's own partner is
    exactly neutral.
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if matching.n != inst.n:
        raise DimensionMismatchError(
            f"matching size {matching.n} does not fit instance size {inst.n}"
        )
    wi = matching.assignment[i]
    partner = matching.man_of(j)
    a = inst.theta_m[i][j] - inst.theta_m[i][wi]
    b = inst.theta_w[i][j] - inst.theta_w[partner][j]
    return min(q * a + b, q * b + a)


def delta_r(a: float, b: float, r: float) -> float:
    """Averaged minimum: (a+b)/2 - r*|a-b|/2.

    At r=1 this is min(a, b); it decreases in r, and
    min(q*a + b, q*b + a) == (q+1) * delta_r(a, b, (1-q)/(1+q)).
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    return 0.5 * (a + b) - 0.5 * r * abs(a - b)


@dataclass(frozen=True)
class PQChainWitness:
    """A couple cycle whose discounted margins sum above the tolerance.

    Falsy on purpose, mirroring ChainWitness: truth-testing the result
    of find_pq_blocking_chain reads as "is it stable".
    """

    cycle: tuple[int, ...]
    clipped_gain: float

    def __bool__(self) -> bool:
        return False


def _pq_weights(inst: Instance, assignment, p: float, q: float) -> list[list[float]]:
    """weights[a][b]: the p-clipped delta_q of couple a's man courting
    couple b's woman; zero on the diagonal.  ``assignment`` may be a
    prefix: its couples get the weights a full matching gives them."""
    n = len(assignment)
    theta_m, theta_w = inst.theta_m, inst.theta_w
    own_w = [theta_w[b][assignment[b]] for b in range(n)]
    weights = [[0.0] * n for _ in range(n)]
    for a in range(n):
        row_m = theta_m[a]
        row_w = theta_w[a]
        base_m = row_m[assignment[a]]
        row = weights[a]
        for b in range(n):
            if a == b:
                continue
            wb = assignment[b]
            ga = row_m[wb] - base_m
            gb = row_w[wb] - own_w[b]
            x = q * ga + gb
            y = q * gb + ga
            d = y if y < x else x  # min(x, y), without the call
            row[b] = d if d >= 0.0 else p * d
    return weights


def find_pq_blocking_chain(
    inst: Instance, matching: Matching, pq: PQParams, *, eps: float = DEFAULT_EPS
) -> Union[bool, PQChainWitness]:
    """True when the matching is (p, q)-stable, else a violating chain.

    Edge weight from couple a to couple b is the p-clipped margin of
    a's man courting b's woman; a chain activates exactly when some
    simple cycle has positive clipped sum.
    """
    if matching.n != inst.n:
        raise DimensionMismatchError(
            f"matching size {matching.n} does not fit instance size {inst.n}"
        )
    found = find_positive_cycle(_pq_weights(inst, matching.assignment, pq.p, pq.q), eps)
    if found is None:
        return True
    cycle, gain = found
    return PQChainWitness(cycle=cycle, clipped_gain=gain)


def exists_pq_stable(
    inst: Instance, pq: PQParams, *, eps: float = DEFAULT_EPS
) -> Matching | None:
    """The lexicographically first stable matching, or None.  Guarded to n <= 8.

    Complete matchings are visited depth first in lexicographic order
    and the first one the detector passes is returned, as a scan of all
    n! would.  The weight between two couples depends only on their own
    partners, so a blocking cycle among the first 2 to n - 2 couples
    blocks every completion and cuts them, when its gain clears eps by
    more than the detector's rounding on a full matching.
    """
    n = inst.n
    if n > ORACLE_LIMIT:
        raise SizeLimitError(f"existence oracle limited to n <= {ORACLE_LIMIT}, got {n}")
    p, q = pq.p, pq.q
    # On a full matching the detector's Bellman-Ford distances stay within
    # (n + 2)**2 * big, big bounding every weight plus eps, so its rounding
    # hides less than ``slack`` of a cycle's gain: a cycle beating eps +
    # slack keeps it from settling, and its exhaustive fallback then
    # reports that cycle.  An overflow makes slack inf and cuts nothing.
    slack = 0.0  # prefixes are checked from n = 4 up
    if n >= 4:
        rows = inst.theta_m + inst.theta_w
        big = eps + 4.0 * (max(map(max, rows)) - min(map(min, rows)))
        slack = 2 * n * 2.0**-53 * ((n + 2) ** 2 * big)

    def admits(prefix: tuple[int, ...]) -> bool:
        found = find_positive_cycle(_pq_weights(inst, prefix, p, q), eps)
        return found is None or found[1] <= eps + slack

    for leaf in _lex_search(n, admits, n - 2):
        if find_positive_cycle(_pq_weights(inst, leaf, p, q), eps) is None:
            return Matching(leaf)
    return None


def counterexample_instance(p: float, q: float, *, eps: float = DEFAULT_EPS) -> Instance:
    """Two-couple instance with no (p, q)-stable matching; needs q > p.

    Both tables equal [[0, a], [-b, 0]] with a = 1 and b chosen so that
    a/b = (p+q)/2 sits strictly between p and q: the identity matching
    then breaks because the winning hop covers the p-discounted loss,
    and the swapped matching breaks because both reverse hops have
    positive margin outright.
    """
    for name, value in (("p", p), ("q", q)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise DomainError(f"{name} must be a finite number")
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {value}")
    if q - p <= 10.0 * eps:
        raise DomainError(f"counterexample requires q > p (got p={p}, q={q})")
    a = 1.0
    b = 2.0 * a / (p + q)
    table = ((0.0, a), (-b, 0.0))
    return Instance(2, table, table)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: how many of the seeded trials admitted a stable matching."""

    p: float
    q: float
    trials: int
    existence_count: int


@dataclass(frozen=True)
class SweepReport:
    """Existence frequencies over the unit square, p-major order."""

    grid: tuple[SweepCell, ...]

    def to_csv(self) -> str:
        lines = ["p,q,trials,exists"]
        for cell in self.grid:
            lines.append(f"{cell.p!r},{cell.q!r},{cell.trials},{cell.existence_count}")
        return "\n".join(lines) + "\n"


def pq_plane_sweep(
    gen: InstanceStream, grid_steps: int, trials: int, *, eps: float = DEFAULT_EPS
) -> SweepReport:
    """Empirical existence map on a uniform (p, q) grid.

    For each cell, ``gen(p, q, trial)`` supplies the instance (n <= 6)
    and the existence oracle decides existence.  Cells are independent
    work units; results are identical to sequential execution.
    """
    if grid_steps < 2:
        raise DomainError(f"grid_steps must be >= 2, got {grid_steps}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    cells = []
    denom = grid_steps - 1
    for ip in range(grid_steps):
        p = ip / denom
        for iq in range(grid_steps):
            q = iq / denom
            pq = PQParams(p, q)
            count = 0
            for trial in range(trials):
                inst = gen(p, q, trial)
                if inst.n > SWEEP_LIMIT:
                    raise SizeLimitError(
                        f"sweep instances limited to n <= {SWEEP_LIMIT}, got {inst.n}"
                    )
                if exists_pq_stable(inst, pq, eps=eps) is not None:
                    count += 1
            cells.append(SweepCell(p, q, trials, count))
    return SweepReport(tuple(cells))


def mixed_instance_stream(n: int, seed: int) -> InstanceStream:
    """Half random, half adversarial trial stream for the plane sweep.

    Even trials draw a uniform random instance of size n.  Odd trials in
    the q > p region draw the two-couple counterexample family with a
    small multiplicative jitter (amplitude (q-p)/100, far below the
    construction's instability margin), so thin non-existence sets stay
    visible under sampling.
    """
    if n < 1:
        raise DomainError(f"stream size must be >= 1, got {n}")
    if n > SWEEP_LIMIT:
        raise SizeLimitError(f"sweep instances limited to n <= {SWEEP_LIMIT}, got {n}")

    def gen(p: float, q: float, trial: int) -> Instance:
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
        return random_instance(n, cell_seed, Uniform01())

    return gen


def check_pq_monotonicity(
    inst: Instance, matching: Matching, grid_steps: int, *, eps: float = DEFAULT_EPS
) -> bool:
    """Grid check: stability at (p, q) implies it at any p' >= p, q' <= q.

    More inter-pair sharing and less internal sharing both weaken
    deviating chains, so the stable region is an upper-left set of the
    grid.  Guarded to n <= 6.
    """
    if inst.n > SWEEP_LIMIT:
        raise SizeLimitError(f"grid check limited to n <= {SWEEP_LIMIT}, got {inst.n}")
    if grid_steps < 2:
        raise DomainError(f"grid_steps must be >= 2, got {grid_steps}")
    denom = grid_steps - 1
    stable = [[False] * grid_steps for _ in range(grid_steps)]
    for ip in range(grid_steps):
        for iq in range(grid_steps):
            pq = PQParams(ip / denom, iq / denom)
            stable[ip][iq] = find_pq_blocking_chain(inst, matching, pq, eps=eps) is True
    for ip in range(grid_steps):
        for iq in range(grid_steps):
            if not stable[ip][iq]:
                continue
            for ip2 in range(ip, grid_steps):
                for iq2 in range(iq + 1):
                    if not stable[ip2][iq2]:
                        return False
    return True

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

from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .cycles import _settle_error, find_positive_cycle
from .errors import DomainError
from .instances import (
    SEARCH_LIMIT, Instance, Matching, PQParams, _check_fits, _check_limit, _check_pair,
    _check_unit_interval, _drawn_instance, _lex_search,
)
from .rng import _check_count, _check_integer, _child_seeds, _u64_rows, _unit_floats, derive_seed
from .tolerance import DEFAULT_EPS, _check_tolerance

ORACLE_LIMIT = SEARCH_LIMIT

# gen(p, q, trials): an iterator over the cell's ``trials`` instances, in trial order
InstanceStream = Callable[[float, float, int], Iterator[Instance]]


def clip_p(x: float, p: float) -> float:
    """Keep gains, discount losses: x when x >= 0, else p*x."""
    p = _check_unit_interval("p", p)
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
    q = _check_unit_interval("q", q)
    _check_fits(inst.n, matching)
    i, j = _check_pair(inst.n, i, j)
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
    r = _check_unit_interval("r", r)
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


def _pq_weights(theta_m: np.ndarray, theta_w: np.ndarray, assignment, p: float, q: float):
    """weights[a, b], a float64 array: the p-clipped delta_q of couple a's man
    courting couple b's woman, for a whole matching.  At (1, 1), on a pooled
    table and a zero women's table, these are the fully transferable chain
    gains."""
    cols = np.asarray(assignment)
    own = np.arange(len(cols)), cols
    with np.errstate(over="ignore", invalid="ignore"):
        ga = theta_m[:, cols] - theta_m[own][:, None]
        gb = theta_w[:, cols] - theta_w[own]
        x, y = q * ga + gb, q * gb + ga
        d = np.where(y < x, y, x)  # a nan lands where the loop's min puts it
        return np.where(d >= 0, d, p * d)


def _prefix_weights(inst: Instance, prefix, p: float, q: float) -> list[list[float]]:
    """``_pq_weights`` for the couples of ``prefix``, a matching's first men
    (the oracle's are whole), by the same float operations in Python, the
    faster form at <= 8 couples.  On finite tables own margins are exactly 0."""
    own_w = [row_w[wb] for row_w, wb in zip(inst.theta_w, prefix)]
    weights = []
    for row_m, row_w, wa in zip(inst.theta_m, inst.theta_w, prefix):
        base_m = row_m[wa]
        row = []
        for wb, ow in zip(prefix, own_w):
            ga = row_m[wb] - base_m
            gb = row_w[wb] - ow
            x, y = q * ga + gb, q * gb + ga
            d = y if y < x else x  # min(x, y), without the call
            row.append(d if d >= 0.0 else p * d)
        weights.append(row)
    return weights


def find_pq_blocking_chain(
    inst: Instance, matching: Matching, pq: PQParams, *, eps: float = DEFAULT_EPS
) -> Union[bool, PQChainWitness]:
    """True when the matching is (p, q)-stable, else a violating chain.

    Edge weight from couple a to couple b is the p-clipped margin of
    a's man courting b's woman; a chain activates exactly when some
    simple cycle has positive clipped sum.
    """
    eps = _check_tolerance(eps)
    _check_fits(inst.n, matching)
    tables = inst.theta_m.array, inst.theta_w.array
    found = find_positive_cycle(_pq_weights(*tables, matching.assignment, pq.p, pq.q), eps)
    return True if found is None else PQChainWitness(*found)


def exists_pq_stable(
    inst: Instance, pq: PQParams, *, eps: float = DEFAULT_EPS
) -> Matching | None:
    """The lexicographically first stable matching, or None.  Guarded to n <= 8.

    Complete matchings are visited depth first in lexicographic order
    and the first one the detector passes is returned, as a scan of all
    n! would.  The weight between two couples depends only on their own
    partners, so a cycle that beats eps by more than the detector's
    rounding on a full matching blocks every matching holding its
    couples.  When man k takes woman y, each later man b loses every
    woman z for which couples (k, y) and (b, z) form such a 2-cycle;
    only the complete matchings left go to the detector.
    """
    eps = _check_tolerance(eps)
    n = inst.n
    _check_limit("existence oracle", n, ORACLE_LIMIT)
    p, q = pq.p, pq.q
    # plain tuples: CPython's fast subscript takes tuple itself, not a subclass
    theta_m, theta_w = tuple(inst.theta_m), tuple(inst.theta_w)
    # A cycle gaining more than eps + slack keeps the detector from settling
    # on a full matching, whose weights are at most 4 reward spreads, and an
    # unsettled detector on at most cycles._BRUTE_FORCE_LIMIT couples, which
    # ORACLE_LIMIT must not exceed, reports a cycle.
    rows = theta_m + theta_w
    limit = eps + _settle_error(n, 4.0 * (max(map(max, rows)) - min(map(min, rows))), eps)

    def keep(k: int, wk: int, b: int, women: list[int]) -> list[int]:
        row_m, row_w, b_m, b_w = theta_m[k], theta_w[k], theta_m[b], theta_w[b]
        base_m, b_to_wk = row_m[wk], b_m[wk]
        gb_back = b_w[wk] - row_w[wk]
        kept = []  # weights there (k to b) and back by _prefix_weights' float operations
        for z in women:
            if z == wk:
                continue
            ga, gb = row_m[z] - base_m, row_w[z] - b_w[z]
            x, y = q * ga + gb, q * gb + ga
            there = y if y < x else x
            ga = b_to_wk - b_m[z]
            x, y = q * ga + gb_back, q * gb_back + ga
            back = y if y < x else x
            gain = (there if there >= 0.0 else p * there) + (back if back >= 0.0 else p * back)
            if not gain > limit:
                kept.append(z)
        return kept

    for leaf in _lex_search(n, keep):
        if find_positive_cycle(_prefix_weights(inst, leaf, p, q), eps) is None:
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
    eps = _check_tolerance(eps)
    p = _check_unit_interval("p", p)
    q = _check_unit_interval("q", q)
    if q - p <= 10.0 * eps:
        raise DomainError(f"counterexample requires q > p (got p={p}, q={q})")
    table = _counterexample_table(p, q)
    return Instance(2, table, table)


def _counterexample_table(p: float, q: float) -> tuple[tuple[float, float], ...]:
    """Both tables of ``counterexample_instance(p, q)``, unchecked."""
    a = 1.0
    b = 2.0 * a / (p + q)
    return ((0.0, a), (-b, 0.0))


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

    For each cell, ``gen(p, q, trials)`` supplies the cell's instances,
    one per trial, and the existence oracle, under its own size guard
    (n <= 8), decides existence for each.  Cells are independent work
    units; results are identical to sequential execution.  A stream that
    gives a cell more or fewer than ``trials`` instances is refused.
    """
    eps = _check_tolerance(eps)
    grid_steps = _check_count("grid_steps", grid_steps, 2)
    trials = _check_count("trials", trials, 1)
    cells = []
    denom = grid_steps - 1
    for ip in range(grid_steps):
        p = ip / denom
        for iq in range(grid_steps):
            q = iq / denom
            pq = PQParams(p, q)
            count = given = 0
            for inst in gen(p, q, trials):
                given += 1
                if exists_pq_stable(inst, pq, eps=eps) is not None:
                    count += 1
            if given != trials:
                raise DomainError(f"stream gave {given} instances for {trials} trials")
            cells.append(SweepCell(p, q, trials, count))
    return SweepReport(tuple(cells))


def mixed_instance_stream(n: int, seed: int) -> InstanceStream:
    """Half random, half adversarial trial stream for the plane sweep.

    Trial t of cell (p, q) draws from the seed ``derive_seed(seed, P, Q,
    t)``, with P and Q the sharing levels in units of 1e-9.  Even trials
    draw a uniform random instance of size n, as ``random_instance`` does
    from that seed.  Odd trials in the q > p region draw the two-couple
    counterexample family with a small multiplicative jitter (amplitude
    (q-p)/100, far below the construction's instability margin), so thin
    non-existence sets stay visible under sampling.

    A cell is drawn in blocks of up to _TRIAL_BLOCK trials: their seeds
    are one array, the random trials' rewards one row of draws per trial,
    the jittered trials' noise a second block.  Blocks are drawn as the
    iterator reaches them, so memory stays bounded for any trial count.
    """
    n = _check_count("stream size", n, 1)
    seed = _check_integer("seed", seed)
    # the oracle's own guard, before an oversized instance's 2n^2 draws
    _check_limit("existence oracle", n, ORACLE_LIMIT)

    def gen(p: float, q: float, trials: int) -> Iterator[Instance]:
        p = _check_unit_interval("p", p)
        q = _check_unit_interval("q", q)
        trials = _check_count("trials", trials, 0)
        cell_seed = derive_seed(seed, round(p * 10**9), round(q * 10**9))
        return _cell_instances(n, cell_seed, p, q, trials)

    return gen


# Trials per block of a stream's cell; even, so every block starts at an even trial.
_TRIAL_BLOCK = 256


def _cell_instances(n: int, cell_seed: int, p: float, q: float, trials: int) -> Iterator[Instance]:
    """The instances of ``mixed_instance_stream``'s cell, block by block."""
    jittered = q - p > 1e-6
    if jittered:
        # counterexample_instance(p, q), q - p far above its guard, jittered by
        # 8 draws: the men's table, then the women's, row by row
        amp = (q - p) / 100.0
        base = _counterexample_table(p, q)
    for start in range(0, trials, _TRIAL_BLOCK):
        seeds = _child_seeds(cell_seed, start, min(trials, start + _TRIAL_BLOCK))
        randoms = seeds[::2, None] if jittered else seeds[:, None]
        draws = _unit_floats(_u64_rows(randoms, 2 * n * n)).reshape(-1, 2 * n, n)
        block = [_drawn_instance(n, rows) for rows in draws.tolist()]
        if jittered:
            noise = _unit_floats(_u64_rows(seeds[1::2, None], 8)).reshape(-1, 2, 2, 2)
            tables = (amp * (2.0 * noise - 1.0) + base).reshape(-1, 4, 2)
            both = [None] * len(seeds)
            both[::2] = block
            both[1::2] = [_drawn_instance(2, rows) for rows in tables.tolist()]
            block = both
        yield from block


def check_pq_monotonicity(
    inst: Instance, matching: Matching, grid_steps: int, *, eps: float = DEFAULT_EPS
) -> bool:
    """Grid check: stability at (p, q) implies it at any p' >= p, q' <= q.

    More inter-pair sharing and less internal sharing both weaken
    deviating chains, so the stable region is an upper-left set of the
    grid.  Each cell is one ``find_pq_blocking_chain`` call, with no size
    guard: an 11 by 11 grid takes about 0.2 s at n = 150.
    """
    eps = _check_tolerance(eps)
    grid_steps = _check_count("grid_steps", grid_steps, 2)
    denom = grid_steps - 1
    stable = [[False] * grid_steps for _ in range(grid_steps)]
    for ip in range(grid_steps):
        for iq in range(grid_steps):
            pq = PQParams(ip / denom, iq / denom)
            stable[ip][iq] = find_pq_blocking_chain(inst, matching, pq, eps=eps) is True
    # Upper-left closure follows, by induction, from each stable cell's
    # next cell in p and previous cell in q being stable.
    return all(
        (ip + 1 == grid_steps or stable[ip + 1][iq]) and (iq == 0 or stable[ip][iq - 1])
        for ip in range(grid_steps)
        for iq in range(grid_steps)
        if stable[ip][iq]
    )

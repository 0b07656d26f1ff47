"""Non-transferable stability: blocking pairs, deferred acceptance, and
small-scale enumeration of the stable set.

A pair blocks when both partners would strictly gain, each judged by
their own reward table; strictness means exceeding the tolerance.  The
proposing-side algorithm works on derived ordinal preferences with a
deterministic tie rule, so it is total even on instances with equal
rewards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _shown
from .instances import (
    SEARCH_LIMIT, Instance, Matching, _check_fits, _check_limit, _lex_search, preference_orders,
)
from .tolerance import DEFAULT_EPS, _check_tolerance

ENUMERATION_LIMIT = SEARCH_LIMIT


def find_fnt_blocking_pairs(
    inst: Instance, matching: Matching, *, eps: float = DEFAULT_EPS
) -> list[tuple[int, int]]:
    """All pairs (man, woman) that block the matching; empty means stable.

    A pair (i, j) with j not man i's partner blocks when both
    theta_m[i][j] - theta_m[i][current woman] and
    theta_w[i][j] - theta_w[current man of j][j] exceed eps.
    """
    eps = _check_tolerance(eps)
    _check_fits(inst.n, matching)
    m, w = inst.theta_m.array, inst.theta_w.array
    couples = np.arange(inst.n)
    with np.errstate(over="ignore"):  # an overflowing gain is inf, as in Python floats
        # a man's gain with his own wife is exactly 0, and eps >= 0
        mask = (m - m[couples, matching.assignment][:, None] > eps) & (
            w - w[matching.inverse, couples] > eps
        )
    return list(map(tuple, np.argwhere(mask).tolist()))


@dataclass(frozen=True)
class GaleShapleyResult:
    """Deferred-acceptance outcome plus its proposal count."""

    matching: Matching
    proposals: int
    proposer: str


def gale_shapley_detailed(inst: Instance, proposer: str = "men") -> GaleShapleyResult:
    """Run deferred acceptance and report the proposal count.

    Women proposing runs the men's loop with the two ranked lists
    swapped.  Each proposer advances one list position per proposal,
    so at most n*n proposals happen in total.
    """
    if proposer not in ("men", "women"):
        raise DomainError(f'proposer must be "men" or "women", got {_shown(proposer, repr)}')
    prefs = preference_orders(inst)
    if proposer == "men":
        husbands, proposals = _deferred_acceptance(prefs.men, prefs.women)
        assignment = Matching(tuple(husbands)).inverse
    else:
        assignment, proposals = _deferred_acceptance(prefs.women, prefs.men)
    return GaleShapleyResult(Matching(tuple(assignment)), proposals, proposer)


def _positions(lists) -> list[list[int]]:
    """positions[x][y]: where y stands in ``lists[x]``, a list of n items."""
    positions = [[0] * len(lists) for _ in lists]
    for row, ranking in zip(positions, lists):
        for position, y in enumerate(ranking):
            row[y] = position
    return positions


def _deferred_acceptance(proposing, receiving) -> tuple[list[int], int]:
    """Each receiver's partner after deferred acceptance, and the number
    of proposals.  Equal rewards rank the lower index first, so an
    engaged receiver keeps the lower-index proposer on a tied challenge.
    """
    n = len(proposing)
    rank = _positions(receiving)
    next_choice = [0] * n
    partner = [-1] * n
    free = deque(range(n))
    proposals = 0
    while free:
        p = free.popleft()
        r = proposing[p][next_choice[p]]
        next_choice[p] += 1
        proposals += 1
        current = partner[r]
        if current == -1:
            partner[r] = p
        elif rank[r][p] < rank[r][current]:
            partner[r] = p
            free.append(current)
        else:
            free.append(p)
    return partner, proposals


def gale_shapley(inst: Instance, proposer: str = "men") -> Matching:
    """Deferred-acceptance matching; always stable for the tolerance rule."""
    return gale_shapley_detailed(inst, proposer).matching


def enumerate_fnt_stable(inst: Instance, *, eps: float = DEFAULT_EPS) -> list[Matching]:
    """Every stable matching, exhaustively; sorted lexicographically.

    A pair blocks by its two partners alone, so blocking is a conflict
    between two couples: (k, y) and (b, z) conflict when man k and woman
    z, or man b and woman y, block as ``find_fnt_blocking_pairs`` tests.
    The search places men in order, tries women in ascending index, and
    strikes from each later man b every woman z whose couple conflicts
    with a placed one, so the assignments it completes are exactly the
    stable ones.  Guarded to n <= 8.
    """
    eps = _check_tolerance(eps)
    n = inst.n
    _check_limit("stable-set enumeration", n, ENUMERATION_LIMIT)
    # plain tuples: CPython's fast subscript takes a tuple itself, not a subclass
    theta_m, theta_w = tuple(inst.theta_m), tuple(inst.theta_w)

    def keep(k: int, wk: int, b: int, women: list[int]) -> list[int]:
        row_m, row_w, b_m, b_w = theta_m[k], theta_w[k], theta_m[b], theta_w[b]
        own, to_wk = row_m[wk], b_m[wk]
        wk_stays = b_w[wk] - row_w[wk] <= eps  # woman wk gains nothing from man b
        return [
            z
            for z in women
            if z != wk
            and not (row_m[z] - own > eps and row_w[z] - b_w[z] > eps)  # man k, woman z
            and (wk_stays or not to_wk - b_m[z] > eps)  # man b, woman wk
        ]

    return [Matching(a) for a in _lex_search(n, keep)]


@dataclass(frozen=True)
class MenOptimalityReport:
    """Whether men-proposing deferred acceptance is best for every man.

    ``holds`` is None when the instance has ties: the claim is only
    asserted for strict preferences, where the derived order is the
    actual preference and not a tie-breaking convention.
    """

    applicable: bool
    holds: bool | None
    stable_count: int
    detail: str


def verify_men_optimality(inst: Instance, *, eps: float = DEFAULT_EPS) -> MenOptimalityReport:
    """Check, by enumeration, that no stable matching beats men-proposing
    deferred acceptance for any man (rank measured in his derived list)."""
    eps = _check_tolerance(eps)
    prefs = preference_orders(inst)
    if prefs.has_ties:
        return MenOptimalityReport(False, None, 0, "instance has tied rewards; not applicable")
    stable = enumerate_fnt_stable(inst, eps=eps)
    husbands, _ = _deferred_acceptance(prefs.men, prefs.women)
    proposed = Matching(tuple(husbands)).inverse
    n = inst.n
    rank = _positions(prefs.men)
    for other in stable:
        for i in range(n):
            if rank[i][proposed[i]] > rank[i][other.assignment[i]]:
                detail = f"man {i} prefers stable matching {other.assignment}"
                return MenOptimalityReport(True, False, len(stable), detail)
    detail = f"optimal for all men across {len(stable)} stable matchings"
    return MenOptimalityReport(True, True, len(stable), detail)


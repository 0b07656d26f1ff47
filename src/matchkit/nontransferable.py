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

from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .instances import Instance, Matching, _lex_search, preference_orders
from .tolerance import DEFAULT_EPS

ENUMERATION_LIMIT = 8


def find_fnt_blocking_pairs(
    inst: Instance, matching: Matching, *, eps: float = DEFAULT_EPS
) -> list[tuple[int, int]]:
    """All pairs (man, woman) that block the matching; empty means stable.

    A pair (i, j) with j not man i's partner blocks when both
    theta_m[i][j] - theta_m[i][current woman] and
    theta_w[i][j] - theta_w[current man of j][j] exceed eps.
    """
    _require_same_size(inst, matching)
    n = inst.n
    assignment, inverse = matching.assignment, matching.inverse
    return [
        (i, j)
        for i in range(n)
        for j in _blocking_women(inst, i, assignment[i], range(n), inverse, eps)
    ]


def _blocking_women(inst: Instance, i: int, wi: int, women, husbands, eps: float) -> list[int]:
    """The women j among ``women`` who block with man i: he, married to
    woman wi, and she, married to the matching entry of ``husbands``,
    both gain more than eps by marrying each other.  His own wife never
    blocks."""
    row_m, row_w, theta_w = inst.theta_m[i], inst.theta_w[i], inst.theta_w
    own = row_m[wi]
    return [
        j
        for j, mj in zip(women, husbands)
        if row_m[j] - own > eps and row_w[j] - theta_w[mj][j] > eps and j != wi
    ]


@dataclass(frozen=True)
class GaleShapleyResult:
    """Deferred-acceptance outcome plus its proposal count."""

    matching: Matching
    proposals: int
    proposer: str


def gale_shapley_detailed(inst: Instance, proposer: str = "men") -> GaleShapleyResult:
    """Run deferred acceptance and report the proposal count.

    Women proposing is the mirrored run: sides swap, tables transpose,
    and the result maps back.  Each proposer advances one list position
    per proposal, so at most n*n proposals happen in total.
    """
    if proposer not in ("men", "women"):
        raise DomainError(f'proposer must be "men" or "women", got {proposer!r}')
    if proposer == "women":
        result = gale_shapley_detailed(inst.mirrored(), "men")
        assignment = [-1] * inst.n
        for woman, man in enumerate(result.matching.assignment):
            assignment[man] = woman
        return GaleShapleyResult(Matching(tuple(assignment)), result.proposals, "women")

    prefs = preference_orders(inst)
    n = inst.n
    # rank[w][i]: position of man i in woman w's tie-broken list.  Equal
    # rewards rank the lower-index man first, so an engaged woman keeps
    # the lower-index man on a tied challenge.
    rank = [[0] * n for _ in range(n)]
    for w in range(n):
        for position, man in enumerate(prefs.women[w]):
            rank[w][man] = position
    next_choice = [0] * n
    fiance = [-1] * n
    free = deque(range(n))
    proposals = 0
    while free:
        man = free.popleft()
        woman = prefs.men[man][next_choice[man]]
        next_choice[man] += 1
        proposals += 1
        current = fiance[woman]
        if current == -1:
            fiance[woman] = man
        elif rank[woman][man] < rank[woman][current]:
            fiance[woman] = man
            free.append(current)
        else:
            free.append(man)
    assignment = [-1] * n
    for woman, man in enumerate(fiance):
        assignment[man] = woman
    return GaleShapleyResult(Matching(tuple(assignment)), proposals, "men")


def gale_shapley(inst: Instance, proposer: str = "men") -> Matching:
    """Deferred-acceptance matching; always stable for the tolerance rule."""
    return gale_shapley_detailed(inst, proposer).matching


def enumerate_fnt_stable(inst: Instance, *, eps: float = DEFAULT_EPS) -> list[Matching]:
    """Every stable matching, exhaustively; sorted lexicographically.

    A depth-first search over partial matchings places men in order and
    tries women in ascending index.  Placing man k with woman w settles
    exactly the pairs of man k with the placed women and of woman w with
    the placed men, since a pair blocks by its two partners alone; a
    blocking one cuts every completion.  Guarded to n <= 8.
    """
    n = inst.n
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(f"stable-set enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")

    def admits(prefix: tuple[int, ...]) -> bool:
        k = len(prefix) - 1
        wk = prefix[k]
        return not _blocking_women(inst, k, wk, prefix[:k], range(k), eps) and not any(
            _blocking_women(inst, i, prefix[i], (wk,), (k,), eps) for i in range(k)
        )

    return [Matching(a) for a in _lex_search(n, admits, n)]


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
    prefs = preference_orders(inst)
    if prefs.has_ties:
        return MenOptimalityReport(
            applicable=False,
            holds=None,
            stable_count=0,
            detail="instance has tied rewards; not applicable",
        )
    stable = enumerate_fnt_stable(inst, eps=eps)
    proposed = gale_shapley(inst)
    n = inst.n
    rank = [[0] * n for _ in range(n)]
    for i in range(n):
        for position, woman in enumerate(prefs.men[i]):
            rank[i][woman] = position
    for other in stable:
        for i in range(n):
            if rank[i][proposed.assignment[i]] > rank[i][other.assignment[i]]:
                return MenOptimalityReport(
                    applicable=True,
                    holds=False,
                    stable_count=len(stable),
                    detail=f"man {i} prefers stable matching {other.assignment}",
                )
    return MenOptimalityReport(
        applicable=True,
        holds=True,
        stable_count=len(stable),
        detail=f"optimal for all men across {len(stable)} stable matchings",
    )


def _require_same_size(inst: Instance, matching: Matching) -> None:
    if matching.n != inst.n:
        raise DimensionMismatchError(
            f"matching size {matching.n} does not fit instance size {inst.n}"
        )

"""Metamorphic properties: no verdict depends on which side is called men,
on how people are numbered, or on the unit of money.

Three transforms act on an instance and a matching:

- renumbering: man i becomes man sigma[i] and woman j becomes woman tau[j];
- mirroring: ``Instance.mirrored``, with the inverse matching;
- scaling both tables by 2**k, exact in floats, with eps scaled alike.

Verdicts are compared under all three.  Sets, witnesses and cuts are
compared only where the transform maps them exactly: the nt engines
compare each reward with another of the same person, so their sets map
under every transform; scaling scales every float operation of the chain
engines exactly, so witnesses keep their cycle and scale their gain,
cuts scale bit for bit, and the optimal assignment keeps its matching
and scales its value; the core search is exact, so its men-optimal
point follows a renumbering exactly.  A renumbered or mirrored chain is
summed in another order, which can round differently, so there only the
verdict is compared.  Mirroring runs on uniform and small-integer tables
only: at the knife edge one side's chain weights are row differences and
the other's column differences, which round apart.
"""

from __future__ import annotations

import math

import pytest

from matchkit import (
    DEFAULT_EPS,
    BargainingModel,
    Instance,
    IntegerRange,
    Matching,
    NotCyclicallyMonotoneError,
    PQParams,
    SplitMix64,
    Uniform01,
    combined_rewards,
    derive_seed,
    dual_cuts,
    enumerate_fnt_stable,
    exists_pq_stable,
    find_fnt_blocking_pairs,
    find_pq_blocking_chain,
    gale_shapley,
    is_cyclically_monotone,
    optimal_assignment,
    random_instance,
    search_core,
)

from conftest import seeded_permutation

SCALES = (-30, 30)
CELLS = tuple(PQParams(p, q) for p, q in ((0, 0), (0.5, 0.5), (1, 1), (0, 1), (1, 0)))
DISTS = (Uniform01(), IntegerRange(0, 4))


def corpus(sizes, seeds):
    """(seed, instance) over uniform and small-integer tables; the seed
    also draws the instance's matchings, labels and retention table."""
    for d, dist in enumerate(DISTS):
        for n in sizes:
            for s in range(seeds):
                seed = derive_seed(88, d, n, s)
                yield seed, random_instance(n, seed, dist)


def matchings(inst: Instance, seed: int) -> list[Matching]:
    """Deferred acceptance, the pooled optimum, the identity and a seeded one."""
    n = inst.n
    rng = SplitMix64(derive_seed(89, seed))
    return [
        gale_shapley(inst),
        optimal_assignment(combined_rewards(inst))[0],
        Matching(tuple(range(n))),
        Matching(seeded_permutation(n, rng)),
    ]


def labels(n: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A seeded sigma for the men and tau for the women."""
    rng = SplitMix64(derive_seed(90, seed))
    return seeded_permutation(n, rng), seeded_permutation(n, rng)


def _moved(table, sigma, tau):
    n = len(table)
    out = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            out[sigma[i]][tau[j]] = x
    return out


def renumbered(inst: Instance, sigma, tau) -> Instance:
    beta = None if inst.beta is None else _moved(inst.beta, sigma, tau)
    return Instance(
        inst.n, _moved(inst.theta_m, sigma, tau), _moved(inst.theta_w, sigma, tau), beta
    )


def renumbered_matching(matching: Matching, sigma, tau) -> Matching:
    out = [0] * matching.n
    for i, j in enumerate(matching.assignment):
        out[sigma[i]] = tau[j]
    return Matching(tuple(out))


def scaled(inst: Instance, k: int) -> Instance:
    def table(t):
        return [[math.ldexp(x, k) for x in row] for row in t]

    return Instance(inst.n, table(inst.theta_m), table(inst.theta_w), inst.beta)


def verdict(result) -> bool:
    return result is True


def dual_verdict(theta, matching, eps=DEFAULT_EPS) -> bool:
    try:
        dual_cuts(theta, matching, eps=eps)
    except NotCyclicallyMonotoneError:
        return False
    return True


class TestNontransferable:
    """Every nt comparison is between two rewards of one person, so the
    blocking pairs and the stable set map exactly under each transform."""

    def test_blocking_pairs(self):
        for seed, inst in corpus(range(2, 8), 4):
            sigma, tau = labels(inst.n, seed)
            moved, mirror = renumbered(inst, sigma, tau), inst.mirrored()
            for matching in matchings(inst, seed):
                pairs = find_fnt_blocking_pairs(inst, matching)
                got = find_fnt_blocking_pairs(moved, renumbered_matching(matching, sigma, tau))
                assert set(got) == {(sigma[i], tau[j]) for i, j in pairs}, seed
                got = find_fnt_blocking_pairs(mirror, Matching(matching.inverse))
                assert set(got) == {(j, i) for i, j in pairs}, seed
                for k in SCALES:
                    eps = math.ldexp(DEFAULT_EPS, k)
                    assert find_fnt_blocking_pairs(scaled(inst, k), matching, eps=eps) == pairs

    def test_stable_sets(self):
        for seed, inst in corpus(range(2, 7), 3):
            sigma, tau = labels(inst.n, seed)
            stable = enumerate_fnt_stable(inst)
            got = enumerate_fnt_stable(renumbered(inst, sigma, tau))
            assert set(got) == {renumbered_matching(m, sigma, tau) for m in stable}, seed
            got = enumerate_fnt_stable(inst.mirrored())
            assert set(got) == {Matching(m.inverse) for m in stable}, seed
            for k in SCALES:
                eps = math.ldexp(DEFAULT_EPS, k)
                assert enumerate_fnt_stable(scaled(inst, k), eps=eps) == stable, seed


class TestChains:
    """Renumbering permutes the couple graph and mirroring reverses it, so
    verdicts agree; scaling keeps the witness and scales its gain."""

    def test_pq_blocking_chain(self):
        for seed, inst in corpus(range(2, 9), 3):
            sigma, tau = labels(inst.n, seed)
            moved, mirror = renumbered(inst, sigma, tau), inst.mirrored()
            for matching in matchings(inst, seed):
                for pq in CELLS:
                    found = find_pq_blocking_chain(inst, matching, pq)
                    where = (seed, matching, pq)
                    got = find_pq_blocking_chain(
                        moved, renumbered_matching(matching, sigma, tau), pq
                    )
                    assert verdict(got) == verdict(found), where
                    got = find_pq_blocking_chain(mirror, Matching(matching.inverse), pq)
                    assert verdict(got) == verdict(found), where
                    for k in SCALES:
                        eps = math.ldexp(DEFAULT_EPS, k)
                        got = find_pq_blocking_chain(scaled(inst, k), matching, pq, eps=eps)
                        if found is True:
                            assert got is True, where
                        else:
                            assert got.cycle == found.cycle, where
                            assert got.clipped_gain == math.ldexp(found.clipped_gain, k), where

    def test_cyclical_monotonicity(self):
        for seed, inst in corpus(range(2, 11), 3):
            theta = combined_rewards(inst)
            sigma, tau = labels(inst.n, seed)
            moved = combined_rewards(renumbered(inst, sigma, tau))
            mirror = combined_rewards(inst.mirrored())
            for matching in matchings(inst, seed):
                found = is_cyclically_monotone(theta, matching)
                where = (seed, matching)
                got = is_cyclically_monotone(moved, renumbered_matching(matching, sigma, tau))
                assert verdict(got) == verdict(found), where
                got = is_cyclically_monotone(mirror, Matching(matching.inverse))
                assert verdict(got) == verdict(found), where
                for k in SCALES:
                    eps = math.ldexp(DEFAULT_EPS, k)
                    got = is_cyclically_monotone(
                        combined_rewards(scaled(inst, k)), matching, eps=eps
                    )
                    if found is True:
                        assert got is True, where
                    else:
                        assert got.cycle == found.cycle, where
                        assert got.gain == math.ldexp(found.gain, k), where

    def test_dual_cuts(self):
        """Verdicts on every matching under each transform.  On the pooled
        optimum, the relaxation compares the same sums in any numbering,
        so the cuts follow a renumbering exactly, and scale bit for bit."""
        for seed, inst in corpus(range(2, 11), 3):
            theta = combined_rewards(inst)
            sigma, tau = labels(inst.n, seed)
            moved = combined_rewards(renumbered(inst, sigma, tau))
            mirror = combined_rewards(inst.mirrored())
            for matching in matchings(inst, seed):
                where = (seed, matching)
                expected = dual_verdict(theta, matching)
                moved_matching = renumbered_matching(matching, sigma, tau)
                assert dual_verdict(moved, moved_matching) == expected, where
                assert dual_verdict(mirror, Matching(matching.inverse)) == expected, where
                for k in SCALES:
                    eps = math.ldexp(DEFAULT_EPS, k)
                    got = dual_verdict(combined_rewards(scaled(inst, k)), matching, eps)
                    assert got == expected, where
            best = optimal_assignment(theta)[0]
            cuts = dual_cuts(theta, best)
            got = dual_cuts(moved, renumbered_matching(best, sigma, tau))
            assert [got.u[sigma[i]] for i in range(inst.n)] == list(cuts.u), seed
            assert [got.v[tau[j]] for j in range(inst.n)] == list(cuts.v), seed
            for k in SCALES:
                eps = math.ldexp(DEFAULT_EPS, k)
                got = dual_cuts(combined_rewards(scaled(inst, k)), best, eps=eps)
                assert got.u == tuple(math.ldexp(x, k) for x in cuts.u), seed
                assert got.v == tuple(math.ldexp(x, k) for x in cuts.v), seed


class TestOptimalAssignment:
    """The tie rule scales with the table, so scaling keeps the matching
    and scales the value exactly, also at 2**-40, where a rule with an
    absolute floor would read real gaps as ties."""

    def test_optimal_assignment(self):
        tables = [combined_rewards(inst) for _, inst in corpus(range(2, 11), 3)]
        tables += [
            combined_rewards(random_instance(n, derive_seed(7, n, s)))
            for n in (5, 10, 20, 40)
            for s in range(5)
        ]
        for index, theta in enumerate(tables):
            matching, value = optimal_assignment(theta)
            for k in (-40, *SCALES):
                got = optimal_assignment([[math.ldexp(x, k) for x in row] for row in theta])
                assert got == (matching, math.ldexp(value, k)), (index, k)


class TestExistence:
    def test_exists_pq_stable(self):
        """Verdicts under every transform; scaling returns the same matching."""
        for seed, inst in corpus(range(2, 7), 3):
            sigma, tau = labels(inst.n, seed)
            moved, mirror = renumbered(inst, sigma, tau), inst.mirrored()
            for pq in CELLS:
                found = exists_pq_stable(inst, pq)
                where = (seed, pq)
                assert (exists_pq_stable(moved, pq) is None) == (found is None), where
                assert (exists_pq_stable(mirror, pq) is None) == (found is None), where
                for k in SCALES:
                    eps = math.ldexp(DEFAULT_EPS, k)
                    assert exists_pq_stable(scaled(inst, k), pq, eps=eps) == found, where


def with_beta(inst: Instance, seed: int) -> Instance:
    """``inst`` with a seeded dyadic retention table in [1/2, 1]."""
    rng = SplitMix64(derive_seed(91, seed))
    beta = [[0.5 + rng.randint(0, 8) / 16 for _ in range(inst.n)] for _ in range(inst.n)]
    return Instance(inst.n, inst.theta_m, inst.theta_w, beta)


def model_of(kind: str, inst: Instance) -> BargainingModel:
    return BargainingModel(kind, inst.beta if kind == "ft_taxed" else None)


class TestCoreSearch:
    """The search is exact: its men-optimal point follows a renumbering
    exactly and scales bit for bit.  Mirroring turns it into the
    women-optimal point, so there only the verdict is compared, and only
    for the families whose sets treat both sides alike."""

    KINDS = ("fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed")
    SYMMETRIC = ("fnt", "ft", "ft_nonneg")

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_core(self, kind):
        for seed, inst in corpus((2, 3), 4):
            inst = with_beta(inst, seed)
            sigma, tau = labels(inst.n, seed)
            moved = renumbered(inst, sigma, tau)
            for matching in matchings(inst, seed):
                where = (seed, matching)
                cuts = search_core(model_of(kind, inst), inst, matching)
                got = search_core(
                    model_of(kind, moved), moved, renumbered_matching(matching, sigma, tau)
                )
                if cuts is None:
                    assert got is None, where
                else:
                    assert [got.u[sigma[i]] for i in range(inst.n)] == list(cuts.u), where
                    assert [got.v[tau[j]] for j in range(inst.n)] == list(cuts.v), where
                if kind in self.SYMMETRIC:
                    mirror = inst.mirrored()
                    got = search_core(model_of(kind, mirror), mirror, Matching(matching.inverse))
                    assert (got is None) == (cuts is None), where
                for k in SCALES:
                    big = scaled(inst, k)
                    got = search_core(model_of(kind, big), big, matching)
                    if cuts is None:
                        assert got is None, where
                    else:
                        assert got.u == tuple(math.ldexp(x, k) for x in cuts.u), where
                        assert got.v == tuple(math.ldexp(x, k) for x in cuts.v), where

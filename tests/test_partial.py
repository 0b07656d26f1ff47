import time
import tracemalloc
from itertools import islice, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchkit.cycles as cycles
import matchkit.partial_transfer as partial_transfer
from matchkit import (
    DomainError,
    Instance,
    IntegerRange,
    Matching,
    PQParams,
    SizeLimitError,
    check_pq_monotonicity,
    clip_p,
    combined_rewards,
    counterexample_instance,
    delta_q,
    delta_r,
    derive_seed,
    exists_pq_stable,
    find_fnt_blocking_pairs,
    find_pq_blocking_chain,
    gale_shapley,
    is_cyclically_monotone,
    mixed_instance_stream,
    pq_plane_sweep,
    random_instance,
)
from matchkit.cycles import best_cycle_bruteforce, find_positive_cycle
from matchkit.partial_transfer import _pq_weights, _prefix_weights
from matchkit.rng import SplitMix64, Uniform01

from conftest import (
    corpus_instance,
    count_calls,
    near_indifferent_instance,
    pq_weight_matrix,
    random_matchings,
    seeded_permutation,
)
from oracles import scalar_instance_stream

EPS = 1e-9
GRID5 = [k / 4 for k in range(5)]
CELLS = [(0.0, 1.0), (0.2, 0.6), (1.0, 0.0), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.3, 0.9)]


def scan_exists_pq_stable(inst, pq, eps=EPS):
    """Reference: the n! scan the existence oracle replaced.  Returns the
    first matching, in lexicographic order, that the detector passes,
    and the number of detector calls it took."""
    for calls, perm in enumerate(permutations(range(inst.n)), 1):
        if find_positive_cycle(_prefix_weights(inst, perm, pq.p, pq.q), eps) is None:
            return perm, calls
    return None, factorial(inst.n)


def assignment_of(found):
    return None if found is None else found.assignment


def mixed_magnitude_instance(n, seed):
    """Rewards mixing +-1e8 to 1e9 with gains of a few eps: the detector's
    rounding on a full matching can hide a small cycle that a prefix of
    it shows."""
    values = (0.0, 1e-9, 2e-9, 3e-9, 5e-9, -2e-9, 1.0, -1.0, 1e8, -1e8, 2e8, 1e9, -1e9)
    rng = SplitMix64(seed)

    def table():
        return tuple(
            tuple(values[rng.randint(0, len(values) - 1)] for _ in range(n)) for _ in range(n)
        )

    return Instance(n, table(), table())


def embedded_counterexample(n, p, q, seed):
    """A random instance whose first two couples hold the two-couple
    family with no (p, q)-stable matching."""
    base = random_instance(n, seed)
    block = counterexample_instance(p, q).theta_m

    def embed(table):
        return tuple(
            tuple(block[i][j] if i < 2 and j < 2 else x for j, x in enumerate(row))
            for i, row in enumerate(table)
        )

    return Instance(n, embed(base.theta_m), embed(base.theta_w))


def oracle_corpus():
    """(label, instance, cell) cases for the existence oracle."""
    for n, seeds in ((1, 3), (2, 6), (3, 6), (4, 6), (5, 4), (6, 3), (7, 1)):
        for seed in range(seeds):
            for tag, dist in (("uniform", Uniform01()), ("int:0:2", IntegerRange(0, 2))):
                inst = random_instance(n, derive_seed(60, n, seed), dist)
                for cell in CELLS:
                    yield f"{tag} n={n} seed={seed} {cell}", inst, cell
    for n in range(2, 7):
        for seed in range(3):
            inst = near_indifferent_instance(n, derive_seed(61, n, seed))
            for cell in CELLS:
                yield f"near-indifferent n={n} seed={seed} {cell}", inst, cell
    for seed in range(40):
        n = (2, 3, 4, 5, 6)[seed % 5]
        p = (0.0, 0.1, 0.2, 0.3)[seed % 4]
        q = p + (0.2, 0.5, 0.7)[seed % 3]
        if n == 2:
            inst = counterexample_instance(p, q)
        else:
            inst = embedded_counterexample(n, p, q, derive_seed(62, seed))
        for cell in ((p, q), (0.0, 1.0), (q, p)):
            yield f"counterexample n={n} seed={seed} {cell}", inst, cell
    for seed in range(40):
        n = (4, 5)[seed % 2]
        inst = mixed_magnitude_instance(n, derive_seed(63, seed))
        for cell in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0)):
            yield f"mixed-magnitude n={n} seed={seed} {cell}", inst, cell


# Entries at the float limits, the subnormal edge, signed zero and eps scale.
NEAR_LIMIT = (
    0.0, -0.0, 5e-324, -5e-324, 1e-10, 5e-10, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308, 8.9e307
)
# The benchmark's check cells and one off the diagonal.
WEIGHT_CELLS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.3, 0.9))


def near_limit_instance(n, rng):
    def table():
        return tuple(
            tuple(NEAR_LIMIT[rng.randint(0, len(NEAR_LIMIT) - 1)] for _ in range(n))
            for _ in range(n)
        )

    return Instance(n, table(), table())


def weight_corpus():
    """(instance, matching, cells): the oracle corpus, each case under a
    seeded random matching at its own cell, then uniform tables at
    n = 1-100 and near-limit tables at n = 1-8 at every weight cell."""
    for _, inst, cell in oracle_corpus():
        yield inst, random_matchings(inst.n, 1, derive_seed(64, inst.n))[0], (cell,)
    rng = SplitMix64(73)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20, 33, 50, 100):
        inst = random_instance(n, derive_seed(74, n))
        yield inst, Matching(seeded_permutation(n, rng)), WEIGHT_CELLS
    for k in range(120):
        n = 1 + k % 8
        yield near_limit_instance(n, rng), Matching(seeded_permutation(n, rng)), WEIGHT_CELLS


def reprs(weights):
    return [list(map(repr, row)) for row in weights]


class TestClip:
    def test_positive_passes_through(self):
        assert clip_p(5.0, 0.3) == 5.0

    def test_negative_discounted(self):
        assert clip_p(-2.0, 0.5) == -1.0

    def test_full_sharing_is_identity(self):
        assert clip_p(-2.0, 1.0) == -2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            clip_p(1.0, 1.5)

    @given(st.floats(-100, 100), st.floats(0, 1))
    def test_no_sharing_is_positive_part(self, x, p):
        assert clip_p(x, 0.0) == max(x, 0.0)
        if x >= 0:
            assert clip_p(x, p) == x


class TestDeltaQ:
    def test_boxed_no_sharing(self, boxed, identity2):
        # man 0 courting woman 1: loses 1 himself, she gains 4
        assert delta_q(boxed, identity2, 0, 1, 0.0) == -1.0

    def test_boxed_full_sharing(self, boxed, identity2):
        assert delta_q(boxed, identity2, 0, 1, 1.0) == 3.0

    def test_own_partner_exactly_neutral(self):
        for seed in range(10):
            inst = random_instance(4, derive_seed(31, seed))
            matching = Matching((2, 0, 3, 1))
            for i in range(4):
                for q in (0.0, 0.25, 0.7, 1.0):
                    assert delta_q(inst, matching, i, matching.assignment[i], q) == 0.0

    def test_q_domain(self, boxed, identity2):
        with pytest.raises(DomainError):
            delta_q(boxed, identity2, 0, 1, 1.2)

    def test_matches_averaged_minimum_identity(self, boxed, identity2):
        # delta_q == (q+1) * delta_r(a, b, (1-q)/(1+q)) on its two margins
        for q in (0.0, 0.3, 0.8, 1.0):
            a = boxed.theta_m[0][1] - boxed.theta_m[0][0]
            b = boxed.theta_w[0][1] - boxed.theta_w[1][1]
            expected = (q + 1.0) * delta_r(a, b, (1.0 - q) / (1.0 + q))
            assert abs(delta_q(boxed, identity2, 0, 1, q) - expected) < 1e-12


class TestDeltaR:
    def test_equal_arguments(self):
        for r in (0.0, 0.4, 1.0):
            assert delta_r(3.5, 3.5, r) == 3.5

    def test_full_r_is_min(self):
        assert delta_r(2.0, -1.0, 1.0) == -1.0
        assert delta_r(-4.0, 7.0, 1.0) == -4.0

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_r(0.0, 0.0, -0.1)

    @settings(max_examples=200)
    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0, 1),
    )
    def test_reduction_identity(self, a, b, q):
        lhs = min(q * a + b, q * b + a)
        rhs = (q + 1.0) * delta_r(a, b, (1.0 - q) / (1.0 + q))
        assert abs(lhs - rhs) <= 1e-12

    def test_monotone_nonincreasing_in_r(self):
        rng = SplitMix64(32)
        for _ in range(100):
            a = rng.uniform01() * 10 - 5
            b = rng.uniform01() * 10 - 5
            values = [delta_r(a, b, r) for r in GRID5]
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestBlockingChain:
    def test_boxed_identity_full_sharing_witness(self, boxed, identity2):
        witness = find_pq_blocking_chain(boxed, identity2, PQParams(1.0, 1.0))
        assert witness is not True
        assert not witness  # falsy: truth-testing the verdict reads "is it stable"
        assert witness.cycle == (0, 1)
        assert abs(witness.clipped_gain - 1.0) < EPS

    def test_boxed_identity_no_sharing_stable(self, boxed, identity2):
        assert find_pq_blocking_chain(boxed, identity2, PQParams(0.0, 0.0)) is True

    def test_single_couple_stable_everywhere(self):
        inst = Instance(1, ((3,),), ((-2,),))
        matching = Matching((0,))
        for p in GRID5:
            for q in GRID5:
                assert find_pq_blocking_chain(inst, matching, PQParams(p, q)) is True

    def test_scaled_margin_monotonicity_in_q(self):
        # (1+q)^{-1} delta_q is nondecreasing in q for unmatched pairs
        for seed in range(15):
            inst = random_instance(4, derive_seed(33, seed))
            matching = random_matchings(4, 1, derive_seed(34, seed))[0]
            for i in range(4):
                for j in range(4):
                    if j == matching.assignment[i]:
                        continue
                    scaled = [
                        delta_q(inst, matching, i, j, q) / (1.0 + q)
                        for q in GRID5
                    ]
                    assert all(y >= x - EPS for x, y in zip(scaled, scaled[1:]))

    def test_weights_are_the_clipped_margins_bit_for_bit(self):
        """The whole-matching builder, the oracle's prefix loop and the
        one-pair definition clip_p(delta_q(...)) give the same floats,
        signed zeros and the nan of 0 * inf at q = 0 included."""
        nans = 0
        for inst, matching, cells in weight_corpus():
            tables = np.array(inst.theta_m), np.array(inst.theta_w)
            a = matching.assignment
            for p, q in cells:
                whole = reprs(_pq_weights(*tables, a, p, q).tolist())
                assert whole == reprs(_prefix_weights(inst, a, p, q)), (inst, a, p, q)
                assert whole == reprs(pq_weight_matrix(inst, matching, p, q)), (inst, a, p, q)
                for k in range(2, min(inst.n, 8) + 1):
                    prefix = reprs(_prefix_weights(inst, a[:k], p, q))
                    assert prefix == [row[:k] for row in whole[:k]], (inst, a, p, q, k)
                nans += sum(row.count("nan") for row in whole)
        assert nans > 100

    @pytest.mark.parametrize("seed", range(15))
    def test_detector_vs_enumeration_on_grid(self, seed):
        n = (seed % 4) + 2
        inst = random_instance(n, derive_seed(35, seed))
        matching = random_matchings(n, 1, derive_seed(36, seed))[0]
        for p in (0.0, 0.5, 1.0):
            for q in (0.0, 0.5, 1.0):
                verdict = find_pq_blocking_chain(inst, matching, PQParams(p, q))
                brute = best_cycle_bruteforce(pq_weight_matrix(inst, matching, p, q), EPS)
                assert (verdict is True) == (brute is None)


class TestReductions:
    def test_one_one_is_ft_with_a_zero_womens_table(self):
        """is_cyclically_monotone is find_pq_blocking_chain at (1, 1) with
        a zero women's table: same verdict, cycle and gain."""
        rng = SplitMix64(75)
        zeros = {n: ((0.0,) * n,) * n for n in range(1, 41)}
        witnesses = 0
        for k in range(300):
            if k % 2:
                n = 1 + k % 8
                theta = near_limit_instance(n, rng).theta_m
            else:
                n = 1 + k % 40
                theta = random_instance(n, derive_seed(76, k)).theta_m
            matching = Matching(seeded_permutation(n, rng))
            ft = is_cyclically_monotone(theta, matching)
            pq = find_pq_blocking_chain(Instance(n, theta, zeros[n]), matching, PQParams(1.0, 1.0))
            ft_view = ft if ft is True else (ft.cycle, repr(ft.gain))
            pq_view = pq if pq is True else (pq.cycle, repr(pq.clipped_gain))
            assert pq_view == ft_view, (theta, matching)
            witnesses += ft is not True
        assert witnesses > 100

    def test_zero_zero_chain_without_a_blocking_pair(self):
        # Off integer tables (0, 0) is stricter: each hop gains 0.4 eps on
        # both sides, no pair blocks, and the 3-cycle gains 1.2 eps.
        table = [[-1.0] * 3 for _ in range(3)]
        for a in range(3):
            table[a][a], table[a][(a + 1) % 3] = 0.0, 4e-10
        inst, identity = Instance(3, table, table), Matching((0, 1, 2))
        assert find_fnt_blocking_pairs(inst, identity) == []
        found = find_pq_blocking_chain(inst, identity, PQParams(0.0, 0.0))
        assert (found.cycle, found.clipped_gain) == ((0, 1, 2), 1.2e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_zero_is_blocking_pairs_on_integer_tables(self, seed):
        # On integer tables every positive margin is at least 1, so a chain
        # gains more than eps exactly when one of its hops is a blocking pair.
        for k in range(100):
            n = 1 + k % 6
            inst = random_instance(n, derive_seed(77, seed, k), IntegerRange(-3, 3))
            matching = random_matchings(n, 1, derive_seed(78, seed, k))[0]
            chain_free = find_pq_blocking_chain(inst, matching, PQParams(0.0, 0.0)) is True
            assert chain_free == (find_fnt_blocking_pairs(inst, matching) == []), (inst, matching)

    @pytest.mark.parametrize("seed", range(25))
    def test_zero_zero_matches_blocking_pairs(self, seed):
        inst = corpus_instance(seed, 5, tag=37)
        n = inst.n
        for matching in random_matchings(n, 3, derive_seed(38, seed)):
            chain_free = find_pq_blocking_chain(inst, matching, PQParams(0.0, 0.0)) is True
            pair_free = find_fnt_blocking_pairs(inst, matching) == []
            assert chain_free == pair_free

    @pytest.mark.parametrize("seed", range(25))
    def test_one_one_matches_cyclic_monotonicity(self, seed):
        inst = corpus_instance(seed, 5, tag=39)
        theta = combined_rewards(inst)
        for matching in random_matchings(inst.n, 3, derive_seed(40, seed)):
            chain_free = find_pq_blocking_chain(inst, matching, PQParams(1.0, 1.0)) is True
            monotone = is_cyclically_monotone(theta, matching) is True
            assert chain_free == monotone


class TestExistenceOracle:
    def test_boxed_no_sharing_keeps_identity(self, boxed):
        found = exists_pq_stable(boxed, PQParams(0.0, 0.0))
        assert found.assignment == (0, 1)

    def test_boxed_full_sharing_swaps(self, boxed):
        found = exists_pq_stable(boxed, PQParams(1.0, 1.0))
        assert found.assignment == (1, 0)

    def test_counterexample_has_none(self, monkeypatch):
        # Both matchings hold a blocking 2-cycle, so no leaf reaches the detector.
        calls = counting_detector(monkeypatch)
        inst = counterexample_instance(0.2, 0.8)
        assert exists_pq_stable(inst, PQParams(0.2, 0.8)) is None
        assert calls == []

    def test_returned_matching_is_stable(self):
        for seed in range(10):
            inst = random_instance(4, derive_seed(41, seed))
            pq = PQParams(0.5, 0.5)
            found = exists_pq_stable(inst, pq)
            if found is not None:
                assert find_pq_blocking_chain(inst, found, pq) is True

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            exists_pq_stable(random_instance(9, 0), PQParams(0.5, 0.5))

    def test_oracle_sizes_reach_the_detector_enumeration(self):
        # The 2-cycle strike relies on an unsettled detector reporting a cycle,
        # which its enumeration stage guarantees only up to its limit.
        assert partial_transfer.ORACLE_LIMIT <= cycles._BRUTE_FORCE_LIMIT


def counting_detector(monkeypatch):
    """Count the oracle's find_positive_cycle calls."""
    return count_calls(monkeypatch, partial_transfer, "find_positive_cycle")


class TestExistenceOracleAgainstScan:
    def test_seeded_corpus(self):
        found_some = found_none = 0
        for label, inst, (p, q) in oracle_corpus():
            expected, _ = scan_exists_pq_stable(inst, PQParams(p, q))
            assert assignment_of(exists_pq_stable(inst, PQParams(p, q))) == expected, label
            found_some += expected is not None
            found_none += expected is None
        assert found_some > 100 and found_none > 100

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(
                        st.one_of(st.integers(0, 2), st.floats(-1, 1, allow_subnormal=False)),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=2 * n,
                    max_size=2 * n,
                ),
                st.sampled_from(CELLS) | st.tuples(st.floats(0, 1), st.floats(0, 1)),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_to_scan(self, case):
        rows, (p, q) = case
        n = len(rows) // 2
        inst = Instance(n, rows[:n], rows[n:])
        expected, _ = scan_exists_pq_stable(inst, PQParams(p, q))
        assert assignment_of(exists_pq_stable(inst, PQParams(p, q))) == expected

    def test_cut_never_hides_a_matching_the_detector_passes(self):
        # A prefix shows a 2e-9 cycle, but on the full matchings the
        # detector's distances near 1e9 round it away.  A cut on the
        # bare gain skips the scan's answer for a later matching.
        theta_m = (
            (-2e-9, 1e9, -1e9, 5e-9, 5e-9),
            (2e-9, -1.0, 1e9, 2e-9, 0.0),
            (1e-9, 3e-9, -1e9, 1.0, 3e-9),
            (3e-9, 0.0, -1e8, 1e9, 2e-9),
            (0.0, 0.0, -1e9, -2e-9, 1e-9),
        )
        theta_w = (
            (0.0, 5e-9, 1e-9, -1e9, 5e-9),
            (1e9, -1e9, -2e-9, 0.0, 1e9),
            (1.0, 0.0, 3e-9, -1.0, 1.0),
            (1e9, 0.0, 5e-9, -2e-9, 0.0),
            (1e8, 1e-9, 1e9, 2e8, -1e9),
        )
        inst = Instance(5, theta_m, theta_w)
        expected, _ = scan_exists_pq_stable(inst, PQParams(1.0, 0.0))
        assert expected == (0, 3, 1, 4, 2)
        assert exists_pq_stable(inst, PQParams(1.0, 0.0)).assignment == expected

    def test_prunes_far_below_n_factorial(self, monkeypatch):
        # At (0, 1) 2-cycles alone rule out every matching; at (1, 0)
        # longer cycles block, and the detector decides.
        calls = counting_detector(monkeypatch)
        inst = random_instance(8, 1)
        assert exists_pq_stable(inst, PQParams(0.0, 1.0)) is None
        assert calls == []
        assert exists_pq_stable(inst, PQParams(1.0, 0.0)) is not None
        assert 1 <= len(calls) <= factorial(8) // 40

    def test_detector_sees_only_leaves_never_more_than_the_scan(self, monkeypatch):
        # No prefix reaches the detector, so it sees only whole matchings,
        # a subset of the scan's in the same order.
        calls = counting_detector(monkeypatch)
        fewer = 0
        for label, inst, (p, q) in oracle_corpus():
            calls.clear()
            exists_pq_stable(inst, PQParams(p, q))
            scanned = scan_exists_pq_stable(inst, PQParams(p, q))[1]
            assert set(calls) <= {inst.n}, label
            assert len(calls) <= scanned, label
            fewer += len(calls) < scanned
        assert fewer > 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equal_to_scan_on_the_whole_grid(self, n):
        """Every cell of an 11 x 11 grid, on uniform, tied and mixed-magnitude
        tables.  At n = 2 and 3 the mixed-magnitude seeds are ones where a
        2-cycle cut without the detector's rounding slack changes the answer."""
        mixed_seeds = {2: (83,), 3: (39, 105)}.get(n, (0,))
        instances = [
            random_instance(n, derive_seed(64, n), Uniform01()),
            random_instance(n, derive_seed(65, n), IntegerRange(0, 2)),
        ] + [mixed_magnitude_instance(n, derive_seed(66, n, seed)) for seed in mixed_seeds]
        for inst in instances:
            for ip in range(11):
                for iq in range(11):
                    pq = PQParams(ip / 10, iq / 10)
                    expected, _ = scan_exists_pq_stable(inst, pq)
                    assert assignment_of(exists_pq_stable(inst, pq)) == expected, (inst, pq)


class TestCounterexample:
    def test_construction_values(self):
        inst = counterexample_instance(0.2, 0.8)
        assert inst.theta_m == ((0.0, 1.0), (-2.0, 0.0))
        assert inst.theta_w == inst.theta_m

    def test_extreme_pair(self):
        inst = counterexample_instance(0.0, 1.0)
        assert exists_pq_stable(inst, PQParams(0.0, 1.0)) is None

    def test_rejects_equal_levels(self):
        with pytest.raises(DomainError):
            counterexample_instance(0.5, 0.5)

    def test_rejects_reversed_levels(self):
        with pytest.raises(DomainError):
            counterexample_instance(0.8, 0.2)

    def test_both_matchings_blocked(self):
        inst = counterexample_instance(0.3, 0.9)
        pq = PQParams(0.3, 0.9)
        for assignment in ((0, 1), (1, 0)):
            assert find_pq_blocking_chain(inst, Matching(assignment), pq) is not True


def four_loop_monotone(stable):
    """Reference: every cell at or above a stable cell's p and at or below
    its q is stable, checked against every such cell."""
    g = len(stable)
    for ip in range(g):
        for iq in range(g):
            if not stable[ip][iq]:
                continue
            for ip2 in range(ip, g):
                for iq2 in range(iq + 1):
                    if not stable[ip2][iq2]:
                        return False
    return True


def seeded_grid(steps, rng, flips):
    """A stable-cell grid: an upper-left set (each p row stable below a
    threshold in q that never falls as p grows) with up to ``flips``
    random cells flipped, so both monotone and non-monotone grids occur."""
    thresholds = sorted(rng.randint(0, steps) for _ in range(steps))
    grid = [[iq < t for iq in range(steps)] for t in thresholds]
    for _ in range(rng.randint(0, flips)):
        ip, iq = rng.randint(0, steps - 1), rng.randint(0, steps - 1)
        grid[ip][iq] = not grid[ip][iq]
    return grid


class TestMonotonicityTheorem:
    def test_neighbour_test_matches_four_loops(self, monkeypatch, boxed, identity2):
        rng = SplitMix64(46)
        grid = []

        def cell_cycle(pq, eps):
            denom = len(grid) - 1
            return None if grid[round(pq[0] * denom)][round(pq[1] * denom)] else ((0, 1), 1.0)

        # each cell's weights become its (p, q), and the detector reads the grid
        monkeypatch.setattr(partial_transfer, "_pq_weights", lambda tm, tw, a, p, q: (p, q))
        monkeypatch.setattr(partial_transfer, "find_positive_cycle", cell_cycle)
        verdicts = []
        for trial in range(400):
            # every third grid has as many flips as cells: close to uniform
            steps = 2 + trial % 6
            grid[:] = seeded_grid(steps, rng, steps * steps if trial % 3 == 0 else 2)
            verdicts.append(check_pq_monotonicity(boxed, identity2, len(grid)))
            assert verdicts[-1] == four_loop_monotone(grid), grid
        assert 100 < sum(verdicts) < 300

    def test_boxed_identity_full_grid(self, boxed, identity2):
        assert check_pq_monotonicity(boxed, identity2, 11)

    def test_stable_at_origin_corner_everywhere(self):
        # stable at (p, q) = (0, 1) implies stable at every grid point
        for seed in range(10):
            inst = random_instance(3, derive_seed(42, seed))
            for matching in random_matchings(3, 2, derive_seed(43, seed)):
                if find_pq_blocking_chain(inst, matching, PQParams(0.0, 1.0)) is True:
                    for p in GRID5:
                        for q in GRID5:
                            assert (
                                find_pq_blocking_chain(inst, matching, PQParams(p, q))
                                is True
                            )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_hold(self, seed):
        inst = corpus_instance(seed, 4, tag=44)
        for matching in random_matchings(inst.n, 2, derive_seed(45, seed)):
            assert check_pq_monotonicity(inst, matching, 6)

    def test_answers_above_the_sweep_limit(self):
        # no size guard: one detector call per cell, polynomial in n
        for n in (7, 50):
            inst = random_instance(n, 1)
            assert check_pq_monotonicity(inst, gale_shapley(inst), 5) is True


class TestPlaneSweep:
    def test_grid_shape_and_corners(self):
        report = pq_plane_sweep(mixed_instance_stream(2, 7), 3, 4)
        assert len(report.grid) == 9
        cells = {(c.p, c.q): c for c in report.grid}
        assert cells[(0.0, 0.0)].existence_count == 4
        assert cells[(1.0, 1.0)].existence_count == 4

    def test_adversarial_cells_fail(self):
        report = pq_plane_sweep(mixed_instance_stream(2, 7), 3, 4)
        for cell in report.grid:
            if cell.q > cell.p:
                assert cell.existence_count < cell.trials
            assert 0 <= cell.existence_count <= cell.trials

    def test_deterministic_csv(self):
        a = pq_plane_sweep(mixed_instance_stream(3, 11), 3, 2)
        b = pq_plane_sweep(mixed_instance_stream(3, 11), 3, 2)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_format(self):
        report = pq_plane_sweep(mixed_instance_stream(2, 1), 2, 1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "p,q,trials,exists"
        assert len(lines) == 5
        assert lines[1].startswith("0.0,0.0,1,")
        # p-major ordering
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0.0", "0.0"],
            ["0.0", "1.0"],
            ["1.0", "0.0"],
            ["1.0", "1.0"],
        ]

    def test_size_limit_propagates(self):
        def oversized(p, q, trials):
            return (random_instance(9, 0) for _ in range(trials))

        with pytest.raises(SizeLimitError):
            pq_plane_sweep(oversized, 2, 1)

    @pytest.mark.parametrize("given", [1, 3])
    def test_refuses_a_cell_of_the_wrong_size(self, given):
        def stream(p, q, trials):
            return iter([random_instance(2, 0)] * given)

        with pytest.raises(DomainError, match=f"stream gave {given} instances for 2 trials"):
            pq_plane_sweep(stream, 2, 2)

    @pytest.mark.parametrize("n", [7, 8])
    def test_counts_the_oracle_up_to_its_limit(self, n):
        # the sweep has no guard of its own: each cell counts the oracle's answers
        report = pq_plane_sweep(mixed_instance_stream(n, 5), 3, 2)
        stream = mixed_instance_stream(n, 5)
        expected = [
            sum(exists_pq_stable(inst, PQParams(p, q)) is not None for inst in stream(p, q, 2))
            for p in (0.0, 0.5, 1.0)
            for q in (0.0, 0.5, 1.0)
        ]
        assert [cell.existence_count for cell in report.grid] == expected

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            pq_plane_sweep(mixed_instance_stream(2, 0), 1, 1)

    @pytest.mark.parametrize("seed", [13, -1, 2**64 - 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("trials", [1, 21])
    def test_stream_equals_the_scalar_stream(self, n, seed, trials):
        # every trial of an 11 x 11 grid; an odd trial count ends each cell
        # on a random trial, after ten jittered ones in the q > p cells at 21
        stream, scalar = mixed_instance_stream(n, seed), scalar_instance_stream(n, seed)
        for ip in range(11):
            for iq in range(11):
                p, q = ip / 10, iq / 10
                drawn = list(map(repr, stream(p, q, trials)))
                assert drawn == list(map(repr, scalar(p, q, trials)))

    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_blocks_join_in_trial_order(self, offset):
        # cells of one or two blocks of draws, at and around their boundaries
        blocks, extra = offset
        trials = blocks * partial_transfer._TRIAL_BLOCK + extra
        stream, scalar = mixed_instance_stream(2, 5), scalar_instance_stream(2, 5)
        for p, q in ((0.1, 0.7), (0.7, 0.1)):
            drawn = list(map(repr, stream(p, q, trials)))
            assert drawn == list(map(repr, scalar(p, q, trials)))

    def test_cells_are_drawn_lazily(self):
        stream = mixed_instance_stream(3, 1)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = list(islice(stream(0.0, 1.0, 10**9), 3))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(map(repr, first)) == list(map(repr, scalar_instance_stream(3, 1)(0.0, 1.0, 3)))
        assert elapsed < 1.0 and peak < 2**20

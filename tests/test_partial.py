from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_cyclically_monotone,
    mixed_instance_stream,
    pq_plane_sweep,
    random_instance,
)
from matchkit.cycles import best_cycle_bruteforce, find_positive_cycle
from matchkit.partial_transfer import _pq_weights
from matchkit.rng import SplitMix64, Uniform01

from conftest import corpus_instance, near_indifferent_instance, random_matchings

EPS = 1e-9
GRID5 = [k / 4 for k in range(5)]
CELLS = [(0.0, 1.0), (0.2, 0.6), (1.0, 0.0), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.3, 0.9)]


def scan_exists_pq_stable(inst, pq, eps=EPS):
    """Reference: the n! scan the existence oracle replaced.  Returns the
    first matching, in lexicographic order, that the detector passes,
    and the number of detector calls it took."""
    for calls, perm in enumerate(permutations(range(inst.n)), 1):
        if find_positive_cycle(_pq_weights(inst, perm, pq.p, pq.q), eps) is None:
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
        for label, inst, (p, q) in oracle_corpus():
            matching = random_matchings(inst.n, 1, derive_seed(64, inst.n))[0]
            weights = _pq_weights(inst, matching.assignment, p, q)
            for a in range(inst.n):
                for b in range(inst.n):
                    expected = (
                        clip_p(delta_q(inst, matching, a, matching.assignment[b], q), p)
                        if a != b
                        else 0.0
                    )
                    assert repr(weights[a][b]) == repr(expected), label

    @pytest.mark.parametrize("seed", range(15))
    def test_detector_vs_enumeration_on_grid(self, seed):
        n = (seed % 4) + 2
        inst = random_instance(n, derive_seed(35, seed))
        matching = random_matchings(n, 1, derive_seed(36, seed))[0]
        for p in (0.0, 0.5, 1.0):
            for q in (0.0, 0.5, 1.0):
                verdict = find_pq_blocking_chain(inst, matching, PQParams(p, q))
                weights = [
                    [
                        clip_p(delta_q(inst, matching, a, matching.assignment[b], q), p)
                        if a != b
                        else 0.0
                        for b in range(n)
                    ]
                    for a in range(n)
                ]
                brute = best_cycle_bruteforce(weights, EPS)
                assert (verdict is True) == (brute is None)


class TestReductions:
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

    def test_counterexample_has_none(self):
        inst = counterexample_instance(0.2, 0.8)
        assert exists_pq_stable(inst, PQParams(0.2, 0.8)) is None

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


def counting_detector(monkeypatch):
    """Count the oracle's find_positive_cycle calls."""
    calls = []

    def counted(weights, eps):
        calls.append(len(weights))
        return find_positive_cycle(weights, eps)

    monkeypatch.setattr(partial_transfer, "find_positive_cycle", counted)
    return calls


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
        calls = counting_detector(monkeypatch)
        assert exists_pq_stable(random_instance(8, 1), PQParams(0.0, 1.0)) is None
        assert 0 < len(calls) < factorial(8) // 40

    def test_small_sizes_call_the_detector_as_often_as_the_scan(self, monkeypatch):
        calls = counting_detector(monkeypatch)
        for label, inst, (p, q) in oracle_corpus():
            if inst.n > 3:
                continue
            calls.clear()
            exists_pq_stable(inst, PQParams(p, q))
            assert len(calls) == scan_exists_pq_stable(inst, PQParams(p, q))[1], label


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


class TestMonotonicityTheorem:
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

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            check_pq_monotonicity(random_instance(7, 0), Matching(tuple(range(7))), 5)


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
        def oversized(p, q, trial):
            return random_instance(7, 0)

        with pytest.raises(SizeLimitError):
            pq_plane_sweep(oversized, 2, 1)

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            pq_plane_sweep(mixed_instance_stream(2, 0), 1, 1)

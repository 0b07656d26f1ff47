from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import (
    Instance,
    IntegerRange,
    Matching,
    SizeLimitError,
    Uniform01,
    derive_seed,
    enumerate_fnt_stable,
    find_fnt_blocking_pairs,
    gale_shapley,
    gale_shapley_detailed,
    preference_orders,
    random_instance,
    verify_men_optimality,
)

from conftest import corpus_instance, near_indifferent_instance, random_matchings

EPS = 1e-9


def reference_blocking_pairs(inst, assignment, eps=EPS):
    """Reference: the blocking-pair loop the shared predicate replaced."""
    n = inst.n
    theta_m, theta_w = inst.theta_m, inst.theta_w
    inverse = [0] * n
    for man, woman in enumerate(assignment):
        inverse[woman] = man
    blocking = []
    for i in range(n):
        wi = assignment[i]
        own = theta_m[i][wi]
        row = theta_m[i]
        for j in range(n):
            if j == wi:
                continue
            if row[j] - own <= eps:
                continue
            if theta_w[i][j] - theta_w[inverse[j]][j] > eps:
                blocking.append((i, j))
    return blocking


def scan_fnt_stable(inst, eps=EPS):
    """Reference: the n! scan the stable-set enumeration replaced."""
    return [
        perm
        for perm in permutations(range(inst.n))
        if not reference_blocking_pairs(inst, perm, eps)
    ]


def enumeration_corpus():
    """(label, instance) cases: n = 1-7, tie-free and tied, one tie-free
    n = 8, and near-indifferent tables."""
    for n in range(1, 8):
        for seed in range(6):
            for tag, dist in (("uniform", Uniform01()), ("int:0:2", IntegerRange(0, 2))):
                yield f"{tag} n={n} seed={seed}", random_instance(n, derive_seed(70, n, seed), dist)
    yield "uniform n=8 seed=0", random_instance(8, derive_seed(70, 8, 0))
    for n in range(2, 8):
        for seed in range(3):
            yield f"near-indifferent n={n} seed={seed}", near_indifferent_instance(
                n, derive_seed(71, n, seed)
            )


class TestBlockingPairs:
    def test_boxed_identity_is_stable(self, boxed, identity2):
        assert find_fnt_blocking_pairs(boxed, identity2) == []

    def test_boxed_swap_blocked_by_first_couple(self, boxed, swap2):
        # man 0 and woman 0 both gain exactly 1 by reuniting
        assert find_fnt_blocking_pairs(boxed, swap2) == [(0, 0)]

    @pytest.mark.parametrize("eps", [EPS, 0.0, -1.0])
    def test_equal_to_reference_loop(self, eps):
        for label, inst in enumeration_corpus():
            for matching in random_matchings(inst.n, 3, derive_seed(72, inst.n)):
                expected = reference_blocking_pairs(inst, matching.assignment, eps)
                assert find_fnt_blocking_pairs(inst, matching, eps=eps) == expected, label

    def test_single_couple_never_blocks(self):
        inst = Instance(1, ((4,),), ((7,),))
        assert find_fnt_blocking_pairs(inst, Matching((0,))) == []

    def test_sub_tolerance_gains_do_not_block(self):
        inst = Instance(2, ((1, 1 + 1e-12), (0, 1)), ((1, 0), (1e-12, 1)))
        assert find_fnt_blocking_pairs(inst, Matching((0, 1))) == []


class TestGaleShapley:
    def test_boxed_single_round(self, boxed):
        result = gale_shapley_detailed(boxed)
        assert result.matching.assignment == (0, 1)
        assert result.proposals == 2

    def test_mutual_favorites_bind_immediately(self):
        theta_m = ((9, 1, 2), (0, 8, 1), (3, 2, 9))
        theta_w = ((7, 0, 1), (2, 9, 0), (1, 3, 8))
        inst = Instance(3, theta_m, theta_w)
        assert gale_shapley(inst).assignment == (0, 1, 2)

    def test_women_proposing_mirrors(self, boxed):
        women_run = gale_shapley(boxed, "women")
        assert find_fnt_blocking_pairs(boxed, women_run) == []
        mirrored = gale_shapley(boxed.mirrored(), "men")
        # woman i's man under the mirrored run is her partner here
        assert all(mirrored.assignment[j] == women_run.inverse[j] for j in range(2))

    def test_mirror_identity_both_ways(self):
        for seed in range(20):
            inst = random_instance(5, derive_seed(11, seed))
            men_run = gale_shapley(inst, "men")
            back = gale_shapley(inst.mirrored().mirrored(), "men")
            assert men_run == back

    @pytest.mark.parametrize("seed", range(50))
    def test_output_stable_and_proposal_bound(self, seed):
        n = (seed % 20) + 1
        inst = random_instance(n, derive_seed(3, seed))
        result = gale_shapley_detailed(inst)
        assert find_fnt_blocking_pairs(inst, result.matching) == []
        assert result.proposals <= n * n

    def test_engagement_tie_keeps_lower_index_man(self):
        # both men rank woman 0 first; she is indifferent between them
        inst = Instance(2, ((5, 1), (5, 1)), ((3, 2), (3, 1)))
        assert gale_shapley(inst).assignment == (0, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 7))
    def test_stability_property(self, seed, n):
        inst = random_instance(n, seed)
        assert find_fnt_blocking_pairs(inst, gale_shapley(inst)) == []


class TestEnumeration:
    def test_boxed_unique_stable_matching(self, boxed):
        assert [m.assignment for m in enumerate_fnt_stable(boxed)] == [(0, 1)]

    def test_single_couple(self):
        inst = Instance(1, ((0,),), ((0,),))
        assert [m.assignment for m in enumerate_fnt_stable(inst)] == [(0,)]

    def test_all_equal_rewards_everything_stable(self):
        inst = Instance(3, ((1,) * 3,) * 3, ((2,) * 3,) * 3)
        stable = enumerate_fnt_stable(inst)
        assert len(stable) == 6  # 3! matchings, no strict gain anywhere

    def test_sorted_lexicographically(self):
        inst = Instance(3, ((1,) * 3,) * 3, ((2,) * 3,) * 3)
        assignments = [m.assignment for m in enumerate_fnt_stable(inst)]
        assert assignments == sorted(assignments)

    def test_size_limit(self):
        inst = random_instance(9, 0)
        with pytest.raises(SizeLimitError):
            enumerate_fnt_stable(inst)

    @pytest.mark.parametrize("eps", [EPS, 0.0])
    def test_equal_to_scan(self, eps):
        sizes = set()
        for label, inst in enumeration_corpus():
            stable = [m.assignment for m in enumerate_fnt_stable(inst, eps=eps)]
            assert stable == scan_fnt_stable(inst, eps), label
            sizes.add(min(len(stable), 2))
        assert sizes == {1, 2}  # deferred acceptance keeps the set non-empty

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(0, 2), st.floats(-1, 1, allow_subnormal=False)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=2 * n,
                max_size=2 * n,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_to_scan_property(self, rows):
        n = len(rows) // 2
        inst = Instance(n, rows[:n], rows[n:])
        assert [m.assignment for m in enumerate_fnt_stable(inst)] == scan_fnt_stable(inst)

    def test_gs_always_among_stable(self):
        for seed in range(30):
            inst = random_instance((seed % 5) + 1, derive_seed(4, seed))
            stable = {m.assignment for m in enumerate_fnt_stable(inst)}
            assert gale_shapley(inst).assignment in stable


class TestMenOptimality:
    def test_boxed_holds(self, boxed):
        report = verify_men_optimality(boxed)
        assert report.applicable and report.holds
        assert report.stable_count == 1

    def test_single_couple(self):
        report = verify_men_optimality(Instance(1, ((1,),), ((1,),)))
        assert report.holds

    def test_ties_not_applicable(self):
        inst = Instance(2, ((1, 1), (0, 1)), ((1, 5), (0, 1)))
        report = verify_men_optimality(inst)
        assert not report.applicable
        assert report.holds is None

    @pytest.mark.parametrize("seed", range(40))
    def test_random_strict_instances(self, seed):
        inst = random_instance((seed % 6) + 1, derive_seed(5, seed))
        report = verify_men_optimality(inst)
        assert report.applicable  # continuous draws are tie-free
        assert report.holds

    def test_thousand_strict_instances_against_enumeration(self):
        for idx in range(1000):
            inst = random_instance((idx % 6) + 1, derive_seed(8, idx))
            report = verify_men_optimality(inst)
            assert report.applicable and report.holds, idx

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            verify_men_optimality(random_instance(9, 0))


class TestOrderOnlyDependence:
    def test_monotone_transform_preserves_blocking_sets(self):
        # stability depends only on orders: rescale theta_m rows and
        # theta_w columns by positive affine maps, keep verdicts
        for seed in range(20):
            inst = random_instance(4, derive_seed(6, seed), IntegerRange(0, 9))
            n = inst.n
            tm = tuple(
                tuple((i % 3 + 1) * x + i for x in row) for i, row in enumerate(inst.theta_m)
            )
            tw = tuple(
                tuple((j % 2 + 1) * inst.theta_w[i][j] + 2 * j for j in range(n))
                for i in range(n)
            )
            scaled = Instance(n, tm, tw)
            for matching in enumerate_fnt_stable(inst):
                assert find_fnt_blocking_pairs(scaled, matching) == []
            assert {m.assignment for m in enumerate_fnt_stable(inst)} == {
                m.assignment for m in enumerate_fnt_stable(scaled)
            }

    def test_preference_orders_match_transformed(self):
        inst = corpus_instance(7, 5)
        cubed = Instance(
            inst.n,
            tuple(tuple(x**3 for x in row) for row in inst.theta_m),
            tuple(tuple(x**3 for x in row) for row in inst.theta_w),
        )
        assert preference_orders(inst).men == preference_orders(cubed).men

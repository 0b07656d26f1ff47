from fractions import Fraction
from itertools import permutations

import pytest

from matchkit import (
    BargainingModel,
    CutVector,
    DomainError,
    Instance,
    IntegerRange,
    Matching,
    PreconditionError,
    SizeLimitError,
    SplitMix64,
    bruteforce_max_matching,
    canonical_fnt_cuts,
    check_assumption,
    combined_rewards,
    derive_seed,
    dual_cuts,
    find_fnt_blocking_pairs,
    in_feasible_set,
    in_interior,
    random_instance,
    search_core,
    verify_core_point,
)
from matchkit.exact_lp import feasible_point, satisfies

EPS = 1e-9

ALL_KINDS = ("fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed")


def make_model(kind: str, n: int) -> BargainingModel:
    if kind == "ft_taxed":
        # dyadic retention factors are exactly representable
        beta = tuple(tuple(0.25 if (i + j) % 2 else 0.5 for j in range(n)) for i in range(n))
        return BargainingModel(kind, beta)
    return BargainingModel(kind)


class TestExactLP:
    def test_trivial_feasible(self):
        assert feasible_point(2, []) == (0, 0)

    def test_box(self):
        constraints = [
            ((Fraction(1), Fraction(0)), Fraction(5)),
            ((Fraction(-1), Fraction(0)), Fraction(-3)),  # x >= 3
            ((Fraction(0), Fraction(1)), Fraction(-1)),  # y <= -1
        ]
        point = feasible_point(2, constraints)
        assert point is not None
        assert satisfies(point, constraints)
        assert Fraction(3) <= point[0] <= Fraction(5)

    def test_infeasible_interval(self):
        constraints = [
            ((Fraction(1),), Fraction(1)),
            ((Fraction(-1),), Fraction(-2)),  # x >= 2 and x <= 1
        ]
        assert feasible_point(1, constraints) is None

    def test_exact_boundary(self):
        # x + y >= 7 and x + y <= 7: only the line, hit exactly
        constraints = [
            ((Fraction(1), Fraction(1)), Fraction(7)),
            ((Fraction(-1), Fraction(-1)), Fraction(-7)),
            ((Fraction(1), Fraction(0)), Fraction(2)),
        ]
        point = feasible_point(2, constraints)
        assert point is not None
        assert point[0] + point[1] == Fraction(7)
        assert point[0] <= 2

    def test_negative_solution_reachable(self):
        constraints = [
            ((Fraction(1),), Fraction(-5)),  # x <= -5
        ]
        point = feasible_point(1, constraints)
        assert point is not None and point[0] <= -5

    def test_random_constructed_systems(self):
        from matchkit.rng import SplitMix64

        rng = SplitMix64(99)
        for _ in range(30):
            nv = 2 + rng.randint(0, 2)
            center = [Fraction(rng.randint(-5, 5)) for _ in range(nv)]
            constraints = []
            for _ in range(8):
                coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
                slack = Fraction(rng.randint(0, 4))
                rhs = sum(c * x for c, x in zip(coeffs, center)) + slack
                constraints.append((coeffs, rhs))
            point = feasible_point(nv, constraints)  # center is feasible
            assert point is not None
            assert satisfies(point, constraints)


class TestModels:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            BargainingModel("other")

    def test_taxed_requires_beta(self):
        with pytest.raises(PreconditionError):
            BargainingModel("ft_taxed")

    def test_beta_forbidden_elsewhere(self):
        with pytest.raises(DomainError):
            BargainingModel("ft", beta=((1.0,),))

    def test_beta_range(self):
        with pytest.raises(DomainError):
            BargainingModel("ft_taxed", beta=((0.0,),))
        with pytest.raises(DomainError):
            BargainingModel("ft_taxed", beta=((1.5,),))


class TestMembership:
    def test_fnt_boxed_pair(self, boxed):
        model = BargainingModel("fnt")
        assert in_feasible_set(model, boxed, 0, 0, 1.0, 1.0)
        assert not in_feasible_set(model, boxed, 0, 0, 1.5, 1.0)

    def test_ft_boundary(self, boxed):
        model = BargainingModel("ft")
        assert in_feasible_set(model, boxed, 0, 1, 3.0, 2.0)  # sums to theta = 5
        assert not in_feasible_set(model, boxed, 0, 1, 3.0, 2.1)

    def test_taxed_with_unit_beta_equals_m2w(self):
        inst = random_instance(3, 5)
        taxed = BargainingModel("ft_taxed", tuple(tuple(1.0 for _ in range(3)) for _ in range(3)))
        m2w = BargainingModel("ft_m2w")
        grid = [x / 2.0 for x in range(-6, 7)]
        for i in range(3):
            for j in range(3):
                for u in grid:
                    for v in grid:
                        assert in_feasible_set(taxed, inst, i, j, u, v) == in_feasible_set(
                            m2w, inst, i, j, u, v
                        )

    def test_m2w_membership_implies_ft(self):
        inst = random_instance(2, 8)
        m2w = BargainingModel("ft_m2w")
        ft = BargainingModel("ft")
        grid = [x / 2.0 for x in range(-4, 5)]
        for i in range(2):
            for j in range(2):
                for u in grid:
                    for v in grid:
                        if in_feasible_set(m2w, inst, i, j, u, v):
                            assert in_feasible_set(ft, inst, i, j, u, v)

    def test_interior_implies_membership(self):
        inst = random_instance(2, 13)
        grid = [x / 2.0 for x in range(-4, 5)]
        for kind in ALL_KINDS:
            model = make_model(kind, 2)
            for i in range(2):
                for j in range(2):
                    for u in grid:
                        for v in grid:
                            if in_interior(model, inst, i, j, u, v):
                                assert in_feasible_set(model, inst, i, j, u, v)

    def test_interior_excludes_boundary(self, boxed):
        model = BargainingModel("fnt")
        assert in_interior(model, boxed, 0, 0, 0.5, 0.5)
        assert not in_interior(model, boxed, 0, 0, 1.0, 0.5)

    def test_ft_interior_strict_halfplane(self, boxed):
        model = BargainingModel("ft")
        assert in_interior(model, boxed, 0, 1, 2.0, 2.0)  # 4 < 5
        assert not in_interior(model, boxed, 0, 1, 3.0, 2.0)


class TestAssumptionAudit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_builtin_families_pass(self, kind):
        inst = random_instance(3, 17)
        model = make_model(kind, 3)
        report = check_assumption(model, inst, 2000, seed=23)
        assert report.ok, report.violations
        assert report.c2 <= report.c1

    def test_negative_rewards_also_pass(self):
        inst = random_instance(2, 29, IntegerRange(-5, 5))
        for kind in ALL_KINDS:
            model = make_model(kind, 2)
            report = check_assumption(model, inst, 1500, seed=31)
            assert report.ok, report.violations


class TestCorePoint:
    def test_fnt_canonical_boxed(self, boxed, identity2):
        model = BargainingModel("fnt")
        cuts = canonical_fnt_cuts(boxed, identity2)
        assert cuts.u == (1.0, 1.0) and cuts.v == (1.0, 1.0)
        assert verify_core_point(model, boxed, identity2, cuts)

    def test_fnt_canonical_swap_invalid(self, boxed, swap2):
        # the first couple's pair sits strictly inside its own set
        model = BargainingModel("fnt")
        cuts = canonical_fnt_cuts(boxed, swap2)
        assert not verify_core_point(model, boxed, swap2, cuts)

    def test_ft_dual_cuts_boxed_swap(self, boxed, swap2):
        model = BargainingModel("ft")
        theta = combined_rewards(boxed)
        cuts = dual_cuts(theta, swap2)
        assert verify_core_point(model, boxed, swap2, cuts)

    def test_ft_identity_tight_cuts_fail(self, boxed, identity2):
        model = BargainingModel("ft")
        for u0 in (0.0, 1.0, 2.0):
            cuts = CutVector((u0, 1.0), (2.0 - u0, 1.0))
            assert not verify_core_point(model, boxed, identity2, cuts)

    def test_zero_instance_any_matching(self):
        inst = Instance(2, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
        model = BargainingModel("fnt")
        for assignment in ((0, 1), (1, 0)):
            matching = Matching(assignment)
            assert verify_core_point(model, inst, matching, canonical_fnt_cuts(inst, matching))

    def test_canonical_cuts_decide_stability(self):
        model = BargainingModel("fnt")
        for seed in range(20):
            inst = random_instance(3, derive_seed(51, seed))
            for perm in permutations(range(3)):
                matching = Matching(perm)
                valid = verify_core_point(
                    model, inst, matching, canonical_fnt_cuts(inst, matching)
                )
                assert valid == (find_fnt_blocking_pairs(inst, matching) == [])


class TestSearchCore:
    def test_ft_boxed(self, boxed, identity2, swap2):
        model = BargainingModel("ft")
        assert search_core(model, boxed, swap2) is not None
        assert search_core(model, boxed, identity2) is None

    def test_fnt_boxed(self, boxed, identity2, swap2):
        model = BargainingModel("fnt")
        found = search_core(model, boxed, identity2)
        assert found is not None
        assert verify_core_point(model, boxed, identity2, found)
        assert search_core(model, boxed, swap2) is None

    def test_found_cuts_verify(self, boxed, swap2):
        for kind in ("ft", "ft_nonneg", "ft_m2w"):
            model = BargainingModel(kind)
            found = search_core(model, boxed, swap2)
            if found is not None:
                assert verify_core_point(model, boxed, swap2, found)

    def test_size_limit(self):
        inst = random_instance(4, 0)
        with pytest.raises(SizeLimitError):
            search_core(BargainingModel("ft"), inst, Matching((0, 1, 2, 3)))

    @pytest.mark.parametrize("seed", range(15))
    def test_ft_succeeds_exactly_on_maximizers(self, seed):
        n = (seed % 3) + 1
        inst = random_instance(n, derive_seed(52, seed), IntegerRange(0, 9))
        theta = combined_rewards(inst)
        _, best = bruteforce_max_matching(theta)
        model = BargainingModel("ft")
        for perm in permutations(range(n)):
            matching = Matching(perm)
            total = sum(theta[i][perm[i]] for i in range(n))
            found = search_core(model, inst, matching)
            assert (found is not None) == (total >= best - EPS)
            if found is not None:
                assert verify_core_point(model, inst, matching, found)

    @pytest.mark.parametrize("seed", range(15))
    def test_fnt_succeeds_exactly_on_stable(self, seed):
        n = (seed % 3) + 1
        inst = random_instance(n, derive_seed(53, seed), IntegerRange(0, 9))
        model = BargainingModel("fnt")
        for perm in permutations(range(n)):
            matching = Matching(perm)
            found = search_core(model, inst, matching)
            stable = find_fnt_blocking_pairs(inst, matching) == []
            assert (found is not None) == stable

    @pytest.mark.parametrize("seed", range(10))
    def test_ft_nonneg_clamping(self, seed):
        n = (seed % 3) + 1
        inst = random_instance(n, derive_seed(54, seed), IntegerRange(0, 9))
        theta = combined_rewards(inst)
        maximizer, _ = bruteforce_max_matching(theta)
        model = BargainingModel("ft_nonneg")
        found = search_core(model, inst, maximizer)
        if found is not None:
            clamped = CutVector(
                tuple(max(x, 0.0) for x in found.u),
                tuple(max(x, 0.0) for x in found.v),
            )
            assert verify_core_point(model, inst, maximizer, clamped)

    def test_taxed_small(self):
        inst = random_instance(2, 61, IntegerRange(0, 9))
        model = make_model("ft_taxed", 2)
        theta = combined_rewards(inst)
        maximizer, _ = bruteforce_max_matching(theta)
        found = search_core(model, inst, maximizer)
        if found is not None:
            assert verify_core_point(model, inst, maximizer, found)

    def test_taxed_unit_beta_agrees_with_m2w(self):
        inst = random_instance(2, 62, IntegerRange(0, 9))
        ones = tuple(tuple(1.0 for _ in range(2)) for _ in range(2))
        taxed = BargainingModel("ft_taxed", ones)
        m2w = BargainingModel("ft_m2w")
        for perm in permutations(range(2)):
            matching = Matching(perm)
            assert (search_core(taxed, inst, matching) is None) == (
                search_core(m2w, inst, matching) is None
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_found_cuts_verify_all_families(self, seed):
        # Off-grid floats: uniform rewards and retention factors in (0.5, 1].
        base = random_instance(2, derive_seed(63, seed))
        rng = SplitMix64(derive_seed(64, seed))
        beta = tuple(tuple(1.0 - 0.5 * rng.uniform01() for _ in range(2)) for _ in range(2))
        inst = Instance(2, base.theta_m, base.theta_w, beta)
        for kind in ALL_KINDS:
            model = BargainingModel(kind, beta if kind == "ft_taxed" else None)
            for perm in permutations(range(2)):
                found = search_core(model, inst, Matching(perm))
                if found is not None:
                    assert verify_core_point(model, inst, Matching(perm), found), kind

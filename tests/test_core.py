from fractions import Fraction
from itertools import permutations

import pytest

from matchkit import bargaining
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
    canonical_fnt_cuts,
    check_assumption,
    combined_rewards,
    derive_seed,
    dual_cuts,
    find_fnt_blocking_pairs,
    gale_shapley,
    in_feasible_set,
    in_interior,
    random_instance,
    search_core,
    verify_core_point,
)
from matchkit.bargaining import _halfplanes

from oracles import bruteforce_max_matching, feasible_point, satisfies

EPS = 1e-9

ALL_KINDS = ("fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed")


def make_model(kind: str, n: int) -> BargainingModel:
    if kind == "ft_taxed":
        # dyadic retention factors are exactly representable
        beta = tuple(tuple(0.25 if (i + j) % 2 else 0.5 for j in range(n)) for i in range(n))
        return BargainingModel(kind, beta)
    return BargainingModel(kind)


def disjunctive_core(model, inst, matching):
    """Reference: the disjunctive branch-and-simplex search that the
    lattice descent replaced.

    Each pair's exclusion from its open feasibility set is a disjunction
    over the closed complements of its half-planes.  Branches run depth
    first in pair-major order with interval pruning; each leaf is an
    exact rational feasibility problem over the same half-plane table.
    Returns the exact point (u then v) of the first feasible branch, or
    None.  Up to 3^(n^2) leaves: minutes on a capped n = 3 matching with
    no core point.
    """
    n = inst.n
    nv = 2 * n

    def row(i, j, cu, cv, rhs):
        coeffs = [Fraction(0)] * nv
        coeffs[i] = cu
        coeffs[n + j] = cv
        return (tuple(coeffs), rhs)

    def tighten(constraint, lo, hi):
        nonzero = [(k, c) for k, c in enumerate(constraint[0]) if c != 0]
        if len(nonzero) != 1:
            return True
        k, c = nonzero[0]
        bound = constraint[1] / c
        if c > 0:
            if hi[k] is None or bound < hi[k]:
                hi[k] = bound
        elif lo[k] is None or bound > lo[k]:
            lo[k] = bound
        return lo[k] is None or hi[k] is None or lo[k] <= hi[k]

    def box_ok(constraints, lo, hi):
        for coeffs, rhs in constraints:
            total = Fraction(0)
            for k, c in enumerate(coeffs):
                if c == 0:
                    continue
                bound = lo[k] if c > 0 else hi[k]
                if bound is None:
                    break
                total += c * bound
            else:
                if total > rhs:
                    return False
        return True

    base = [
        row(i, matching.assignment[i], cu, cv, rhs)
        for i in range(n)
        for cu, cv, rhs in _halfplanes(model, inst, i, matching.assignment[i], Fraction)
    ]
    branch_sets = [
        [row(i, j, -cu, -cv, -rhs) for cu, cv, rhs in _halfplanes(model, inst, i, j, Fraction)]
        for i in range(n)
        for j in range(n)
    ]
    lo, hi = [None] * nv, [None] * nv
    if not all(tighten(c, lo, hi) for c in base) or not box_ok(base, lo, hi):
        return None

    def descend(idx, constraints, lo, hi):
        if idx == len(branch_sets):
            return feasible_point(nv, constraints)
        for option in branch_sets[idx]:
            new_lo, new_hi = lo[:], hi[:]
            if not tighten(option, new_lo, new_hi):
                continue
            grown = constraints + [option]
            if box_ok(grown, new_lo, new_hi):
                found = descend(idx + 1, grown, new_lo, new_hi)
                if found is not None:
                    return found
        return None

    return descend(0, base, lo, hi)


def parity_instances(n, count, tag):
    """Seeded tables for the oracle parity test: near-tied integers
    (0..2, many exact ties), integers nudged by multiples of eps / 2,
    and uniform floats; beta off the grid in (0.5, 1] or all 1."""
    rng = SplitMix64(derive_seed(65, tag, n))
    draws = (
        lambda: float(rng.randint(0, 2)),
        lambda: rng.randint(0, 2) + rng.randint(-2, 2) * 5e-10,
        rng.uniform01,
    )
    for k in range(count):
        draw = draws[k % 3]
        tm = tuple(tuple(draw() for _ in range(n)) for _ in range(n))
        tw = tuple(tuple(draw() for _ in range(n)) for _ in range(n))
        if k % 2:
            beta = tuple(tuple(1.0 - 0.5 * rng.uniform01() for _ in range(n)) for _ in range(n))
        else:
            beta = tuple(tuple(1.0 for _ in range(n)) for _ in range(n))
        yield Instance(n, tm, tw, beta)


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

    def test_beta_whose_reciprocal_overflows_rejected(self):
        # At beta = 5e-324 the taxed row u + v/beta <= tm + tw/beta reads
        # inf <= inf for any positive v, so the audit saw members far
        # above the budget.
        for tiny in (5e-324, 5e-310):
            with pytest.raises(DomainError, match="1/beta overflows"):
                BargainingModel("ft_taxed", beta=((1.0, tiny), (1.0, 1.0)))
        assert BargainingModel("ft_taxed", beta=((1e-308,),)).beta == ((1e-308,),)


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

    def test_tiny_beta_corner_level_is_finite(self):
        # tw/beta overflows to inf; the corner level (beta*tm + tw)/(1 + beta)
        # is then tw to the last bit, capped by tm.
        base = random_instance(2, 5)
        wide = tuple(tuple(x * 1e10 for x in row) for row in base.theta_w)
        inst = Instance(2, base.theta_m, wide)
        model = BargainingModel("ft_taxed", ((1e-300, 1e-300), (1e-300, 1e-300)))
        report = check_assumption(model, inst, 50, seed=3)
        assert report.c2 == min(
            min(inst.theta_m[i][j], inst.theta_w[i][j]) for i in range(2) for j in range(2)
        )

    def test_overflowing_taxed_row_decided_exactly(self):
        # tw/beta overflows, so the taxed row reads u + v/beta <= inf in
        # floats and would admit points far above the budget.
        base = random_instance(2, 5)
        wide = tuple(tuple(x * 1e10 for x in row) for row in base.theta_w)
        inst = Instance(2, base.theta_m, wide)
        model = BargainingModel("ft_taxed", ((1e-300, 1e-300), (1e-300, 1e-300)))
        report = check_assumption(model, inst, 500, seed=1)
        assert report.ok, report.violations
        budget = inst.theta_m[0][1] + inst.theta_w[0][1]
        assert not in_feasible_set(model, inst, 0, 1, 0.0, 2 * budget)
        assert in_feasible_set(model, inst, 0, 1, 0.0, budget / 2)
        assert not in_interior(model, inst, 0, 1, inst.theta_m[0][1], 0.0)


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


class TestOracleParity:
    """search_core against the disjunctive search it replaced."""

    @staticmethod
    def agree(kind, inst, matching):
        model = BargainingModel(kind, inst.beta if kind == "ft_taxed" else None)
        found = search_core(model, inst, matching)
        point = disjunctive_core(model, inst, matching)
        assert (found is None) == (point is None), (kind, inst, matching)
        if found is not None:
            assert verify_core_point(model, inst, matching, found), (kind, inst, matching)
            if kind != "ft":  # capped: the greatest u is above every other
                assert all(x >= float(y) for x, y in zip(found.u, point[: inst.n])), kind
        return found

    def test_every_family_and_matching_at_n_up_to_2(self):
        verdicts = []
        for n in (1, 2):
            for inst in parity_instances(n, 12, 0):
                for perm in permutations(range(n)):
                    for kind in ALL_KINDS:
                        verdicts.append(self.agree(kind, inst, Matching(perm)) is None)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_uncapped_and_fnt_at_n_3(self):
        for inst in parity_instances(3, 3, 1):
            for perm in permutations(range(3)):
                for kind in ("fnt", "ft"):
                    self.agree(kind, inst, Matching(perm))

    def test_capped_families_at_n_3_sampled(self):
        # The oracle walks up to 3^9 leaves when there is no core point,
        # which takes minutes at n = 3; sample the deferred-acceptance
        # matching of a few tables.
        verdicts = []
        for inst in parity_instances(3, 6, 2):
            for kind in ("ft_nonneg", "ft_m2w", "ft_taxed"):
                verdicts.append(self.agree(kind, inst, gale_shapley(inst)) is None)
        assert not all(verdicts)


class TestDescentRounds:
    """The round bound stated in search_core's docstring: 76 at n = 2."""

    BOUND_N2 = 76

    @staticmethod
    def count_rounds(monkeypatch):
        inner = bargaining._sweep
        rounds = []

        def counted(bounds, u, pred):
            rounds.append(1)
            return inner(bounds, u, pred)

        monkeypatch.setattr(bargaining, "_sweep", counted)
        return rounds

    def test_near_tied_nonneg_cycle(self, monkeypatch):
        # Every pooled total is 1 except the two off-diagonal ones, 1 + d/2:
        # the swap beats the identity by d.  From the caps u = (1, 1) a plain
        # descent lowers both men by that deficit per round until man 0
        # reaches d/2, where woman 1 would need more than her husband's
        # total: about 1/d rounds.
        d = 5e-7
        inst = Instance(2, ((0.5, 0.5 + d / 2), (0.5 + d / 2, 0.5)), ((0.5,) * 2,) * 2)
        total = [[Fraction(a) + Fraction(b) for a, b in zip(*rows)]
                 for rows in zip(inst.theta_m, inst.theta_w)]
        deficit = total[0][1] + total[1][0] - total[0][0] - total[1][1]
        wall = total[0][1] - total[1][1]
        assert (1 - wall) / deficit >= 10**6
        rounds = self.count_rounds(monkeypatch)
        assert search_core(BargainingModel("ft_nonneg"), inst, Matching((0, 1))) is None
        assert len(rounds) <= self.BOUND_N2
        assert disjunctive_core(BargainingModel("ft_nonneg"), inst, Matching((0, 1))) is None

    def test_taxed_cycle_converging_geometrically(self, monkeypatch):
        # With beta = 1/2 off the diagonal, each man's bound follows the
        # other's at slope 1/2: the cycle contracts by 1/4 per round
        # toward u = (-1, -1), which a plain descent never reaches.
        inst = Instance(2, ((1.0, 2.0), (2.0, 1.0)), ((1.0, 1.5), (1.5, 1.0)))
        model = BargainingModel("ft_taxed", ((1.0, 0.5), (0.5, 1.0)))
        rounds = self.count_rounds(monkeypatch)
        found = search_core(model, inst, Matching((0, 1)))
        assert found == CutVector((-1.0, -1.0), (3.0, 3.0))
        assert len(rounds) <= self.BOUND_N2
        assert verify_core_point(model, inst, Matching((0, 1)), found)
        assert not verify_core_point(
            model, inst, Matching((0, 1)), CutVector((-0.999, -0.999), (3.0, 3.0))
        )

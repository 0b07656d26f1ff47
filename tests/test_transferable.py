import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from matchkit import (
    BargainingModel,
    CutVector,
    DimensionMismatchError,
    DomainError,
    Instance,
    IntegerRange,
    MalformedInputError,
    Matching,
    MatchkitError,
    NonFiniteEntryError,
    NotCyclicallyMonotoneError,
    PreconditionError,
    chain_potentials,
    check_optimality_of_cuts,
    combined_rewards,
    derive_seed,
    dual_cuts,
    in_feasible_set,
    is_cyclically_monotone,
    optimal_assignment,
    random_instance,
    verify_ft_core,
)
from matchkit.cycles import best_cycle_bruteforce, find_positive_cycle
from matchkit import instances, transferable
from matchkit.rng import SplitMix64

from conftest import coerced_rows, corpus_instance, count_calls, seeded_permutation
from oracles import bruteforce_max_matching

BOXED_THETA = ((2.0, 5.0), (0.0, 2.0))
EPS = 1e-9


def chain_value_oracle(theta, matching, target):
    """Brute-force minimum over all chains of distinct couples ending at
    the target couple; equals -u0[target].  A hop from couple s to
    couple t hands s's woman to t's man."""
    n = len(theta)
    assignment = matching.assignment

    def hop(s, t):
        ws = assignment[s]
        return theta[s][ws] - theta[t][ws]

    best = 0.0  # the single-node chain (just the target) costs nothing
    for k in range(1, n):
        for seq in permutations([c for c in range(n) if c != target], k):
            chain = seq + (target,)
            value = sum(hop(chain[l], chain[l + 1]) for l in range(k))
            best = min(best, value)
    return best


def lex_first_by_matching_oracle(tight):
    """Rows fixed in order: each takes its smallest free tight column for
    which scipy's bipartite matching still matches every later row."""
    n = len(tight)
    free = list(range(n))
    for i in range(n):
        for j in free:
            rest = [c for c in free if c != j]
            if tight[i, j] and (
                i + 1 == n
                or (maximum_bipartite_matching(csr_matrix(tight[i + 1 :][:, rest])) >= 0).all()
            ):
                break
        free.remove(j)
        yield j


def additive_tables(scale):
    """(n, theta) for the 140 seeded tables theta[i][j] = scale * a[i] +
    scale * b[j], n in (2, 5, 10, 20, 40, 80, 150) and 20 seeds each:
    every assignment ties up to rounding."""
    for n in (2, 5, 10, 20, 40, 80, 150):
        for seed in range(20):
            rng = SplitMix64(derive_seed(86, n, seed))
            a = [rng.uniform01() for _ in range(n)]
            b = [rng.uniform01() for _ in range(n)]
            yield n, tuple(tuple(scale * x + scale * y for y in b) for x in a)


class TestOptimalAssignment:
    def test_boxed_swap_wins(self):
        matching, value = optimal_assignment(BOXED_THETA)
        assert matching.assignment == (1, 0)
        assert value == 5.0

    def test_scale_beyond_float_range_keeps_the_optimum(self):
        # n * max|theta| overflows; the tie rule must not read every pair as tight.
        theta = [[0, 5e307, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        matching, value = optimal_assignment(theta)
        assert matching.assignment == (1, 0, 2, 3)
        assert value == 5e307

    def test_dominant_diagonal(self):
        theta = tuple(
            tuple(6.0 + i if i == j else 0.0 for j in range(4)) for i in range(4)
        )
        matching, value = optimal_assignment(theta)
        assert matching.assignment == (0, 1, 2, 3)
        assert value == sum(6.0 + i for i in range(4))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce(self, seed):
        inst = corpus_instance(seed, 6, tag=21)
        theta = combined_rewards(inst)
        matching, value = optimal_assignment(theta)
        _, best = bruteforce_max_matching(theta)
        assert abs(value - best) <= len(theta) * EPS
        assert abs(sum(theta[i][matching.assignment[i]] for i in range(len(theta))) - value) < EPS

    def test_lexicographic_among_ties(self):
        assert optimal_assignment(((1.0, 1.0), (1.0, 1.0)))[0].assignment == (0, 1)
        assert optimal_assignment(((0.0,) * 3,) * 3)[0].assignment == (0, 1, 2)
        # value ties with distinct entries: (0,1)+(1,0) == (0,0)+(1,1)
        theta = ((3.0, 4.0), (4.0, 5.0))
        assert optimal_assignment(theta)[0].assignment == (0, 1)

    def test_shift_invariance(self):
        for seed in range(10):
            inst = random_instance(4, derive_seed(22, seed))
            theta = combined_rewards(inst)
            shifted = tuple(tuple(x + 2.5 for x in row) for row in theta)
            m1, v1 = optimal_assignment(theta)
            m2, v2 = optimal_assignment(shifted)
            assert m1 == m2
            assert abs((v2 - v1) - 4 * 2.5) < 1e-9

    def test_six_by_six_value_against_all_720_permutations(self):
        for seed in range(500):
            inst = random_instance(6, derive_seed(28, seed))
            theta = combined_rewards(inst)
            _, value = optimal_assignment(theta)
            _, best = bruteforce_max_matching(theta)
            assert abs(value - best) <= 6 * EPS


class TestOneSolveTieBreak:
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_lex_first_optimum_matches_bruteforce(self, rows):
        theta = tuple(tuple(float(x) for x in row) for row in rows)
        assert optimal_assignment(theta) == bruteforce_max_matching(theta)

    @pytest.mark.parametrize("seed", range(30))
    def test_scaled_1e8_corpus_solves(self, seed):
        # Rewards near 1e8: one ulp of a total there exceeds n * eps.
        inst = random_instance(40, derive_seed(29, seed))
        theta = tuple(tuple(1e8 * x for x in row) for row in combined_rewards(inst))
        matching, value = optimal_assignment(theta)
        arr = np.asarray(theta)
        rows, cols = linear_sum_assignment(arr, maximize=True)
        best = float(arr[rows, cols].sum())
        assert abs(value - best) <= 1e-12 * abs(best)
        assert value == sum(theta[i][matching.assignment[i]] for i in range(len(theta)))

    def test_additive_tables_return_the_identity(self):
        # The tie rule must see every assignment as optimal.
        for scale in (1.0, 1e3, 1e8):
            for n, theta in additive_tables(scale):
                assert optimal_assignment(theta)[0].assignment == tuple(range(n))

    @pytest.mark.parametrize(
        "dist",
        [IntegerRange(0, 1), IntegerRange(-1, 1), None],
        ids=["int:0:1", "int:-1:1", "additive"],
    )
    @pytest.mark.parametrize("n", [5, 12, 25, 40, 60])
    def test_lex_first_matches_independent_oracle(self, dist, n):
        for seed in range(3):
            rng = SplitMix64(derive_seed(87, n, seed))
            if dist is None:
                a = [rng.uniform01() for _ in range(n)]
                b = [rng.uniform01() for _ in range(n)]
                arr = np.add.outer(a, b)
            else:
                arr = np.array(random_instance(n, rng.next_u64(), dist).theta_m)
            _, cols = linear_sum_assignment(arr, maximize=True)
            tight = transferable._tight_edges(transferable._square(arr), cols)
            expected = list(lex_first_by_matching_oracle(tight))
            assert transferable._lex_first_perfect_matching(tight, cols.tolist()) == expected

    def test_zero_eps_on_ties(self):
        theta = ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0))
        assert optimal_assignment(theta) == bruteforce_max_matching(theta)
        zeros = ((0.0,) * 5,) * 5
        assert optimal_assignment(zeros)[0].assignment == (0, 1, 2, 3, 4)

    def test_one_assignment_solve_per_call(self, monkeypatch):
        calls = []
        inner = transferable.linear_sum_assignment

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(transferable, "linear_sum_assignment", counting)
        inst = random_instance(12, derive_seed(30, 0), IntegerRange(0, 2))
        optimal_assignment(combined_rewards(inst))
        assert len(calls) == 1


class TestCyclicMonotonicity:
    def test_boxed_swap_monotone(self, swap2):
        assert is_cyclically_monotone(BOXED_THETA, swap2) is True

    def test_boxed_identity_witness(self, identity2):
        witness = is_cyclically_monotone(BOXED_THETA, identity2)
        assert witness is not True
        assert not witness  # falsy by design
        assert witness.cycle == (0, 1)
        assert abs(witness.gain - 1.0) < EPS

    def test_single_couple_always_monotone(self):
        assert is_cyclically_monotone(((42.0,),), Matching((0,))) is True

    @pytest.mark.parametrize("seed", range(25))
    def test_detector_agrees_with_enumeration(self, seed):
        rng = SplitMix64(derive_seed(23, seed))
        n = (seed % 5) + 2
        weights = [[rng.uniform01() * 2.0 - 1.0 for _ in range(n)] for _ in range(n)]
        for a in range(n):
            weights[a][a] = 0.0
        fast = find_positive_cycle(weights, EPS)
        slow = best_cycle_bruteforce(weights, EPS)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast[1] > EPS
            assert slow[1] >= fast[1] - 1e-12


class TestDualCuts:
    def test_boxed_cut_constraints(self, swap2):
        cuts = dual_cuts(BOXED_THETA, swap2)
        u, v = cuts.u, cuts.v
        assert abs(u[0] + v[1] - 5.0) < EPS  # matched pair (1, 2')
        assert abs(u[1] + v[0] - 0.0) < EPS  # matched pair (2, 1')
        assert u[0] + v[0] >= 2.0 - EPS
        assert u[1] + v[1] >= 2.0 - EPS

    def test_single_couple_normalized(self):
        cuts = dual_cuts(((7.5,),), Matching((0,)))
        assert cuts.u == (0.0,)
        assert cuts.v == (7.5,)

    def test_anchor_and_determinism(self):
        for seed in range(10):
            inst = random_instance(5, derive_seed(24, seed))
            theta = combined_rewards(inst)
            matching, _ = optimal_assignment(theta)
            first = dual_cuts(theta, matching)
            assert min(first.u) == 0.0
            assert dual_cuts(theta, matching) == first

    def test_dominant_diagonal_strict_off_diagonal(self):
        theta = tuple(tuple(9.0 if i == j else 1.0 for j in range(3)) for i in range(3))
        matching = Matching((0, 1, 2))
        cuts = dual_cuts(theta, matching)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert cuts.u[i] + cuts.v[j] > theta[i][j] + EPS

    def test_no_detector_call_on_an_optimal_matching(self, monkeypatch):
        inst = random_instance(30, derive_seed(32, 0))
        theta = combined_rewards(inst)
        matching, _ = optimal_assignment(theta)
        calls = {"detector": 0, "relaxation": 0}

        def count(name, inner):
            def counting(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return counting

        monkeypatch.setattr(
            transferable, "find_positive_cycle", count("detector", find_positive_cycle)
        )
        monkeypatch.setattr(
            transferable, "_chain_distances", count("relaxation", transferable._chain_distances)
        )
        dual_cuts(theta, matching)
        assert calls == {"detector": 0, "relaxation": 1}

    def test_cuts_after_the_solve_make_no_pass(self, monkeypatch):
        # The tie-break's relaxation of a tie-free table settles within its
        # n + 1 passes on the matching returned, so the cuts reuse it.
        theta = combined_rewards(random_instance(50, derive_seed(32, 1)))
        passes = []
        inner = transferable._relax

        def counted(dist, cost):
            passes.append(len(dist))
            return inner(dist, cost)

        monkeypatch.setattr(transferable, "_relax", counted)
        matching, _ = optimal_assignment(theta)
        assert 0 < len(passes) <= 51
        _, cols = linear_sum_assignment(np.array(theta), maximize=True)
        assert matching.assignment == tuple(cols.tolist())
        passes.clear()
        cuts = dual_cuts(theta, matching)
        assert passes == []
        assert cuts == dual_cuts([list(row) for row in theta], matching)
        assert len(passes) > 0  # list rows get a table of their own

    @pytest.mark.parametrize("n", [5, 40, 150])
    def test_zero_eps_integer_tables_skip_the_detector(self, monkeypatch, n):
        # Integer sums below 2**53 are exact, so eps = 0 needs no rounding term.
        theta = combined_rewards(random_instance(n, 3, IntegerRange(0, 9)))
        matching, _ = optimal_assignment(theta)
        expected = reference_dual_cuts(theta, matching, 0.0)
        detector = count_calls(monkeypatch, transferable, "find_positive_cycle")
        assert dual_cuts(theta, matching, eps=0.0) == expected
        assert detector == []

    def test_additive_tables_certified_without_settling(self):
        # Rounding-level cycles among the hop costs a[s] - a[t] keep the
        # relaxation from settling, but its cuts still bound every chain.
        unsettled = 0
        for n, theta in additive_tables(1.0):
            matching, _ = optimal_assignment(theta)
            _, settled = transferable._chain_distances(
                transferable._square(theta), np.asarray(matching.assignment), 4 * n
            )
            unsettled += not settled
            assert verify_ft_core(theta, matching, dual_cuts(theta, matching))
        assert unsettled > 100

    def test_rejects_blocked_matching(self, identity2):
        with pytest.raises(NotCyclicallyMonotoneError):
            dual_cuts(BOXED_THETA, identity2)

    @pytest.mark.parametrize("seed", range(20))
    def test_potentials_match_chain_oracle(self, seed):
        n = (seed % 5) + 1
        inst = random_instance(n, derive_seed(25, seed))
        theta = combined_rewards(inst)
        matching, _ = optimal_assignment(theta)
        u0 = chain_potentials(theta, matching)
        for target in range(n):
            assert abs(u0[target] + chain_value_oracle(theta, matching, target)) < EPS


def gauss_seidel_potentials(theta, matching):
    """Reference: the in-place all-sources Bellman-Ford that chain
    potentials used to run, over the same hop costs and pass cap.

    Returns -dist, or None when 4n passes do not settle."""
    n = len(theta)
    assignment = matching.assignment
    cost = [[theta[s][assignment[s]] - theta[t][assignment[s]] for t in range(n)] for s in range(n)]
    dist = [0.0] * n
    for _ in range(4 * n):
        improved = False
        for a in range(n):
            for b in range(n):
                if a != b and dist[a] + cost[a][b] < dist[b]:
                    dist[b] = dist[a] + cost[a][b]
                    improved = True
        if not improved:
            return [-d for d in dist]
    return None


def reference_dual_cuts(theta, matching, eps):
    """Reference: the composition dual_cuts used to run, with the cycle
    detector deciding first and the chain potentials only building."""
    witness = is_cyclically_monotone(theta, matching, eps=eps)
    if witness is not True:
        raise NotCyclicallyMonotoneError(
            f"matching admits blocking chain {witness.cycle} with gain {witness.gain}"
        )
    u_raw = chain_potentials(theta, matching)
    anchor = min(u_raw)
    u = [x - anchor for x in u_raw]
    v = [0.0] * len(theta)
    for i, woman in enumerate(matching.assignment):
        v[woman] = theta[i][woman] - u[i]
    return CutVector(tuple(u), tuple(v))


def cut_outcome(build, theta, matching, eps):
    """The cuts, or the type and text of the error raised instead."""
    try:
        return build(theta, matching, eps=eps)
    except MatchkitError as exc:
        return type(exc).__name__, str(exc)


def dual_cuts_as_reference(theta, matching, eps):
    """``dual_cuts``' outcome, checked against the reference composition.

    They are equal, except where the reference's relaxation diverges and
    ``dual_cuts`` returns cuts that bound every chain by eps: those must
    certify a matching the detector calls monotone."""
    got = cut_outcome(dual_cuts, theta, matching, eps)
    expected = cut_outcome(reference_dual_cuts, theta, matching, eps)
    if isinstance(got, CutVector) and expected == (
        "NotCyclicallyMonotoneError", transferable._DIVERGED
    ):
        assert is_cyclically_monotone(theta, matching, eps=eps) is True
        assert verify_ft_core(theta, matching, got, eps=eps)
    else:
        assert got == expected
    return got


# Rewards where rounding swallows unit and sub-eps gains.
NEAR_LIMIT = (
    0.0, -0.0, 5e-324, -5e-324, 1e-10, 5e-10, 1.0, -1.0,
    1e308, -1e308, 1.7e308, -1.7e308, 8.9e307,
)


def _potentials_corpus():
    """Seeded (label, theta, matching) cases: optimal matchings on
    tie-free, tied and 1e8-scaled rewards, plus random matchings, most of
    which admit a blocking chain and make both loops diverge."""
    for seed in range(12):
        n = (2, 3, 5, 8, 13, 21, 34, 40)[seed % 8]
        for label, dist, scale in (
            ("uniform", None, 1.0),
            ("int:0:9", IntegerRange(0, 9), 1.0),
            ("int:0:2", IntegerRange(0, 2), 1.0),
            ("uniform*1e8", None, 1e8),
        ):
            args = (n, derive_seed(31, seed)) + ((dist,) if dist is not None else ())
            theta = tuple(
                tuple(scale * x for x in row) for row in combined_rewards(random_instance(*args))
            )
            yield label, theta, optimal_assignment(theta)[0]
            yield label + "/random", theta, Matching(seeded_permutation(n, SplitMix64(seed)))


class TestChainPotentialsReference:
    def test_equal_to_gauss_seidel_reference(self):
        diverged = 0
        for label, theta, matching in _potentials_corpus():
            expected = gauss_seidel_potentials(theta, matching)
            if expected is None:
                diverged += 1
                with pytest.raises(NotCyclicallyMonotoneError, match="diverge"):
                    chain_potentials(theta, matching)
            else:
                assert chain_potentials(theta, matching) == expected, label
        assert diverged > 0

    @pytest.mark.parametrize("eps", [EPS, 0.0])
    def test_dual_cuts_equal_to_reference_composition(self, eps):
        certified = set()
        for _, theta, matching in _potentials_corpus():
            got = dual_cuts_as_reference(theta, matching, eps)
            certified.add(isinstance(got, CutVector))
        assert certified == {True, False}

    @pytest.mark.parametrize(
        "theta, assignment, eps, chain",
        [
            # the potentials overflow to -inf, where a pass changes nothing
            (((0.0, -1.0), (1e308, 0.0)), (0, 1), EPS, (0, 1)),
            # the unit gain is lost in rounding next to 1e308 and the
            # relaxation settles on cuts that leave pair (0, 1) short
            (((0.0, 1.0), (-1e308, -1e308)), (0, 1), EPS, (0, 1)),
            # the relaxation settles and its float cuts cover every pair,
            # but rounding near the float limit hides the gain from both
            (((8.9e307, 8.9e307), (0.0, -1.0)), (0, 1), 0.0, (0, 1)),
            (
                ((-5e-324, 1.7e308, 1.7e308), (-1.0, -1.0, 5e-324), (-5e-324, -0.0, 5e-10)),
                (2, 0, 1),
                EPS,
                (0, 2, 1),
            ),
            (((-5e-324, -0.0), (1.7e308, 1.7e308)), (0, 1), 0.0, (0, 1)),
        ],
    )
    def test_settled_relaxation_still_names_the_witness(self, theta, assignment, eps, chain):
        matching = Matching(assignment)
        expected = cut_outcome(reference_dual_cuts, theta, matching, eps)
        assert expected[1].startswith(f"matching admits blocking chain {chain}")
        assert cut_outcome(dual_cuts, theta, matching, eps) == expected

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.sampled_from(NEAR_LIMIT), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.permutations(range(n)),
                st.sampled_from([EPS, 0.0]),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_dual_cuts_equal_to_reference_near_the_float_limit(self, case):
        rows, assignment, eps = case
        theta = tuple(tuple(row) for row in rows)
        dual_cuts_as_reference(theta, Matching(tuple(assignment)), eps)

    @pytest.mark.parametrize(
        "theta, lost",
        [
            # a blocking chain whose potentials overflow to -inf, where a
            # pass changes nothing
            (((0.0, -1.0), (1e308, 0.0)), 0),
            # no blocking chain, but the potentials need a spread of 3.4e308
            (((-1.7e308, -1.7e308), (1.7e308, 1.7e308)), 1),
        ],
    )
    def test_potentials_beyond_the_float_range_raise(self, theta, lost):
        matching = Matching((0, 1))
        with pytest.raises(NonFiniteEntryError, match=rf"^u\[{lost}\] is not finite$"):
            chain_potentials(theta, matching)
        assert cut_outcome(dual_cuts, theta, matching, EPS) == cut_outcome(
            reference_dual_cuts, theta, matching, EPS
        )

    def test_sub_eps_chain_diverges(self):
        # a 5e-10 blocking chain hides under eps but not from the potentials
        theta = ((0.0, 5e-10), (0.0, 0.0))
        assert gauss_seidel_potentials(theta, Matching((0, 1))) is None
        with pytest.raises(NotCyclicallyMonotoneError, match="diverge"):
            chain_potentials(theta, Matching((0, 1)))
        with pytest.raises(NotCyclicallyMonotoneError, match="diverge"):
            dual_cuts(theta, Matching((0, 1)))


def shared_run_instances():
    """(kind, instance) for seeded instances at n = 2 to 40 whose pooled
    tables are uniform, small integers, additive (every assignment ties,
    and many relaxations are unsettled after n + 1 passes) or uniform
    scaled by 1e8; the last two pool with a zero women's table."""
    for n in (2, 3, 5, 8, 13, 21, 40):
        zeros = ((0.0,) * n,) * n
        for seed in range(4):
            rng = SplitMix64(derive_seed(88, n, seed))
            uniform = random_instance(n, rng.next_u64())
            yield "uniform", uniform
            yield "integer", random_instance(n, rng.next_u64(), IntegerRange(0, 3))
            a = [rng.uniform01() for _ in range(n)]
            b = [rng.uniform01() for _ in range(n)]
            yield "additive", Instance(n, tuple(tuple(x + y for y in b) for x in a), zeros)
            scaled = tuple(tuple(1e8 * x for x in row) for row in combined_rewards(uniform))
            yield "1e8", Instance(n, scaled, zeros)


def ft_outcomes(theta, other, solve_first):
    """repr of each result, or the error text, of the ft calls on ``theta``
    in an order that shares and replaces chain runs: the solve and
    ``other`` (a second matching) take turns, the cuts come before and
    after the solve, ``chain_potentials`` follows ``dual_cuts``, and the
    solve's n + 1 passes follow their 4n."""
    outcomes = []

    def record(call, *args):
        try:
            result = call(theta, *args)
        except MatchkitError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
            return None
        outcomes.append(repr(result))
        return result

    if not solve_first:
        record(dual_cuts, other)
    matching, _ = record(optimal_assignment)
    for m in (other, matching, other, matching):
        cuts = record(dual_cuts, m)
        record(chain_potentials, m)
        if cuts is not None:
            record(verify_ft_core, m, cuts)
            record(check_optimality_of_cuts, m, cuts)
    record(optimal_assignment)
    return outcomes


class TestSharedChainRun:
    def test_shared_run_equals_fresh_runs(self):
        resumed = 0
        for kind, inst in shared_run_instances():
            n = inst.n
            lists = [list(row) for row in combined_rewards(inst)]
            _, cols = linear_sum_assignment(np.array(lists), maximize=True)
            # the solve leaves this run unsettled, and the cuts on cols relax afresh
            _, settled = transferable._chain_distances(combined_rewards(inst), cols, n + 1)
            resumed += not settled
            for other in (Matching(tuple(cols.tolist())), Matching(tuple(range(n))[::-1])):
                for solve_first in (True, False):
                    shared = ft_outcomes(combined_rewards(inst), other, solve_first)
                    fresh = ft_outcomes(lists, other, solve_first)
                    assert shared == fresh, (kind, n, other, solve_first)
        assert resumed >= 10

    def test_fewer_passes_after_more_equal_a_fresh_run(self):
        for kind, inst in shared_run_instances():
            if inst.n != 21 or kind not in ("uniform", "additive"):
                continue
            n = inst.n
            table = combined_rewards(inst)
            assignment = np.asarray(optimal_assignment(table)[0].assignment)
            for limit in (4 * n, *range(1, n + 2), 4 * n):
                dist, settled = transferable._chain_distances(table, assignment, limit)
                fresh = transferable._chain_distances(combined_rewards(inst), assignment, limit)
                assert (dist.tobytes(), settled) == (fresh[0].tobytes(), fresh[1]), (kind, limit)


def counted_passes(monkeypatch) -> list[int]:
    """Record the size of each ``transferable._relax`` pass."""
    inner = transferable._relax
    passes = []

    def counted(dist, cost):
        passes.append(len(dist))
        return inner(dist, cost)

    monkeypatch.setattr(transferable, "_relax", counted)
    return passes


class TestKeptChainRun:
    """A table keeps only a settled relaxation."""

    def test_unsettled_run_is_not_kept(self, monkeypatch):
        # the identity admits a blocking chain, so its relaxation never settles
        table = transferable._square(BOXED_THETA)
        passes = counted_passes(monkeypatch)
        for _ in range(2):
            _, settled = transferable._chain_distances(table, np.array([0, 1]), 8)
            assert not settled
            assert table.chain_run is None
        assert len(passes) == 16  # the second call relaxes afresh

    def test_settled_run_outlives_an_unsettled_one(self, monkeypatch):
        table = combined_rewards(random_instance(30, derive_seed(32, 2)))
        matching, _ = optimal_assignment(table)
        kept = table.chain_run
        assert kept.assignment == list(matching.assignment)
        # reversed, the optimum admits a blocking chain: no settled run
        reversed_ = np.array(matching.assignment[::-1])
        assert not transferable._chain_distances(table, reversed_, 120)[1]
        assert table.chain_run is kept
        passes = counted_passes(monkeypatch)
        dual_cuts(table, matching)
        assert passes == []


class TestVerifyFtCore:
    def test_boxed_dual_cuts_pass(self, swap2):
        cuts = dual_cuts(BOXED_THETA, swap2)
        assert verify_ft_core(BOXED_THETA, swap2, cuts)

    def test_boxed_identity_fails_any_tight_cuts(self, identity2):
        # matched sums total 4, but the cross pair needs 5
        for u0 in (0.0, 1.0, 2.0):
            cuts = CutVector((u0, 1.0), (2.0 - u0, 1.0))
            assert not verify_ft_core(BOXED_THETA, identity2, cuts)

    def test_zero_matrix_zero_cuts(self):
        theta = ((0.0, 0.0), (0.0, 0.0))
        cuts = CutVector((0.0, 0.0), (0.0, 0.0))
        for assignment in ((0, 1), (1, 0)):
            assert verify_ft_core(theta, Matching(assignment), cuts)


class TestOneValidation:
    def test_pooled_table_is_validated_once(self, monkeypatch):
        inner = instances._coerce_row
        names = []

        def counted(entries, name, r=None):
            names.append(name)
            return inner(entries, name, r)

        theta = combined_rewards(random_instance(6, 3))
        monkeypatch.setattr(instances, "_coerce_row", counted)
        matching, _ = optimal_assignment(theta)
        cuts = dual_cuts(theta, matching)
        assert verify_ft_core(theta, matching, cuts)
        assert names == ["u", "v"]  # the cut vector dual_cuts builds, no table row
        assert "rows" not in vars(theta)  # nor are the pooled table's tuple rows built
        # a plain table is checked in full, with the same message as before
        plain = [list(row) for row in theta]
        names.clear()
        assert optimal_assignment(plain) == (matching, optimal_assignment(theta)[1])
        assert names == ["theta"] * 6
        plain[0][1] = True
        with pytest.raises(MalformedInputError, match=r"^theta\[0\]\[1\] is not a number$"):
            optimal_assignment(plain)

    def test_dual_cuts_validates_list_rows_once_on_a_blocked_matching(self, monkeypatch):
        names = coerced_rows(monkeypatch)
        theta = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(NotCyclicallyMonotoneError, match=r"^matching admits blocking chain"):
            dual_cuts(theta, Matching((1, 0)))
        assert names == ["theta"] * 2  # not once more for the witness

    def test_bargaining_model_keeps_the_instances_beta(self, monkeypatch):
        ones = ((1.0, 1.0), (1.0, 1.0))
        inst = Instance(2, ones, ones, beta=((1.0, 0.5), (0.25, 1.0)))
        names = coerced_rows(monkeypatch)
        assert BargainingModel("ft_taxed", inst.beta).beta is inst.beta
        assert names == []
        # the range and size refusals read the same on a validated table
        for beta, text in (
            (((0.5, 1.5), (1.0, 1.0)), "beta[0][1]=1.5 must lie in (0, 1]"),
            (((0.5, 5e-324), (1.0, 1.0)), "beta[0][1]=5e-324 is too small: 1/beta overflows"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                BargainingModel("ft_taxed", Instance(2, ones, ones, beta=beta).beta)
        ragged = ((1.0, 1.0), (1.0,))
        with pytest.raises(DimensionMismatchError, match=r"^beta row 1 must have 2 entries, got 1$"):
            BargainingModel("ft_taxed", ragged)
        single = Instance(1, ((0.0,),), ((0.0,),), beta=((1.0,),))
        with pytest.raises(DimensionMismatchError, match=r"^beta is 1x1, instance needs 2x2$"):
            in_feasible_set(BargainingModel("ft_taxed", single.beta), inst, 0, 0, 0.0, 0.0)


class TestCutOptimality:
    def test_dual_cuts_are_optimal(self, swap2):
        cuts = dual_cuts(BOXED_THETA, swap2)
        assert check_optimality_of_cuts(BOXED_THETA, swap2, cuts)

    def test_shifted_cuts_feasible_but_not_optimal(self, swap2):
        base = dual_cuts(BOXED_THETA, swap2)
        shifted = CutVector(tuple(x + 1.0 for x in base.u), base.v)
        assert not check_optimality_of_cuts(BOXED_THETA, swap2, shifted)

    def test_infeasible_cuts_rejected(self, swap2):
        bad = CutVector((0.0, 0.0), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            check_optimality_of_cuts(BOXED_THETA, swap2, bad)

    def test_single_couple(self):
        theta = ((3.0,),)
        matching = Matching((0,))
        assert check_optimality_of_cuts(theta, matching, dual_cuts(theta, matching))

    def test_overflowing_totals_compared_exactly(self, identity2):
        # Both totals overflow to inf; in floats their difference is nan.
        theta = ((1e308, 0.0), (0.0, 1e308))
        cuts = dual_cuts(theta, identity2)
        assert verify_ft_core(theta, identity2, cuts)
        assert check_optimality_of_cuts(theta, identity2, cuts) is True
        loose = CutVector((1e308, 1e308), (0.0, 0.0))
        assert check_optimality_of_cuts(((1.0, 0.0), (0.0, 1.0)), identity2, loose) is False


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_maximizers_monotone_and_supported(self, seed):
        inst = corpus_instance(seed, 5, tag=26)
        theta = combined_rewards(inst)
        n = inst.n
        totals = {
            perm: sum(theta[i][perm[i]] for i in range(n))
            for perm in permutations(range(n))
        }
        best = max(totals.values())
        maximizers = {perm for perm, t in totals.items() if t >= best - EPS}
        monotone = set()
        supported = set()
        for perm in totals:
            matching = Matching(perm)
            if is_cyclically_monotone(theta, matching) is True:
                monotone.add(perm)
                cuts = dual_cuts(theta, matching)
                if verify_ft_core(theta, matching, cuts):
                    supported.add(perm)
        assert maximizers == monotone == supported

    @pytest.mark.parametrize("seed", range(15))
    def test_core_verified_implies_monotone(self, seed):
        inst = corpus_instance(seed, 4, tag=27)
        theta = combined_rewards(inst)
        matching, _ = optimal_assignment(theta)
        cuts = dual_cuts(theta, matching)
        assert verify_ft_core(theta, matching, cuts)
        assert is_cyclically_monotone(theta, matching) is True

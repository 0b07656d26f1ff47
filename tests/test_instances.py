import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import (
    BargainingModel,
    CutVector,
    DimensionMismatchError,
    DomainError,
    Instance,
    IntegerRange,
    InvalidMatchingError,
    MalformedInputError,
    Matching,
    MatchkitError,
    NonFiniteEntryError,
    PQParams,
    PreferenceProfile,
    SizeLimitError,
    SplitMix64,
    Uniform01,
    canonical_fnt_cuts,
    chain_potentials,
    check_assumption,
    check_optimality_of_cuts,
    check_pq_monotonicity,
    clip_p,
    combined_rewards,
    counterexample_instance,
    delta_q,
    delta_r,
    dual_cuts,
    find_fnt_blocking_pairs,
    find_pq_blocking_chain,
    gale_shapley,
    in_feasible_set,
    is_cyclically_monotone,
    mixed_instance_stream,
    optimal_assignment,
    parse_instance,
    parse_matching,
    pq_plane_sweep,
    preference_orders,
    random_instance,
    resolve_eps,
    search_core,
    serialize_instance,
    serialize_matching,
    verify_core_point,
    verify_ft_core,
)
from matchkit.cycles import best_cycle_bruteforce

from conftest import BOXED_THETA_M, BOXED_THETA_W, ranking_corpus


def reference_preference_orders(inst):
    """Reference: the per-list sorted-key ranking the numpy argsort
    replaced."""
    n = inst.n
    has_ties = False
    men = []
    for i in range(n):
        row = inst.theta_m[i]
        order = sorted(range(n), key=lambda j: (-row[j], j))
        if len(set(row)) != n:
            has_ties = True
        men.append(tuple(order))
    women = []
    for j in range(n):
        col = tuple(inst.theta_w[i][j] for i in range(n))
        order = sorted(range(n), key=lambda i: (-col[i], i))
        if len(set(col)) != n:
            has_ties = True
        women.append(tuple(order))
    return PreferenceProfile(tuple(men), tuple(women), has_ties)


class TestCombinedRewards:
    def test_boxed_example(self, boxed):
        assert combined_rewards(boxed) == ((2.0, 5.0), (0.0, 2.0))

    def test_zero_matrices(self):
        inst = Instance(2, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
        assert combined_rewards(inst) == ((0.0, 0.0), (0.0, 0.0))

    def test_one_by_one(self):
        inst = Instance(1, ((3,),), ((-1,),))
        assert combined_rewards(inst) == ((2.0,),)

    def test_symmetric_in_summands(self, boxed):
        swapped = Instance(2, boxed.theta_w, boxed.theta_m)
        assert combined_rewards(boxed) == combined_rewards(swapped)


class TestPreferenceOrders:
    def test_boxed_men_rows(self, boxed):
        prefs = preference_orders(boxed)
        assert prefs.men[0] == (0, 1)  # theta_m row (1, 0): woman 0 first
        assert prefs.men[1] == (1, 0)
        assert not prefs.has_ties

    def test_women_column_sorted_descending(self):
        # woman 0 earns (0, 5) from the two men: man 1 ranks first
        inst = Instance(2, ((1, 0), (0, 1)), ((0, 1), (5, 2)))
        prefs = preference_orders(inst)
        assert prefs.women[0] == (1, 0)

    def test_all_equal_row_ties_flagged(self):
        inst = Instance(3, ((2, 2, 2), (3, 2, 1), (1, 2, 3)), ((1, 2, 3), (3, 2, 1), (2, 3, 1)))
        prefs = preference_orders(inst)
        assert prefs.men[0] == (0, 1, 2)
        assert prefs.has_ties

    def test_matches_sorted_key_reference(self):
        for inst in ranking_corpus():
            prefs = preference_orders(inst)
            expected = reference_preference_orders(inst)
            assert prefs.men == expected.men
            assert prefs.women == expected.women
            assert prefs.has_ties == expected.has_ties

    @settings(max_examples=30)
    @given(st.integers(0, 2**32), st.integers(1, 6))
    def test_rows_are_permutations(self, seed, n):
        inst = random_instance(n, seed)
        prefs = preference_orders(inst)
        for row in prefs.men + prefs.women:
            assert sorted(row) == list(range(n))


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(2, 42)
        b = random_instance(2, 42)
        assert a == b

    def test_golden_values_frozen(self):
        # pinned output of the documented generator; must never drift
        inst = random_instance(2, 42, IntegerRange(0, 9))
        assert inst.theta_m == ((3.0, 1.0), (8.0, 4.0))
        assert inst.theta_w == ((0.0, 2.0), (5.0, 8.0))

    def test_splitmix_reference_vector(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_integer_range_containment(self):
        inst = random_instance(3, 7, IntegerRange(0, 9))
        for row in inst.theta_m + inst.theta_w:
            assert all(0 <= x <= 9 and x == int(x) for x in row)

    def test_uniform_valid_instance(self):
        inst = random_instance(5, 1, Uniform01())
        assert inst.n == 5
        assert all(0.0 <= x < 1.0 for row in inst.theta_m + inst.theta_w for x in row)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            random_instance(0, 1)


class TestSerialization:
    def test_parse_boxed_json(self):
        text = json.dumps({
            "n": 2,
            "theta_m": [[1, 0], [0, 1]],
            "theta_w": [[1, 5], [0, 1]],
        })
        inst = parse_instance(text)
        assert inst.theta_m[0][1] == 0.0
        assert inst.theta_w[0][1] == 5.0

    def test_round_trip(self, boxed):
        again = parse_instance(serialize_instance(boxed))
        assert again == boxed

    def test_round_trip_with_beta(self):
        inst = Instance(2, BOXED_THETA_M, BOXED_THETA_W, beta=((0.5, 1.0), (1.0, 0.25)))
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_serialize_parse_normalizes(self, boxed):
        text = serialize_instance(boxed)
        assert json.loads(text) == json.loads(serialize_instance(parse_instance(text)))

    def test_rejects_non_square(self):
        text = json.dumps({"n": 2, "theta_m": [[1, 0, 3], [0, 1, 4]], "theta_w": [[1, 5], [0, 1]]})
        with pytest.raises(DimensionMismatchError):
            parse_instance(text)

    def test_rejects_malformed_json(self):
        with pytest.raises(MalformedInputError):
            parse_instance("{not json")
        deep = "[" * 100_000
        for parse, text in ((parse_instance, deep), (parse_matching, '{"assignment": ' + deep + "}")):
            with pytest.raises(MalformedInputError, match="^not valid JSON: nested too deeply$"):
                parse(text)

    def test_rejects_missing_keys(self):
        with pytest.raises(MalformedInputError):
            parse_instance(json.dumps({"n": 1, "theta_m": [[1]]}))

    def test_rejects_non_finite(self):
        text = '{"n": 1, "theta_m": [[NaN]], "theta_w": [[1]]}'
        with pytest.raises(NonFiniteEntryError):
            parse_instance(text)

    def test_rejects_string_entries(self):
        text = json.dumps({"n": 1, "theta_m": [["x"]], "theta_w": [[1]]})
        with pytest.raises(MalformedInputError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ("true", MalformedInputError, "theta_m[1][0] is not a number"),
            ('"x"', MalformedInputError, "theta_m[1][0] is not a number"),
            ("-Infinity", NonFiniteEntryError, "theta_m[1][0] is not finite"),
            ("1" + "0" * 400, NonFiniteEntryError, "theta_m[1][0] is not finite"),
            # a whole row, whose sum is nan
            ("[Infinity, -Infinity]", NonFiniteEntryError, "theta_m[1][0] is not finite"),
        ],
    )
    def test_bad_entry_is_named(self, entry, error, message):
        row = entry if entry.startswith("[") else "[" + entry + ", 3]"
        text = '{"n": 2, "theta_m": [[1, 2], ' + row + '], "theta_w": [[0, 0], [0, 0]]}'
        with pytest.raises(error) as info:
            parse_instance(text)
        assert str(info.value) == message

    def test_number_subclasses_coerce_to_float(self):
        class Tagged(float):
            pass

        inst = Instance(2, ((Tagged(1.5), 2), (0, 10**20)), BOXED_THETA_W)
        assert inst.theta_m == ((1.5, 2.0), (0.0, 1e20))
        assert all(type(x) is float for row in inst.theta_m for x in row)
        # finite entries whose sum overflows are kept unchanged
        text = '{"n": 2, "theta_m": [[1.7e308, 1.7e308], [0, 1]], "theta_w": [[0, 0], [0, 0]]}'
        assert parse_instance(text).theta_m == ((1.7e308, 1.7e308), (0.0, 1.0))
        # a tuple row comes back with equal values
        inst = Instance(2, ((0.5, -2.0), [1, 2.5]), BOXED_THETA_W)
        assert inst.theta_m == ((0.5, -2.0), (1.0, 2.5))

    @pytest.mark.parametrize(
        "row",
        [(0.25, 3.0), (math.nan, 1.0), (1.0, -math.inf), (1.7e308, 1.7e308)],
        ids=["finite", "nan", "inf", "overflowing sum"],
    )
    def test_float64_array_rows_equal_list_and_tuple_rows(self, row):
        def outcome(call, table):
            try:
                return call(table)
            except MatchkitError as exc:
                return type(exc), str(exc)

        table = ((1.0, 2.0), row)
        forms = (np.array(table), [list(r) for r in table], table)
        for call in (lambda t: Instance(2, t, t), optimal_assignment):
            got = [outcome(call, form) for form in forms]
            assert got[0] == got[1] == got[2]
        # integer arrays are not taken as numbers
        with pytest.raises(MalformedInputError, match=r"^theta_m\[0\]\[0\] is not a number$"):
            Instance(2, np.array(((1, 2), (3, 4))), TWO_ZERO_ROWS)

    def test_matching_round_trip(self):
        m = Matching((2, 0, 1))
        assert parse_matching(serialize_matching(m)) == m

    def test_matching_rejects_non_permutation(self):
        with pytest.raises(InvalidMatchingError):
            parse_matching('{"assignment": [0, 0]}')


class TestDomainTypes:
    def test_matching_inverse(self):
        m = Matching((2, 0, 1))
        assert m.man_of(2) == 0
        assert m.woman_of(1) == 0
        assert m.inverse == (1, 2, 0)

    def test_matching_admits_numpy_integers(self):
        m = Matching(np.array([1, 0]))
        assert m == Matching((1, 0)) and m.inverse == (1, 0)
        assert all(type(j) is int for j in m.assignment)
        assert Matching((np.int32(0), np.uint8(1))).assignment == (0, 1)

    def test_integer_range_bounds_become_python_ints(self):
        dist = IntegerRange(np.int64(-1), np.int8(1))
        assert (type(dist.lo), type(dist.hi)) == (int, int)
        assert random_instance(4, 3, dist) == random_instance(4, 3, IntegerRange(-1, 1))

    def test_matching_out_of_range(self):
        with pytest.raises(InvalidMatchingError):
            Matching((0, 3))

    def test_pq_params_domain(self):
        PQParams(0.0, 1.0)
        with pytest.raises(DomainError):
            PQParams(-0.1, 0.5)
        with pytest.raises(DomainError):
            PQParams(0.5, 1.5)

    def test_cut_vector_rejects_nan(self):
        with pytest.raises(NonFiniteEntryError):
            CutVector((0.0, math.nan), (0.0, 0.0))

    def test_cut_vector_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            CutVector((0.0,), (0.0, 1.0))

    def test_instance_requires_square(self):
        with pytest.raises(DimensionMismatchError):
            Instance(2, ((1, 0),), ((1, 5), (0, 1)))

    def test_mirrored_transposes_sides(self, boxed):
        mirror = boxed.mirrored()
        assert mirror.theta_m == tuple(zip(*boxed.theta_w))
        assert mirror.theta_w == tuple(zip(*boxed.theta_m))
        assert mirror.beta is None
        assert mirror.mirrored() == Instance(2, boxed.theta_m, boxed.theta_w)
        taxed = Instance(2, boxed.theta_m, boxed.theta_w, ((0.5, 0.6), (0.7, 0.8)))
        assert taxed.mirrored().beta == ((0.5, 0.7), (0.6, 0.8))
        assert taxed.mirrored().mirrored() == taxed

    @given(st.integers(0, 2**32))
    @settings(max_examples=20)
    def test_combined_rewards_swap_invariance(self, seed):
        inst = random_instance(3, seed)
        swapped = Instance(3, inst.theta_w, inst.theta_m)
        assert combined_rewards(inst) == combined_rewards(swapped)


# Every engine that takes a matching, as f(inst, matching, cuts).
MATCHING_ENGINES = {
    "is_cyclically_monotone": lambda inst, m, c: is_cyclically_monotone(combined_rewards(inst), m),
    "chain_potentials": lambda inst, m, c: chain_potentials(combined_rewards(inst), m),
    "dual_cuts": lambda inst, m, c: dual_cuts(combined_rewards(inst), m),
    "verify_ft_core": lambda inst, m, c: verify_ft_core(combined_rewards(inst), m, c),
    "check_optimality_of_cuts": lambda inst, m, c: check_optimality_of_cuts(
        combined_rewards(inst), m, c
    ),
    "find_fnt_blocking_pairs": lambda inst, m, c: find_fnt_blocking_pairs(inst, m),
    "delta_q": lambda inst, m, c: delta_q(inst, m, 0, 1, 0.5),
    "find_pq_blocking_chain": lambda inst, m, c: find_pq_blocking_chain(
        inst, m, PQParams(0.5, 0.5)
    ),
    "check_pq_monotonicity": lambda inst, m, c: check_pq_monotonicity(inst, m, 3),
    "verify_core_point": lambda inst, m, c: verify_core_point(BargainingModel("ft"), inst, m, c),
    "canonical_fnt_cuts": lambda inst, m, c: canonical_fnt_cuts(inst, m),
    "search_core": lambda inst, m, c: search_core(BargainingModel("ft"), inst, m),
}
CUT_ENGINES = ("verify_ft_core", "check_optimality_of_cuts", "verify_core_point")

# Every guarded sharing level, as (its name, f(value)).
BOXED = Instance(2, BOXED_THETA_M, BOXED_THETA_W)
LEVEL_GUARDS = {
    "clip_p": ("p", lambda x: clip_p(-1.0, x)),
    "delta_q": ("q", lambda x: delta_q(BOXED, Matching((0, 1)), 0, 1, x)),
    "delta_r": ("r", lambda x: delta_r(1.0, 2.0, x)),
    "PQParams.p": ("p", lambda x: PQParams(x, 0.5)),
    "PQParams.q": ("q", lambda x: PQParams(0.5, x)),
    "counterexample_instance.p": ("p", lambda x: counterexample_instance(x, 1.0)),
    "counterexample_instance.q": ("q", lambda x: counterexample_instance(0.0, x)),
}


def eps_from_env(value):
    with mock.patch.dict(os.environ, {"MATCHKIT_EPS": value}):
        return resolve_eps()


# Input refusals, as (call, error class, error text).
TWO_ZERO_ROWS = ((0, 0), (0, 0))
REFUSALS = {
    "Instance rows not iterable": (
        lambda: Instance(2, 5, TWO_ZERO_ROWS), MalformedInputError, "theta_m must be a list of rows"
    ),
    "Instance row not iterable": (
        lambda: Instance(2, (5, (0, 0)), TWO_ZERO_ROWS),
        MalformedInputError,
        "theta_m row 0 must be a list",
    ),
    "Instance n=0": (lambda: Instance(0, (), ()), DomainError, "n must be >= 1, got 0"),
    "Matching(5)": (
        lambda: Matching(5), MalformedInputError, "assignment must be a sequence of integers"
    ),
    "Matching([])": (lambda: Matching([]), InvalidMatchingError, "assignment must not be empty"),
    "Matching([0.5])": (
        lambda: Matching([0.5]), MalformedInputError, "assignment[0] is not an integer"
    ),
    "Matching([0, '1'])": (
        lambda: Matching([0, "1"]), MalformedInputError, "assignment[1] is not an integer"
    ),
    "Matching([True, 0])": (
        lambda: Matching([True, 0]), MalformedInputError, "assignment[0] is not an integer"
    ),
    "Matching(float64 array)": (
        lambda: Matching(np.array([1.0, 0.0])),
        MalformedInputError,
        "assignment[0] is not an integer",
    ),
    "optimal_assignment([])": (
        lambda: optimal_assignment([]), DimensionMismatchError, "theta must not be empty"
    ),
    "optimal_assignment(())": (
        lambda: optimal_assignment(()), DimensionMismatchError, "theta must not be empty"
    ),
    "dual_cuts on []": (
        lambda: dual_cuts([], Matching((0,))), DimensionMismatchError, "theta must not be empty"
    ),
    "CutVector empty": (
        lambda: CutVector((), ()), DimensionMismatchError, "cut vectors must not be empty"
    ),
    "CutVector str entry": (
        lambda: CutVector(("1.5",), (0.0,)), MalformedInputError, "u[0] is not a number"
    ),
    "CutVector bool entry": (
        lambda: CutVector((True,), (0.0,)), MalformedInputError, "u[0] is not a number"
    ),
    "CutVector None": (
        lambda: CutVector(None, (0.0,)),
        MalformedInputError,
        "cut vectors must be sequences of numbers",
    ),
    "CutVector int beyond float": (
        lambda: CutVector((10**400,), (0.0,)), NonFiniteEntryError, "u[0] is not finite"
    ),
    "pq_plane_sweep grid_steps=2.5": (
        lambda: pq_plane_sweep(mixed_instance_stream(3, 1), 2.5, 1),
        MalformedInputError,
        "grid_steps must be an integer",
    ),
    "pq_plane_sweep trials=1.5": (
        lambda: pq_plane_sweep(mixed_instance_stream(3, 1), 2, 1.5),
        MalformedInputError,
        "trials must be an integer",
    ),
    "check_pq_monotonicity grid_steps=2.5": (
        lambda: check_pq_monotonicity(BOXED, Matching((0, 1)), 2.5),
        MalformedInputError,
        "grid_steps must be an integer",
    ),
    "check_assumption samples=1.5": (
        lambda: check_assumption(BargainingModel("ft"), BOXED, 1.5, 1),
        MalformedInputError,
        "samples must be an integer",
    ),
    "random_instance n=2.5": (
        lambda: random_instance(2.5, 1), MalformedInputError, "n must be an integer"
    ),
    "random_instance seed=1.5": (
        lambda: random_instance(2, 1.5), MalformedInputError, "seed must be an integer"
    ),
    "random_instance seed=True": (
        lambda: random_instance(2, True), MalformedInputError, "seed must be an integer"
    ),
    "check_assumption seed=1.5": (
        lambda: check_assumption(BargainingModel("ft"), BOXED, 3, 1.5),
        MalformedInputError,
        "seed must be an integer",
    ),
    "mixed_instance_stream seed=1.5": (
        lambda: mixed_instance_stream(2, 1.5), MalformedInputError, "seed must be an integer"
    ),
    "parse_instance list": (
        lambda: parse_instance("[]"), MalformedInputError, "instance JSON must be an object"
    ),
    "parse_matching no key": (
        lambda: parse_matching('{"x": [0]}'),
        MalformedInputError,
        'matching JSON must be an object with key "assignment"',
    ),
    "parse_matching not a list": (
        lambda: parse_matching('{"assignment": 3}'),
        MalformedInputError,
        "assignment must be a list of integers",
    ),
    "in_feasible_set pair (5, 0)": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 5, 0, 0.0, 0.0),
        DomainError,
        "pair (5, 0) out of range for n=2",
    ),
    "ft_taxed 3x3 beta on n=2": (
        lambda: in_feasible_set(
            BargainingModel("ft_taxed", ((0.5,) * 3,) * 3), BOXED, 0, 0, 0.0, 0.0
        ),
        DimensionMismatchError,
        "beta is 3x3, instance needs 2x2",
    ),
    "check_assumption samples=0": (
        lambda: check_assumption(BargainingModel("ft"), BOXED, 0, 1),
        DomainError,
        "samples must be >= 1, got 0",
    ),
    "pq_plane_sweep trials=0": (
        lambda: pq_plane_sweep(mixed_instance_stream(3, 1), 3, 0),
        DomainError,
        "trials must be >= 1, got 0",
    ),
    "mixed_instance_stream n=0": (
        lambda: mixed_instance_stream(0, 1), DomainError, "stream size must be >= 1, got 0"
    ),
    "check_pq_monotonicity grid_steps=1": (
        lambda: check_pq_monotonicity(BOXED, Matching((0, 1)), 1),
        DomainError,
        "grid_steps must be >= 2, got 1",
    ),
    "gale_shapley proposer x": (
        lambda: gale_shapley(BOXED, proposer="x"),
        DomainError,
        "proposer must be \"men\" or \"women\", got 'x'",
    ),
    "randint empty range": (
        lambda: SplitMix64(1).randint(3, 2), DomainError, "empty integer range [3, 2]"
    ),
    "IntegerRange empty": (lambda: IntegerRange(3, 2), DomainError, "empty integer range [3, 2]"),
    "IntegerRange lo=0.5": (
        lambda: IntegerRange(0.5, 3), MalformedInputError, "lo must be an integer"
    ),
    "IntegerRange hi='3'": (
        lambda: IntegerRange(0, "3"), MalformedInputError, "hi must be an integer"
    ),
    "random_instance n=2001": (
        lambda: random_instance(2001, 1),
        SizeLimitError,
        "instance generation limited to n <= 2000, got 2001",
    ),
    "best_cycle_bruteforce n=11": (
        lambda: best_cycle_bruteforce([[0.0] * 11] * 11, 1e-9),
        SizeLimitError,
        "cycle enumeration limited to n <= 10, got 11",
    ),
    "MATCHKIT_EPS=-1": (
        lambda: eps_from_env("-1"), DomainError, "MATCHKIT_EPS must be a finite non-negative number"
    ),
    "MATCHKIT_EPS=inf": (
        lambda: eps_from_env("inf"),
        DomainError,
        "MATCHKIT_EPS must be a finite non-negative number",
    ),
}


class TestGuards:
    @pytest.mark.parametrize("engine", sorted(MATCHING_ENGINES))
    def test_wrong_size_matching(self, engine, boxed):
        cuts = CutVector((0.0, 0.0), (0.0, 0.0))
        with pytest.raises(
            DimensionMismatchError, match=r"^matching size 3 does not fit instance size 2$"
        ):
            MATCHING_ENGINES[engine](boxed, Matching((0, 2, 1)), cuts)

    @pytest.mark.parametrize("engine", CUT_ENGINES)
    def test_wrong_size_cuts(self, engine, boxed, identity2):
        cuts = CutVector((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(
            DimensionMismatchError, match=r"^cut vector size 3 does not fit instance size 2$"
        ):
            MATCHING_ENGINES[engine](boxed, identity2, cuts)

    @pytest.mark.parametrize("value", [math.nan, -0.1, 1.5, True], ids=repr)
    @pytest.mark.parametrize("guard", sorted(LEVEL_GUARDS))
    def test_sharing_level_outside_unit_interval(self, guard, value):
        name, call = LEVEL_GUARDS[guard]
        text = f"{name} must lie in [0, 1], got {value}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            call(value)

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refused_with_named_error(self, case):
        call, error, text = REFUSALS[case]
        assert issubclass(error, MatchkitError)
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == text

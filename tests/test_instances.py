import ast
import json
import math
import os
import pickle
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from itertools import permutations
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchkit
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
    PreconditionError,
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
    derive_seed,
    dual_cuts,
    enumerate_fnt_stable,
    exists_pq_stable,
    find_fnt_blocking_pairs,
    find_pq_blocking_chain,
    gale_shapley,
    in_feasible_set,
    in_interior,
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
    verify_men_optimality,
)
from matchkit.cycles import best_cycle_bruteforce
from matchkit.instances import (
    _ArrayTable, _coerce_matrix, _instance_from, _lex_search, _load_json, _matching_from,
    _shallow_utf8, _Table,
)
from matchkit.tolerance import _check_tolerance

from conftest import BOXED_THETA_M, BOXED_THETA_W, coerced_rows, ranking_corpus
from oracles import scalar_random_instance


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


def python_pooling(inst):
    """The pooled table by Python float adds, entry by entry."""
    return tuple(
        tuple(tm + tw for tm, tw in zip(row_m, row_w))
        for row_m, row_w in zip(inst.theta_m, inst.theta_w)
    )


# Sums that round, cancel, underflow or overflow.
POOLING_EDGES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7e308,
    -1.7e308, 1e308, -1e308, 0.1, 0.2,
)


def pooling_table(n):
    entry = st.one_of(st.sampled_from(POOLING_EDGES), st.floats(allow_nan=False, allow_infinity=False))
    return st.tuples(*[st.tuples(*[entry] * n)] * n)


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

    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(pooling_table(n), pooling_table(n))))
    def test_bit_identical_to_python_pooling(self, sides):
        inst = Instance(len(sides[0]), *sides)
        pooled = combined_rewards(inst)
        expected = python_pooling(inst)
        assert repr(pooled) == repr(expected)
        if all(map(math.isfinite, sum(expected, ()))):
            arr = pooled.array
            assert type(pooled) is _ArrayTable and pooled.array is arr
            assert arr.tobytes() == np.array(expected).tobytes()
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        else:
            assert type(pooled) is tuple
            r, c = next((r, c) for r, row in enumerate(expected) for c, x in enumerate(row)
                        if not math.isfinite(x))
            with pytest.raises(NonFiniteEntryError, match=rf"^theta\[{r}\]\[{c}\] is not finite$"):
                optimal_assignment(pooled)

    def test_signed_zeros_subnormals_and_the_float_limit(self):
        cases = (
            (-0.0, -0.0, "-0.0"),
            (0.0, -0.0, "0.0"),
            (5e-324, -0.0, "5e-324"),
            (5e-324, 5e-324, "1e-323"),
            (2.2250738585072014e-308, -5e-324, "2.225073858507201e-308"),
            (1.7e308, -1.7e308, "0.0"),
        )
        for tm, tw, text in cases:
            pooled = combined_rewards(Instance(1, ((tm,),), ((tw,),)))
            assert type(pooled) is _ArrayTable and repr(pooled[0][0]) == text
            assert repr(pooled.array[0, 0].item()) == text
        pooled = combined_rewards(Instance(1, ((1e308,),), ((1e308,),)))
        assert type(pooled) is tuple and pooled == ((math.inf,),)


# Entries at the edges of what a validated table holds.
TABLE_EDGES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7e308, 2**53 + 1,
    -(2**70), 0, 1, -1,
)
table_entry = st.one_of(
    st.sampled_from(TABLE_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
)


@st.composite
def square_rows(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(table_entry, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


class TestTable:
    @settings(max_examples=200)
    @given(square_rows())
    def test_array_bit_equals_numpy_conversion(self, rows):
        arr = _coerce_matrix(rows, len(rows), "theta").array
        expected = np.array(rows, dtype=float)
        assert arr.dtype == expected.dtype and arr.shape == expected.shape
        assert arr.tobytes() == expected.tobytes()

    def test_array_is_lazy_read_only_and_kept(self):
        table = _coerce_matrix([[1, 2], [3, 4]], 2, "theta")
        assert "array" not in vars(table)
        arr = table.array
        assert table.array is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
        assert table == ((1.0, 2.0), (3.0, 4.0)) and arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_validated_table_is_returned_as_it_is(self):
        table = _coerce_matrix([[1, 2], [3, 4]], 2, "theta")
        assert _coerce_matrix(table, 2, "theta_m") is table
        assert Instance(2, table, table).theta_w is table
        with pytest.raises(DimensionMismatchError, match=r"^theta must have 3 rows, got 2$"):
            _coerce_matrix(table, 3, "theta")

    def test_tables_keep_tuple_equality_hash_repr_and_pickle(self):
        inst = Instance(2, ((1, 2), (3, 4)), ((0.5, -0.0), (5e-324, 1e308)), ((0.5, 1), (1, 0.25)))
        pooled = combined_rewards(inst)
        for table in (inst.theta_m, inst.theta_w, inst.beta, pooled):
            assert type(table) is (_ArrayTable if table is pooled else _Table)
            table.array  # a built array shows in none of these
            plain = tuple(map(tuple, table))
            assert table == plain and plain == table
            assert hash(table) == hash(plain) and repr(table) == repr(plain)
            again = pickle.loads(pickle.dumps(table))
            assert again == table and type(again) is _Table and "array" not in vars(again)
            assert b"numpy" not in pickle.dumps(table)
        same = Instance(2, ((1.0, 2.0), (3.0, 4.0)), inst.theta_w, inst.beta)
        assert inst == same and hash(inst) == hash(same)
        assert repr(inst).startswith("Instance(n=2, theta_m=((1.0, 2.0), (3.0, 4.0)), theta_w=")
        again = pickle.loads(pickle.dumps(inst))
        assert again == inst and hash(again) == hash(inst) and repr(again) == repr(inst)
        assert again.theta_m.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_overflowing_pooled_table_stays_plain(self):
        big = ((1e308, 1e308), (1e308, 1e308))
        pooled = combined_rewards(Instance(2, big, big))
        assert type(pooled) is tuple and pooled[0][0] == math.inf
        with pytest.raises(NonFiniteEntryError, match=r"^theta\[0\]\[0\] is not finite$"):
            optimal_assignment(pooled)
        # finite sums whose row total overflows are validated
        edge = ((1.7e308, 1.7e308), (0, 0))
        assert type(combined_rewards(Instance(2, edge, TWO_ZERO_ROWS))) is _ArrayTable


# Float-range edges, and ints that numpy converts to float inside float rows.
ARRAY_FIRST_EDGES = (
    -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2**53 + 1, 2**63,
    2**64 - 1, -(2**63) - 1,
)
array_first_entry = st.one_of(
    st.sampled_from(ARRAY_FIRST_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**64) + 1, 2**64 - 1),
)


@st.composite
def array_first_tables(draw):
    """n in 9..16 and two n-by-n lists, each with a float first entry."""
    n = draw(st.integers(9, 16))
    tables = []
    for _ in range(2):
        row = st.lists(array_first_entry, min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=n, max_size=n))
        rows[0][0] = draw(st.floats(allow_nan=False, allow_infinity=False))
        tables.append(rows)
    return n, *tables


class TestArrayFirstTables:
    """Parsed tables of more than 8 rows, and every finite pooled table,
    hold a float64 array first and build tuple rows only when read."""

    @settings(max_examples=60, deadline=None)
    @given(array_first_tables())
    def test_equal_to_the_tuple_table_of_the_same_lists(self, drawn):
        n, tm, tw = drawn
        text = json.dumps({"n": n, "theta_m": tm, "theta_w": tw})
        fast = parse_instance(text)
        data = orjson.loads(text)
        slow = Instance(n, data["theta_m"], data["theta_w"])  # the tuple path
        for a, b in ((fast.theta_m, slow.theta_m), (fast.theta_w, slow.theta_w)):
            assert type(a) is _ArrayTable and type(b) is _Table and "rows" not in vars(a)
            assert a.array.tobytes() == b.array.tobytes() and not a.array.flags.writeable
            assert repr(a) == repr(b) and a == b and b == a and not a != b and not b != a
            assert hash(a) == hash(b) and len(a) == n and tuple(a) == b and a[3] == b[3]
            assert pickle.dumps(a) == pickle.dumps(b)
            again = pickle.loads(pickle.dumps(a))
            assert type(again) is _Table and again == a and repr(again) == repr(b)
        assert fast == slow and slow == fast and hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)

    def test_numpy_reads_ints_in_float_rows_as_float(self):
        rng = random.Random(30)
        read = 0
        for _ in range(50_000):
            k = rng.getrandbits(rng.randint(1, 64)) * rng.choice((1, -1))
            arr = np.array([[k, 0.5]])
            if arr.dtype == np.float64:
                read += 1
                assert arr[0, 0].item() == float(k), k
        assert read > 45_000

    def test_size_and_literals_decide_the_form(self):
        for n in (8, 9):
            inst = parse_instance(serialize_instance(random_instance(n, 3)))
            assert type(inst.theta_m) is (_Table if n == 8 else _ArrayTable)
        inst = parse_instance(text12())
        assert all(type(t) is _ArrayTable for t in (inst.theta_m, inst.theta_w))
        assert inst.theta_m == ((0.5,) * 12,) * 12
        # an int table is no float64 array; a literal outside the tables makes
        # the whole text take the tuple path, which still parses it
        ints = parse_instance(text12(table_text(12, "1")))
        assert type(ints.theta_m) is _Table and type(ints.theta_w) is _ArrayTable
        flagged = parse_instance(text12(extra=', "flag": true'))
        assert type(flagged.theta_m) is _Table and flagged == inst
        named = parse_instance(text12(extra=', "name": "twelve"'))  # a string value
        assert type(named.theta_m) is _Table and named == inst
        twice = parse_instance(text12(extra=', "n": 12'))  # a repeated key
        assert type(twice.theta_m) is _Table and twice == inst
        beta = parse_instance(text12(extra=', "beta": ' + table_text(12)))
        assert type(beta.beta) is _ArrayTable and beta.beta == inst.theta_m

    def test_parsing_a_float_text_checks_no_row(self, monkeypatch):
        text = serialize_instance(random_instance(50, 3))
        names = coerced_rows(monkeypatch)
        inst = parse_instance(text)
        assert names == [] and type(inst.theta_m) is _ArrayTable
        assert inst == random_instance(50, 3)

    def test_ft_pipeline_builds_no_tuple_rows(self):
        inst = parse_instance(serialize_instance(random_instance(50, 3)))
        theta = combined_rewards(inst)
        matching, _ = optimal_assignment(theta)
        cuts = dual_cuts(theta, matching)
        assert verify_ft_core(theta, matching, cuts)
        for table in (theta, inst.theta_m, inst.theta_w):
            assert type(table) is _ArrayTable and "rows" not in vars(table)
        assert theta == python_pooling(inst)  # read, the rows are built
        assert "rows" in vars(theta)


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

    @pytest.mark.parametrize("dist", [Uniform01(), IntegerRange(0, 9)], ids=repr)
    def test_block_draws_equal_the_scalar_generator(self, dist):
        for n in (*range(1, 13), 50, 150):
            for seed in (n, -n, 2**64 - n):
                inst = random_instance(n, seed, dist)
                assert repr(inst) == repr(scalar_random_instance(n, seed, dist))
                for table in (inst.theta_m, inst.theta_w):
                    assert type(table) is _Table and not table.array.flags.writeable
                    assert table.array.tobytes() == np.array(table).tobytes()


# Seeds past both ends of the 64-bit range and at its wrap-around.
ANY_SEED = st.one_of(
    st.integers(), st.integers(-(2**70), 2**70), st.integers(2**64 - 2**10, 2**64 + 2**10)
)
DRAW_RANGES = (IntegerRange(-(2**53), 2**53), IntegerRange(5, 5), IntegerRange(-7, 3))
any_distribution = st.one_of(
    st.just(Uniform01()),
    st.sampled_from(DRAW_RANGES),
    st.lists(st.integers(-(2**53), 2**53), min_size=2, max_size=2).map(
        lambda bounds: IntegerRange(min(bounds), max(bounds))
    ),
)


class TestBlockDraws:
    """A block of k draws gives the bits, and leaves the state, of k
    scalar draws."""

    @settings(max_examples=300)
    @given(ANY_SEED, st.integers(0, 300))
    def test_block_equals_scalar_draws(self, seed, k):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        draws = block.next_u64s(k)
        assert draws.dtype == np.uint64 and draws.shape == (k,)
        assert draws.tolist() == [scalar.next_u64() for _ in range(k)]
        assert block._state == scalar._state

    @settings(max_examples=300)
    @given(ANY_SEED, st.integers(0, 300), any_distribution)
    def test_distribution_blocks_equal_sample_lists(self, seed, k, dist):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        values = dist.samples(block, k)
        assert values.dtype == np.float64 and values.shape == (k,)
        assert repr(values.tolist()) == repr([dist.sample(scalar) for _ in range(k)])
        assert block._state == scalar._state


# Floats whose shortest repr takes each of its forms.
SERIAL_EDGES = (
    -0.0, 0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5,
)
serial_entry = st.one_of(
    st.sampled_from(SERIAL_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def serialized_instances(draw):
    n = draw(st.integers(1, 4))
    table = st.lists(st.lists(serial_entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return Instance(n, draw(table), draw(table), draw(st.none() | table))


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
        # integer arrays are taken by their float values, boolean ones are not numbers
        assert Instance(2, np.array(((1, 2), (3, 4))), TWO_ZERO_ROWS).theta_m == ((1, 2), (3, 4))
        with pytest.raises(MalformedInputError, match=r"^theta_m\[0\]\[0\] is not a number$"):
            Instance(2, np.array(((True, False), (False, True))), TWO_ZERO_ROWS)

    @settings(max_examples=300)
    @given(serialized_instances())
    def test_text_is_json_dumps_with_indent_2(self, inst):
        payload = {
            "n": inst.n,
            "theta_m": [list(row) for row in inst.theta_m],
            "theta_w": [list(row) for row in inst.theta_w],
        }
        if inst.beta is not None:
            payload["beta"] = [list(row) for row in inst.beta]
        assert serialize_instance(inst) == json.dumps(payload, indent=2)

    def test_matching_round_trip(self):
        m = Matching((2, 0, 1))
        assert parse_matching(serialize_matching(m)) == m

    def test_matching_rejects_non_permutation(self):
        with pytest.raises(InvalidMatchingError):
            parse_matching('{"assignment": [0, 0]}')


# Values that json and orjson read apart, or that one of them refuses.
DECODE_ATOMS = (
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "18446744073709551616",
    "1" + "0" * 400, '"\\ud800"', '"[["', "true", "null", "[]", "{}",
)


def decode_outcome(parse, text):
    """The value's repr (exact for floats, -0.0 included), or the error's
    class and text."""
    try:
        return repr(parse(text))
    except Exception as exc:
        return type(exc), str(exc)


def fuzz_entry(rng):
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(DECODE_ATOMS)
    if roll < 0.3:
        return str(rng.randint(-5, 5))
    return repr(rng.uniform(-1e3, 1e3))


def fuzz_instance_text(rng):
    n = rng.randint(1, 3)
    fields = {"n": str(n) if rng.random() < 0.85 else rng.choice(DECODE_ATOMS)}
    for name in ("theta_m", "theta_w", "beta"):
        if name == "beta" and rng.random() < 0.7:
            continue
        rows = ["[" + ", ".join(fuzz_entry(rng) for _ in range(n)) + "]" for _ in range(n)]
        if rng.random() < 0.1:
            rows[rng.randrange(n)] = rng.choice(DECODE_ATOMS)
        table = "[" + ", ".join(rows) + "]"
        fields[name] = table if rng.random() < 0.95 else rng.choice(DECODE_ATOMS)
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items())
    if rng.random() < 0.1:  # a second n, which wins
        text += ', "n": ' + rng.choice(DECODE_ATOMS + ("1", "2", "3"))
    return text + "}"


def fuzz_large_instance_text(rng):
    """Float tables of 9 to 12 couples, at times with one entry, row or
    table fuzzed, so the array-first form and each of its fallbacks occur."""
    n = rng.randint(9, 12)
    fields = {"n": str(n) if rng.random() < 0.9 else rng.choice(DECODE_ATOMS + ("12.0",))}
    for name in ("theta_m", "theta_w", "beta"):
        if name == "beta" and rng.random() < 0.7:
            continue
        grid = [
            [repr(rng.uniform(-1e3, 1e3)) if rng.random() < 0.9 else str(rng.randint(-5, 5))
             for _ in range(n)]
            for _ in range(n)
        ]
        roll = rng.random()
        if roll < 0.2:
            grid[rng.randrange(n)][rng.randrange(n)] = rng.choice(DECODE_ATOMS)
        elif roll < 0.25:
            grid[rng.randrange(n)].pop()
        elif roll < 0.3:
            grid.pop()
        rows = ["[" + ", ".join(row) + "]" for row in grid]
        if rng.random() < 0.05:
            rows[rng.randrange(len(rows))] = rng.choice(DECODE_ATOMS)
        table = "[" + ", ".join(rows) + "]"
        fields[name] = table if rng.random() < 0.95 else rng.choice(DECODE_ATOMS)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


def fuzz_matching_text(rng):
    n = rng.randint(1, 4)
    entries = [str(j) for j in rng.sample(range(n), n)]
    if rng.random() < 0.4:
        entries[rng.randrange(n)] = rng.choice(DECODE_ATOMS + (str(n), "-1", "0.0"))
    return '{"assignment": [' + ", ".join(entries) + "]}"


def fuzz_texts(make, count, seed):
    """Seeded texts from ``make``, some truncated, some behind a BOM or
    with an ignored key."""
    rng = random.Random(seed)
    for _ in range(count):
        text = make(rng)
        roll = rng.random()
        if roll < 0.1:
            text = text[: rng.randrange(len(text))]
        elif roll < 0.15:
            text = "\ufeff" + text
        elif roll < 0.25:
            text = text[:-1] + ', "extra": ' + rng.choice(DECODE_ATOMS) + "}"
        yield text


def nested_in_ignored_key(depth):
    return '{"n": 1, "theta_m": [[0]], "theta_w": [[0]], "x": ' + "[" * depth + "]" * depth + "}"


# What each parser returned before orjson: the stdlib value, validated.
# Each calls _load_json from one frame below decode_outcome, as the
# parsers do, so json's nesting limit, which counts stack frames, is the
# same for both.
STDLIB_PARSE = {
    parse_instance: lambda text: _instance_from(_load_json(text)),
    parse_matching: lambda text: _matching_from(_load_json(text)),
}
BUILDS = {parse_instance: _instance_from, parse_matching: lambda data, _: _matching_from(data)}


class TestDecode:
    """orjson decodes behind the depth guard; every outcome, value or
    error, equals the stdlib build's."""

    @pytest.mark.parametrize(
        "parse, make", [(parse_instance, fuzz_instance_text), (parse_matching, fuzz_matching_text)]
    )
    def test_fuzz_corpus_equals_stdlib_build(self, parse, make):
        paths = {"guard": 0, "orjson refused": 0, "build refused": 0, "orjson": 0}
        for text in fuzz_texts(make, 3000, seed=14):
            assert decode_outcome(parse, text) == decode_outcome(STDLIB_PARSE[parse], text), text
            guarded = _shallow_utf8(text)
            if guarded is None:
                paths["guard"] += 1
                continue
            try:
                data = orjson.loads(guarded[0])
            except orjson.JSONDecodeError:
                paths["orjson refused"] += 1
                continue
            try:
                BUILDS[parse](data, guarded[1])
                paths["orjson"] += 1
            except MatchkitError:
                paths["build refused"] += 1
        # the corpus reaches every path of the decoder
        assert min(paths.values()) > 0, paths

    def test_large_fuzz_corpus_equals_stdlib_build(self):
        forms = Counter()
        for text in fuzz_texts(fuzz_large_instance_text, 600, seed=30):
            outcome = decode_outcome(parse_instance, text)
            assert outcome == decode_outcome(STDLIB_PARSE[parse_instance], text), text
            if isinstance(outcome, str):
                forms[type(parse_instance(text).theta_m)] += 1
            else:
                forms[outcome[0]] += 1
        # both forms parse, and texts are refused as well
        assert forms[_ArrayTable] and forms[_Table] and forms[MalformedInputError], forms

    @pytest.mark.parametrize(
        "parse, text, error, message",
        [
            (
                parse_instance,
                '{"n": 100000000000000000000, "theta_m": [[0]], "theta_w": [[0]]}',
                DimensionMismatchError,
                "theta_m must have 100000000000000000000 rows, got 1",
            ),
            (
                parse_matching,
                '{"assignment": [18446744073709551616]}',
                InvalidMatchingError,
                "assignment[0]=18446744073709551616 out of range 0..0",
            ),
        ],
    )
    def test_integers_beyond_64_bits_keep_the_stdlib_error(self, parse, text, error, message):
        assert decode_outcome(parse, text) == (error, message)

    @pytest.mark.parametrize("depth", [990, 1000, 1100, 5000])
    def test_nesting_in_an_ignored_key_as_stdlib(self, depth):
        text = nested_in_ignored_key(depth)
        assert _shallow_utf8(text) is None
        assert decode_outcome(parse_instance, text) == decode_outcome(
            STDLIB_PARSE[parse_instance], text
        )

    @pytest.mark.parametrize("parse", [parse_instance, parse_matching])
    def test_stdlib_nesting_limit_unchanged(self, parse):
        """At the deepest nesting json accepts from this stack depth, and
        one level deeper, the outcome is the stdlib build's."""
        reference = STDLIB_PARSE[parse]
        deepest = 1000  # searched from this frame, whose depth the comparison shares
        while "nested too deeply" in str(decode_outcome(reference, nested_in_ignored_key(deepest))):
            deepest -= 1
        assert deepest < 1000
        for depth in (deepest, deepest + 1):
            text = nested_in_ignored_key(depth)
            assert decode_outcome(parse, text) == decode_outcome(reference, text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_instance, '{"n": 1, "theta_m": [[0]], "theta_w": [[0]], "x": "\ud800"}'),
            (parse_matching, '{"assignment": [0], "x": "\udfff"}'),
        ],
    )
    def test_raw_lone_surrogate_as_stdlib(self, parse, text):
        # a str, not UTF-8: the surrogate itself, not an escape of it
        assert "\\" not in text and _shallow_utf8(text) is None
        assert decode_outcome(parse, text) == decode_outcome(STDLIB_PARSE[parse], text)

    def test_guard_admits_the_schema_depth_and_no_deeper(self):
        assert _shallow_utf8(nested_in_ignored_key(2)) is not None  # 3 levels with the object
        assert _shallow_utf8(nested_in_ignored_key(3)) is None
        assert _shallow_utf8('{"x": "[[[[\\"", "y": [{}]}') is None  # a backslash
        assert _shallow_utf8('{"x": "[[[[[[", "y": [{}]}') is not None
        assert _shallow_utf8('{"x": "[}') is None  # an unterminated string
        assert _shallow_utf8('{"x": [[]}') is None

    def test_guard_counts_strings_unless_a_literal_stands_outside(self):
        for text, strings in [
            ('{"x": true}', None), ('{"x": [1.5, false]}', None), ('{"x": Infinity}', None),
            ('{"x": "true", "false": 1e5}', 3), ('{"theta": [[-0.0, 5E-324]], "y": null}', 2),
            ('{"x": [{}, []], "y": "[["}', 3), ('[[1, 2], [3]]', 0),
        ]:
            assert _shallow_utf8(text) == (text.encode(), strings), text
        assert _shallow_utf8('{"x": [[[true]]]}') is None
        assert _shallow_utf8('{"x": [[[[]]]], "y": false}') is None

    def test_million_deep_text_exits_2_without_a_signal(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**6 + "]" * 10**6)
        src = str(Path(sys.modules["matchkit"].__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "matchkit.cli", "solve", "nt", "--instance", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: not valid JSON: nested too deeply"

    def test_floats_read_bit_equal_to_float(self):
        def bits(x):
            return struct.pack("<d", x)

        def draw():
            return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]

        rng = random.Random(14)
        drawn = [draw() for _ in range(3000)]
        for x in drawn + [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-5]:
            if math.isfinite(x):
                assert bits(orjson.loads(repr(x))) == bits(x), repr(x)
        with localcontext() as ctx:
            ctx.prec = 1200  # holds every double and midpoint exactly
            for _ in range(600):
                x = abs(draw())
                y = math.nextafter(x, math.inf)
                if not math.isfinite(y):
                    continue
                mid = (Decimal(x) + Decimal(y)) / 2
                step = Decimal(1).scaleb(mid.adjusted() - 40)
                for d in (mid, mid + step, mid - step):
                    assert bits(orjson.loads(str(d))) == bits(float(str(d))), str(d)


    def test_orjson_decodes_only_behind_the_depth_guard(self):
        # orjson 3.8.3 crashes the interpreter on an array nested 10**6 deep;
        # only _shallow_utf8, ahead of _orjson_build's one call, keeps such
        # texts from it, so no other code may reach orjson.loads.
        package = Path(matchkit.__file__).parent
        tree = ast.parse((package / "instances.py").read_text())
        (build,) = [n for n in ast.walk(tree) if getattr(n, "name", "") == "_orjson_build"]
        guarded = range(build.lineno, build.end_lineno + 1)
        inside, outside = [], []
        for path in sorted(package.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"orjson\s*\.\s*loads|from\s+orjson\s|import\s+orjson\s+as", line):
                    where = inside if path.name == "instances.py" and number in guarded else outside
                    where.append(f"{path.name}:{number}: {line.strip()}")
        assert len(inside) == 1 and not outside, (inside, outside)


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

    def test_integer_range_draws_exactly_up_to_2_53(self):
        top = IntegerRange(2**53 - 1, 2**53)
        bottom = IntegerRange(-(2**53), -(2**53) + 1)
        for dist in (top, bottom):
            inst = random_instance(4, 5, dist)
            draws = {x for row in inst.theta_m + inst.theta_w for x in row}
            assert draws == {float(dist.lo), float(dist.hi)}

    def test_pair_guard_admits_numpy_integers(self):
        inst, matching = random_instance(3, 2), Matching((2, 0, 1))
        assert delta_q(inst, matching, np.int64(1), np.uint8(2), 0.5) == delta_q(
            inst, matching, 1, 2, 0.5
        )
        assert in_interior(BargainingModel("ft"), inst, np.int32(0), 2, -5.0, -5.0)

    def test_tables_admit_numpy_numbers(self):
        expected = optimal_assignment([[1, 2], [3, 4]])
        tables = (
            np.array([[1, 2], [3, 4]]),
            np.array([[1, 2], [3, 4]], dtype=np.float32),
            [[np.int8(1), np.uint64(2)], [np.float16(3), np.float32(4)]],
        )
        for table in tables:
            assert optimal_assignment(table) == expected
            theta_m = Instance(2, table, TWO_ZERO_ROWS).theta_m
            assert theta_m == ((1.0, 2.0), (3.0, 4.0))
            assert all(type(x) is float for row in theta_m for x in row)
        assert Instance(1, np.array([[0.1]], dtype=np.float32), ((0,),)).theta_m == (
            (float(np.float32(0.1)),),
        )
        for flag in (True, np.bool_(True)):
            with pytest.raises(MalformedInputError, match=r"^theta\[0\]\[1\] is not a number$"):
                optimal_assignment([[1, flag], [3, 4]])
        with pytest.raises(NonFiniteEntryError, match=r"^theta_m\[1\]\[0\] is not finite$"):
            Instance(2, np.array([[1, 2], [np.nan, 4]], dtype=np.float32), TWO_ZERO_ROWS)

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


def table_text(n, value="0.5", rows=None, cell=None, row=None):
    """A JSON table of ``rows`` rows (n by default) of n entries ``value``;
    ``cell``, ((r, c), text), replaces one entry and ``row``, (r, text), one row."""
    grid = [[value] * n for _ in range(n if rows is None else rows)]
    if cell is not None:
        (r, c), grid[r][c] = cell
    texts = ["[" + ", ".join(entries) + "]" for entries in grid]
    if row is not None:
        texts[row[0]] = row[1]
    return "[" + ", ".join(texts) + "]"


def text12(theta_m=None, n="12", extra=""):
    """An instance text of 12 couples, float tables past the tuple size."""
    theta_m = table_text(12) if theta_m is None else theta_m
    return f'{{"n": {n}, "theta_m": {theta_m}, "theta_w": {table_text(12, "0.25")}{extra}}}'


def within_allocation(call, limit):
    """Run ``call`` and check that its traced allocations peak below
    ``limit`` bytes, whether it returns or raises."""
    tracemalloc.start()
    try:
        return call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < limit, f"peak allocation {peak} bytes"


# Input refusals, as (call, error class, error text).
TWO_ZERO_ROWS = ((0, 0), (0, 0))
HUGE, HUGE_TEXT = 10**5000, "<16610-bit integer>"
REFUSALS = {
    "Instance rows not iterable": (
        lambda: Instance(2, 5, TWO_ZERO_ROWS), MalformedInputError, "theta_m must be a list of rows"
    ),
    "Instance row not iterable": (
        lambda: Instance(2, (5, (0, 0)), TWO_ZERO_ROWS),
        MalformedInputError,
        "theta_m row 0 must be a list",
    ),
    "Instance table str": (
        lambda: parse_instance('{"n": 2, "theta_m": "ab", "theta_w": [[0, 0], [0, 0]]}'),
        MalformedInputError,
        "theta_m must be a list of rows",
    ),
    "Instance table object": (
        lambda: Instance(2, {"a": 1, "b": 2}, TWO_ZERO_ROWS),
        MalformedInputError,
        "theta_m must be a list of rows",
    ),
    "Instance row object": (
        lambda: parse_instance(
            '{"n": 2, "theta_m": [[1, 2], {"x": 1, "y": 2}], "theta_w": [[0, 0], [0, 0]]}'
        ),
        MalformedInputError,
        "theta_m row 1 must be a list",
    ),
    "Instance row bytes": (
        lambda: Instance(2, ((1, 2), b"ab"), TWO_ZERO_ROWS),
        MalformedInputError,
        "theta_m row 1 must be a list",
    ),
    "Instance n=0": (lambda: Instance(0, (), ()), DomainError, "n must be >= 1, got 0"),
    # 12 couples: each text misses the array-first form and keeps the tuple path's error
    "parse_instance n=12 true entry": (
        lambda: parse_instance(text12(table_text(12, cell=((3, 4), "true")))),
        MalformedInputError,
        "theta_m[3][4] is not a number",
    ),
    "parse_instance n=12 string entry": (
        lambda: parse_instance(text12(table_text(12, cell=((3, 4), '"1.5"')))),
        MalformedInputError,
        "theta_m[3][4] is not a number",
    ),
    # a string of 10**6 characters in a 12-by-12 numpy string array would take 576 MB
    "parse_instance n=12 long string entry": (
        lambda: within_allocation(
            lambda: parse_instance(text12(table_text(12, cell=((3, 4), '"' + "x" * 10**6 + '"')))),
            16 * 2**20,
        ),
        MalformedInputError,
        "theta_m[3][4] is not a number",
    ),
    "parse_instance n=12 null entry": (
        lambda: parse_instance(text12(table_text(12, cell=((3, 4), "null")))),
        MalformedInputError,
        "theta_m[3][4] is not a number",
    ),
    "parse_instance n=12 entry 1e400": (
        lambda: parse_instance(text12(table_text(12, cell=((3, 4), "1e400")))),
        NonFiniteEntryError,
        "theta_m[3][4] is not finite",
    ),
    "parse_instance n=12 short row": (
        lambda: parse_instance(text12(table_text(12, row=(3, "[" + ", ".join(["0.5"] * 11) + "]")))),
        DimensionMismatchError,
        "theta_m row 3 must have 12 entries, got 11",
    ),
    "parse_instance n=12 object row": (
        lambda: parse_instance(text12(table_text(12, row=(3, '{"x": 0.5}')))),
        MalformedInputError,
        "theta_m row 3 must be a list",
    ),
    "parse_instance n=12 string table": (
        lambda: parse_instance(text12('"ab"')),
        MalformedInputError,
        "theta_m must be a list of rows",
    ),
    "parse_instance n=12 eleven rows": (
        lambda: parse_instance(text12(table_text(12, rows=11))),
        DimensionMismatchError,
        "theta_m must have 12 rows, got 11",
    ),
    "parse_instance n=12.0": (
        lambda: parse_instance(text12(n="12.0")), MalformedInputError, "n must be an integer"
    ),
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
    # the exact corner level, -3.6e308, rounds to -inf rather than overflowing
    "check_assumption ft_nonneg corner level below the float range": (
        lambda: check_assumption(
            BargainingModel("ft_nonneg"),
            Instance(1, [[-1.7976931348623157e308]], [[-1.7976931348623157e308]]),
            5,
            1,
        ),
        PreconditionError,
        "cannot sample around budget c1=-inf and corner c2=-inf",
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
    "random_instance dist='uniform01'": (
        lambda: random_instance(3, 1, "uniform01"),
        MalformedInputError,
        "dist must be a Uniform01 or IntegerRange instance",
    ),
    "random_instance dist=None": (
        lambda: random_instance(3, 1, None),
        MalformedInputError,
        "dist must be a Uniform01 or IntegerRange instance",
    ),
    "random_instance dist=IntegerRange": (
        lambda: random_instance(3, 1, IntegerRange),
        MalformedInputError,
        "dist must be a Uniform01 or IntegerRange instance",
    ),
    "random_instance dist=Uniform01": (
        lambda: random_instance(3, 1, Uniform01),
        MalformedInputError,
        "dist must be a Uniform01 or IntegerRange instance",
    ),
    "SplitMix64.next_u64s k=1.5": (
        lambda: SplitMix64(1).next_u64s(1.5), MalformedInputError, "k must be an integer"
    ),
    "SplitMix64.next_u64s k=-1": (
        lambda: SplitMix64(1).next_u64s(-1), DomainError, "k must be >= 0, got -1"
    ),
    "check_assumption seed=1.5": (
        lambda: check_assumption(BargainingModel("ft"), BOXED, 3, 1.5),
        MalformedInputError,
        "seed must be an integer",
    ),
    "derive_seed part=1.5": (
        lambda: derive_seed(1, 1.5), MalformedInputError, "seed part must be an integer"
    ),
    "derive_seed part=True": (
        lambda: derive_seed(True), MalformedInputError, "seed part must be an integer"
    ),
    "derive_seed part='1'": (
        lambda: derive_seed("1", 2), MalformedInputError, "seed part must be an integer"
    ),
    "SplitMix64 seed=1.5": (
        lambda: SplitMix64(1.5), MalformedInputError, "seed must be an integer"
    ),
    "SplitMix64 seed=True": (
        lambda: SplitMix64(True), MalformedInputError, "seed must be an integer"
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
    "in_feasible_set pair (0, 1.5)": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 1.5, 0.0, 0.0),
        MalformedInputError,
        "pair (0, 1.5) must be integers",
    ),
    "in_interior pair (True, 0)": (
        lambda: in_interior(BargainingModel("ft"), BOXED, True, 0, 0.0, 0.0),
        MalformedInputError,
        "pair (True, 0) must be integers",
    ),
    "in_interior pair (0, -1)": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, -1, 0.0, 0.0),
        DomainError,
        "pair (0, -1) out of range for n=2",
    ),
    "in_feasible_set u='a'": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, 'a', 0.0),
        MalformedInputError,
        "(u, v)[0] is not a number",
    ),
    "in_feasible_set v=None": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, 0.0, None),
        MalformedInputError,
        "(u, v)[1] is not a number",
    ),
    "in_feasible_set u=1+2j": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, 1 + 2j, 0.0),
        MalformedInputError,
        "(u, v)[0] is not a number",
    ),
    "in_feasible_set u=True": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, True, 0.0),
        MalformedInputError,
        "(u, v)[0] is not a number",
    ),
    "in_feasible_set v=10**400": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, 0.0, 10**400),
        NonFiniteEntryError,
        "(u, v)[1] is not finite",
    ),
    "in_feasible_set u=inf": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, math.inf, 0.0),
        NonFiniteEntryError,
        "(u, v)[0] is not finite",
    ),
    "in_feasible_set v=nan": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, 0, 0, 0.0, math.nan),
        NonFiniteEntryError,
        "(u, v)[1] is not finite",
    ),
    "in_interior v='a'": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, 0.0, 'a'),
        MalformedInputError,
        "(u, v)[1] is not a number",
    ),
    "in_interior u=None": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, None, 0.0),
        MalformedInputError,
        "(u, v)[0] is not a number",
    ),
    "in_interior v=1+2j": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, 0.0, 1 + 2j),
        MalformedInputError,
        "(u, v)[1] is not a number",
    ),
    "in_interior v=True": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, 0.0, True),
        MalformedInputError,
        "(u, v)[1] is not a number",
    ),
    "in_interior u=10**400": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, 10**400, 0.0),
        NonFiniteEntryError,
        "(u, v)[0] is not finite",
    ),
    "in_interior v=-inf": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, 0.0, -math.inf),
        NonFiniteEntryError,
        "(u, v)[1] is not finite",
    ),
    "in_interior u=nan": (
        lambda: in_interior(BargainingModel("ft"), BOXED, 0, 0, math.nan, 0.0),
        NonFiniteEntryError,
        "(u, v)[0] is not finite",
    ),
    "delta_q pair (-1, 0)": (
        lambda: delta_q(BOXED, Matching((0, 1)), -1, 0, 0.5),
        DomainError,
        "pair (-1, 0) out of range for n=2",
    ),
    "delta_q pair (2, 0)": (
        lambda: delta_q(BOXED, Matching((0, 1)), 2, 0, 0.5),
        DomainError,
        "pair (2, 0) out of range for n=2",
    ),
    "delta_q pair (0, 1.0)": (
        lambda: delta_q(BOXED, Matching((0, 1)), 0, 1.0, 0.5),
        MalformedInputError,
        "pair (0, 1.0) must be integers",
    ),
    "optimal_assignment(5)": (
        lambda: optimal_assignment(5), MalformedInputError, "theta must be a list of rows"
    ),
    "ft_taxed beta=5": (
        lambda: BargainingModel("ft_taxed", 5), MalformedInputError, "beta must be a list of rows"
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
    "mixed_instance_stream p=-1": (
        lambda: mixed_instance_stream(3, 1)(-1.0, 1.0, 1),
        DomainError,
        "p must lie in [0, 1], got -1.0",
    ),
    "mixed_instance_stream p=nan": (
        lambda: mixed_instance_stream(3, 1)(math.nan, 0.5, 0),
        DomainError,
        "p must lie in [0, 1], got nan",
    ),
    "mixed_instance_stream p=True": (
        lambda: mixed_instance_stream(3, 1)(True, 1.0, 1),
        DomainError,
        "p must lie in [0, 1], got True",
    ),
    "mixed_instance_stream q=inf": (
        lambda: mixed_instance_stream(3, 1)(0.0, math.inf, 1),
        DomainError,
        "q must lie in [0, 1], got inf",
    ),
    "mixed_instance_stream trials=-1": (
        lambda: mixed_instance_stream(3, 1)(0.0, 1.0, -1),
        DomainError,
        "trials must be >= 0, got -1",
    ),
    "mixed_instance_stream trials=1.5": (
        lambda: mixed_instance_stream(3, 1)(0.0, 1.0, 1.5),
        MalformedInputError,
        "trials must be an integer",
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
    "IntegerRange hi=2**53+1": (
        lambda: IntegerRange(0, 2**53 + 1),
        DomainError,
        "integer range bounds must lie in [-2**53, 2**53]",
    ),
    "IntegerRange lo=-2**53-1": (
        lambda: IntegerRange(-(2**53) - 1, 0),
        DomainError,
        "integer range bounds must lie in [-2**53, 2**53]",
    ),
    "IntegerRange empty, lo=10**5000": (
        lambda: IntegerRange(10**5000, 0),
        DomainError,
        "integer range bounds must lie in [-2**53, 2**53]",
    ),
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
    "mixed_instance_stream n=9": (
        lambda: mixed_instance_stream(9, 1),
        SizeLimitError,
        "existence oracle limited to n <= 8, got 9",
    ),
    # Integers past CPython's 4,300-digit limit for decimal text are shown
    # by their bit length.
    "randint lo=10**5000": (
        lambda: SplitMix64(1).randint(HUGE, 0),
        DomainError,
        f"empty integer range [{HUGE_TEXT}, 0]",
    ),
    "Matching([10**5000])": (
        lambda: Matching((HUGE,)),
        InvalidMatchingError,
        f"assignment[0]={HUGE_TEXT} out of range 0..0",
    ),
    "delta_q pair (10**5000, 0)": (
        lambda: delta_q(BOXED, Matching((0, 1)), HUGE, 0, 0.5),
        DomainError,
        f"pair ({HUGE_TEXT}, 0) out of range for n=2",
    ),
    "in_feasible_set pair (10**5000, 0)": (
        lambda: in_feasible_set(BargainingModel("ft"), BOXED, HUGE, 0, 0.0, 0.0),
        DomainError,
        f"pair ({HUGE_TEXT}, 0) out of range for n=2",
    ),
    "in_interior pair (10**5000, 0.5)": (
        lambda: in_interior(BargainingModel("ft"), BOXED, HUGE, 0.5, 0.0, 0.0),
        MalformedInputError,
        f"pair ({HUGE_TEXT}, 0.5) must be integers",
    ),
    "Instance n=10**5000": (
        lambda: Instance(HUGE, [[0]], [[0]]),
        DimensionMismatchError,
        f"theta_m must have {HUGE_TEXT} rows, got 1",
    ),
    "random_instance n=10**5000": (
        lambda: random_instance(HUGE, 1),
        SizeLimitError,
        f"instance generation limited to n <= 2000, got {HUGE_TEXT}",
    ),
    "mixed_instance_stream n=10**5000": (
        lambda: mixed_instance_stream(HUGE, 1),
        SizeLimitError,
        f"existence oracle limited to n <= 8, got {HUGE_TEXT}",
    ),
    "pq_plane_sweep trials=-10**5000": (
        lambda: pq_plane_sweep(mixed_instance_stream(2, 1), 2, -HUGE),
        DomainError,
        f"trials must be >= 1, got -{HUGE_TEXT}",
    ),
    "check_pq_monotonicity grid_steps=-10**5000": (
        lambda: check_pq_monotonicity(BOXED, Matching((0, 1)), -HUGE),
        DomainError,
        f"grid_steps must be >= 2, got -{HUGE_TEXT}",
    ),
    "check_assumption samples=-10**5000": (
        lambda: check_assumption(BargainingModel("ft"), BOXED, -HUGE, 1),
        DomainError,
        f"samples must be >= 1, got -{HUGE_TEXT}",
    ),
    "PQParams p=10**5000": (
        lambda: PQParams(HUGE, 0.5), DomainError, f"p must lie in [0, 1], got {HUGE_TEXT}"
    ),
    "gale_shapley proposer=10**5000": (
        lambda: gale_shapley(BOXED, proposer=HUGE),
        DomainError,
        f'proposer must be "men" or "women", got {HUGE_TEXT}',
    ),
    "BargainingModel kind=10**5000": (
        lambda: BargainingModel(HUGE),
        DomainError,
        f"unknown model kind {HUGE_TEXT}; expected one of {matchkit.MODEL_KINDS}",
    ),
}


# Every public engine that takes a tolerance, as f(eps).
FT, ID2, ZERO_CUTS = BargainingModel("ft"), Matching((0, 1)), CutVector((0.0, 0.0), (0.0, 0.0))
EPS_ENGINES = {
    "in_feasible_set": lambda e: in_feasible_set(FT, BOXED, 0, 0, 0.0, 0.0, eps=e),
    "in_interior": lambda e: in_interior(FT, BOXED, 0, 0, 0.0, 0.0, eps=e),
    "check_assumption": lambda e: check_assumption(FT, BOXED, 10, 1, eps=e),
    "verify_core_point": lambda e: verify_core_point(FT, BOXED, ID2, ZERO_CUTS, eps=e),
    "search_core": lambda e: search_core(FT, BOXED, ID2, eps=e),
    "find_fnt_blocking_pairs": lambda e: find_fnt_blocking_pairs(BOXED, ID2, eps=e),
    "enumerate_fnt_stable": lambda e: enumerate_fnt_stable(BOXED, eps=e),
    "verify_men_optimality": lambda e: verify_men_optimality(BOXED, eps=e),
    "find_pq_blocking_chain": lambda e: find_pq_blocking_chain(
        BOXED, ID2, PQParams(0.2, 0.8), eps=e
    ),
    "exists_pq_stable": lambda e: exists_pq_stable(BOXED, PQParams(0.2, 0.8), eps=e),
    "counterexample_instance": lambda e: counterexample_instance(0.2, 0.8, eps=e),
    "pq_plane_sweep": lambda e: pq_plane_sweep(mixed_instance_stream(2, 1), 2, 1, eps=e),
    "check_pq_monotonicity": lambda e: check_pq_monotonicity(BOXED, ID2, 2, eps=e),
    "is_cyclically_monotone": lambda e: is_cyclically_monotone(BOXED_THETA_M, ID2, eps=e),
    "dual_cuts": lambda e: dual_cuts(BOXED_THETA_M, ID2, eps=e),
    "verify_ft_core": lambda e: verify_ft_core(BOXED_THETA_M, ID2, ZERO_CUTS, eps=e),
    "check_optimality_of_cuts": lambda e: check_optimality_of_cuts(
        ((0.0, 0.0), (0.0, 0.0)), ID2, ZERO_CUTS, eps=e
    ),
}


class TestGuards:
    @pytest.mark.parametrize("engine", sorted(EPS_ENGINES))
    def test_tolerance_refused_unless_finite_and_non_negative(self, engine):
        call = EPS_ENGINES[engine]
        for eps in (math.nan, math.inf, -math.inf, -1e-9, -0.5, 10**400, "1e-9", True, np.True_):
            with pytest.raises(DomainError, match=r"^eps must be a finite non-negative number$"):
                call(eps)
        call(0.0)
        call(-0.0)

    @pytest.mark.parametrize(
        "value", [np.float32(1e-9), np.float64(1e-9), np.int64(0)], ids=repr
    )
    @pytest.mark.parametrize("engine", sorted(EPS_ENGINES))
    def test_numpy_tolerance_acts_as_the_equal_float(self, engine, value):
        call = EPS_ENGINES[engine]
        assert repr(call(value)) == repr(call(float(value)))

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

    @pytest.mark.parametrize(
        "value, shown",
        [
            (np.int64(2), "np.int64(2)"),
            (np.float32(1.5), "np.float32(1.5)"),
            ("0.5", "'0.5'"),
            (np.True_, "np.True_"),
            (np.False_, "np.False_"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("guard", sorted(LEVEL_GUARDS))
    def test_sharing_level_of_another_type_is_shown_by_repr(self, guard, value, shown):
        name, call = LEVEL_GUARDS[guard]
        text = f"{name} must lie in [0, 1], got {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            call(value)

    @pytest.mark.parametrize(
        "value",
        [np.int64(0), np.uint8(1), np.float64(0.25), np.float32(0.1), np.float16(0.5)],
        ids=repr,
    )
    @pytest.mark.parametrize("guard", sorted(LEVEL_GUARDS))
    def test_numpy_sharing_level_acts_as_the_equal_float(self, guard, value):
        """Same value or same refusal, by repr, as the equal Python float."""

        def outcome(level):
            try:
                return repr(LEVEL_GUARDS[guard][1](level))
            except DomainError as exc:
                return f"DomainError: {exc}"

        assert outcome(value) == outcome(float(value))

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refused_with_named_error(self, case):
        call, error, text = REFUSALS[case]
        assert issubclass(error, MatchkitError)
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == text


class TestToleranceRule:
    """The guard returns the largest float not above eps, so a float exceeds
    the result exactly when it exceeds eps, an integer eps included."""

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.integers(0, int(sys.float_info.max)),
            # integers within 2**20 of a float past 2**53, half of them below it
            st.builds(
                lambda f, d: int(f) + d, st.floats(2.0**53, 2.0**1000), st.integers(-(2**20), 2**20)
            ),
        ),
        st.lists(st.floats(allow_nan=False), max_size=4),
    )
    def test_integer_becomes_the_largest_float_not_above_it(self, eps, xs):
        result = _check_tolerance(eps)
        assert type(result) is float and result <= eps
        above = math.nextafter(result, math.inf)
        assert above > eps
        for x in (*xs, result, above, float(eps)):
            assert (x > eps) == (x > result)

    @settings(max_examples=300)
    @given(st.floats(0.0, sys.float_info.max))
    def test_float_comes_back_as_it_is(self, eps):
        result = _check_tolerance(eps)
        assert type(result) is float and result == eps

    def test_negative_zero_is_kept(self):
        assert math.copysign(1.0, _check_tolerance(-0.0)) == -1.0


class TestSeedIntegerRule:
    """Seeds and seed parts follow the integer rule: a numpy integer gives
    the stream of the equal Python int."""

    @pytest.mark.parametrize("kind", (np.int64, np.uint64, np.int8))
    def test_numpy_integer_seeds_match_python_ints(self, kind):
        for seed in (0, 3, 5, 100):
            a, b = SplitMix64(kind(seed)), SplitMix64(seed)
            assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
            assert derive_seed(kind(seed), 3) == derive_seed(seed, 3)
            assert derive_seed(7, kind(seed)) == derive_seed(7, seed)
        assert derive_seed(np.int64(-5)) == derive_seed(-5)


class TestLexSearch:
    """The forward-checking skeleton: each hook call names the couple just
    placed, and a hook that strikes only its woman leaves every assignment."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_striking_the_placed_woman_yields_every_assignment_in_order(self, n):
        prefix = []

        def keep(k, y, b, women):
            prefix[k:] = [y]  # the couple (k, y) was placed after men 0..k-1
            assert k < b < n
            assert women == [z for z in range(n) if z not in prefix[:k]]
            return [z for z in women if z != y]

        leaves = []
        for leaf in _lex_search(n, keep):
            assert tuple(prefix) == leaf[: n - 1]
            leaves.append(leaf)
        assert leaves == list(permutations(range(n)))

"""The cycle detector's stages: early exit on a parent cycle, the
cycle-cover bound, and the enumeration that is left for the knife edge."""

import inspect
import math
import re
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import matchkit.cli as cli
import matchkit.cycles as cycles
from matchkit import (
    CutVector,
    DomainError,
    Instance,
    Matching,
    MatchkitError,
    NotCyclicallyMonotoneError,
    PQParams,
    SplitMix64,
    combined_rewards,
    derive_seed,
    dual_cuts,
    exists_pq_stable,
    find_pq_blocking_chain,
    gale_shapley,
    is_cyclically_monotone,
    optimal_assignment,
    random_instance,
    transferable,
)
from matchkit.cycles import best_cycle_bruteforce, find_positive_cycle
from matchkit.partial_transfer import _pq_weights

from conftest import (
    count_calls,
    near_indifferent_instance,
    one_entry_instance,
    pq_weight_matrix,
    random_matchings,
    seeded_permutation,
)

EPS = 1e-9
CELLS = ((1.0, 1.0), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))


def resum(weights, cycle):
    """A cycle's gain, summed from its first node as the detector reports it."""
    total = 0.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += weights[a][b]
    return total


def planted_cycle_table(n, seed):
    """Off-diagonal rewards in (-0.95*eps, -0.05*eps] and one planted
    cycle of 3 to 6 couples that gains 1.2 to 3 eps; zero diagonal, so
    under the identity matching the chain weights are the rewards."""
    rng = SplitMix64(seed)
    theta = [
        [0.0 if a == b else -(0.05 + 0.9 * rng.uniform01()) * EPS for b in range(n)]
        for a in range(n)
    ]
    k = rng.randint(3, 6)
    nodes = seeded_permutation(n, rng)[:k]
    gain = (1.2 + 1.8 * rng.uniform01()) * EPS
    parts = [0.5 + rng.uniform01() for _ in range(k)]
    for idx in range(k):
        theta[nodes[idx]][nodes[(idx + 1) % k]] = gain * parts[idx] / sum(parts)
    return theta


class TestOverflow:
    # Swapping couples 0 and 1 gains 1e308, but the relaxation's distances
    # reach -inf on the second pass, where -inf < -inf reads as settled.
    THETA = ((0.0, 0.0, -1e308), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    MATCHING = Matching((2, 1, 0))

    def test_cyclic_monotonicity_names_a_witness(self):
        witness = is_cyclically_monotone(self.THETA, self.MATCHING)
        assert witness is not True
        assert witness.gain == 1e308

    def test_pq_chain_at_full_sharing_names_a_witness(self):
        zero = ((0.0,) * 3,) * 3
        inst = Instance(3, self.THETA, zero)
        witness = find_pq_blocking_chain(inst, self.MATCHING, PQParams(1.0, 1.0))
        assert witness is not True
        assert witness.clipped_gain == 1e308

    def test_relaxation_stuck_at_minus_inf_is_not_settled(self):
        # No parent cycle ever gains: the distances overflow to -inf on the
        # way round 0 -> 1 -> 2 -> 0 and stop moving there.  The cover
        # stage finds that cycle.
        theta = ((0.0, 0.0, 0.0), (0.0, 0.0, 1e308), (0.0, -1e308, 0.0))
        witness = is_cyclically_monotone(theta, Matching((0, 1, 2)))
        assert witness is not True
        assert (witness.cycle, witness.gain) == ((0, 1, 2), 1e308)


class TestPlantedCyclesPastTheEnumerationLimit:
    def test_every_planted_cycle_is_reported(self):
        misses = []
        for idx in range(2000):
            n = 11 + idx % 6
            theta = planted_cycle_table(n, derive_seed(80, idx))
            witness = is_cyclically_monotone(theta, Matching(tuple(range(n))))
            if witness is True or not resum(theta, list(witness.cycle)) > EPS:
                misses.append(idx)
            else:
                assert witness.gain == resum(theta, list(witness.cycle))
        assert misses == []


class TestKnifeEdge:
    def test_verdicts_equal_enumeration(self):
        """Tables whose best cycle gains between k*eps/n and 1.5*eps: the
        shifted relaxation cannot settle on them, and some gain just
        above eps, others just below."""
        knife = blocked = 0
        for seed in range(200):
            n = 3 + seed % 5  # enumeration at n = 8 costs 0.1 s a table
            inst = near_indifferent_instance(n, derive_seed(81, seed))
            matching = random_matchings(n, 1, derive_seed(82, seed))[0]
            for p, q in CELLS:
                weights = pq_weight_matrix(inst, matching, p, q)
                best = best_cycle_bruteforce(weights, -math.inf)
                if best is None or not len(best[0]) * EPS / n < best[1] <= 1.5 * EPS:
                    continue
                knife += 1
                # The best cycle decides best_cycle_bruteforce(weights, EPS).
                expected_blocked = best[1] > EPS
                blocked += expected_blocked
                found = find_positive_cycle(weights, EPS)
                assert (found is not None) == expected_blocked
                if found is not None:
                    assert found[1] == resum(weights, list(found[0])) > EPS
                verdict = find_pq_blocking_chain(inst, matching, PQParams(p, q))
                assert (verdict is not True) == expected_blocked
        assert knife > 100 and 0 < blocked < knife

    def test_one_entry_checks_enumerate_nothing(self, monkeypatch):
        enumerations = count_calls(monkeypatch, cycles, "best_cycle_bruteforce")
        for n, count in ((9, 8), (10, 2)):
            for k in range(count):
                inst = one_entry_instance(n, derive_seed(83, n, k))
                identity = Matching(tuple(range(n)))
                assert find_pq_blocking_chain(inst, identity, PQParams(1.0, 1.0)) is True
        assert enumerations == []

    def test_one_entry_oracle_enumerates_nothing(self, monkeypatch):
        enumerations = count_calls(monkeypatch, cycles, "best_cycle_bruteforce")
        for k in range(3):
            inst = one_entry_instance(8, derive_seed(84, k))
            found = exists_pq_stable(inst, PQParams(1.0, 1.0))
            assert found.assignment == tuple(range(8))
        assert enumerations == []


# Near-limit palette: signed zero and subnormals, gains just under eps,
# unit and 1e8 rewards, and magnitudes whose sums overflow.
PALETTE = (
    0.0, 5e-324, -5e-324, 4e-10, -4e-10, 6e-10, -6e-10, 1.0, -1.0, 1e8, -1e8,
    1e300, -1e300, 8.9e307, -8.9e307, 1e308, -1e308,
)


def rounding_corpus(count, tag):
    """Seeded n = 2..6 matrices, one in three uniform in [-1, 1), the rest
    drawn from PALETTE, most from a few of its entries so sums cancel."""
    rng = SplitMix64(derive_seed(85, tag))
    for k in range(count):
        n = 2 + k % 5
        few = [PALETTE[rng.randint(0, len(PALETTE) - 1)] for _ in range(1 + k % 4)]

        def draw():
            if k % 3 == 0:
                return 2.0 * rng.uniform01() - 1.0
            return few[rng.randint(0, len(few) - 1)]

        yield [[draw() for _ in range(n)] for _ in range(n)]


def float_gains(weights):
    """Every simple cycle, from its smallest node, with its float gain."""
    n = len(weights)
    return [
        (cycle, resum(weights, list(cycle)))
        for size in range(2, n + 1)
        for nodes in combinations(range(n), size)
        for cycle in ((nodes[0],) + rest for rest in permutations(nodes[1:]))
    ]


def max_weight(weights):
    return max(abs(w) for a, row in enumerate(weights) for b, w in enumerate(row) if a != b)


COUNT = 3500  # matrices per property: under 3 s in all


class TestRoundingModel:
    """Each rounding allowance against exact arithmetic on n <= 6."""

    def test_one_module_holds_the_rounding_model(self):
        for path in sorted(Path(cycles.__file__).parent.glob("*.py")):
            text = path.read_text()
            assert "_TIGHT_ULPS" not in text, path.name
            if path.name != "tolerance.py":
                assert "UNIT_ROUNDOFF" not in text and "finfo" not in text, path.name
            # counts are spelled once, in rng.py, and size limits once, in instances.py
            if path.name != "rng.py":
                assert "must be >= " not in text, path.name
            if path.name != "instances.py":
                assert "limited to n <=" not in text, path.name
        # --out files are written by cli._write_text, cut entries checked by _coerce_row
        rest = inspect.getsource(cli).replace(inspect.getsource(cli._write_text), "")
        assert re.search(r"(?<!_)write_text\(", rest) is None
        assert "float(" not in inspect.getsource(CutVector.__post_init__)

    def test_detector_bounds(self):
        checked = 0
        for weights in rounding_corpus(COUNT, 0):
            n, big = len(weights), max_weight(weights)
            best = max(gain for _, gain in float_gains(weights))
            resum_error = cycles._resum_error(n, big)
            for eps in (EPS, 0.0):
                found = find_positive_cycle(weights, eps)
                # (a) a settling relaxation hides at most _settle_error
                if best > eps + cycles._settle_error(n, big, eps):
                    assert found is not None, (weights, eps)
                # (b) a reported gain is its re-sum, within _resum_error of exact
                if found is not None and math.isfinite(found[1]) and math.isfinite(resum_error):
                    cycle = found[0]
                    hops = zip(cycle, cycle[1:] + cycle[:1])
                    exact = sum(Fraction(weights[a][b]) for a, b in hops)
                    assert abs(Fraction(found[1]) - exact) <= Fraction(resum_error), weights
                    checked += 1
        assert checked > 100

    def test_cover_bound_skips_only_gainless_graphs(self, monkeypatch):
        covers = count_calls(monkeypatch, cycles, "best_cycle_bruteforce")
        solves = []
        inner = cycles.linear_sum_assignment
        monkeypatch.setattr(
            cycles, "linear_sum_assignment", lambda *a, **k: solves.append(1) or inner(*a, **k)
        )
        skipped = 0
        for weights in rounding_corpus(COUNT, 1):
            for eps in (EPS, 0.0):
                del covers[:], solves[:]
                if cycles._cycle_cover(weights, eps) is None and not covers and not solves:
                    # (c) the bound said no cycle can beat eps
                    skipped += 1
                    assert all(gain <= eps for _, gain in float_gains(weights)), (weights, eps)
        assert skipped > 100

    def test_dual_cuts_certifies_only_without_gaining_chains(self, monkeypatch):
        detector = count_calls(monkeypatch, transferable, "find_positive_cycle")
        certified = 0
        for theta in rounding_corpus(COUNT, 2):
            try:
                matching = optimal_assignment(theta)[0]
            except MatchkitError:
                continue
            arr = np.array(theta)
            chains = _pq_weights(arr, np.zeros_like(arr), matching.assignment, 1.0, 1.0)
            for eps in (EPS, 0.0):
                del detector[:]
                try:
                    dual_cuts(theta, matching, eps=eps)
                except MatchkitError:
                    continue
                if not detector:
                    # (d) a certificate issued without the detector is sound
                    certified += 1
                    assert all(gain <= eps for _, gain in float_gains(chains)), (theta, eps)
        assert certified > 100


# Signed zeros, the subnormal edge, eps scale and entries whose differences
# overflow; a table holding +-1.7e308 gives the nan of 0 * inf at q = 0.
EDGE_ENTRIES = (0.0, -0.0, 5e-324, 1e-10, 5e-10, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308)


def weight_arrays():
    """(n, weight array): chain weights at n = 2-30 under seeded matchings,
    at every cell, from edge-entry, uniform and near-indifferent tables,
    whose knife edges reach the cover stage, and at n <= 10 the
    enumeration; then rounding-corpus matrices, whose diagonals are not 0."""
    for weights in rounding_corpus(300, 3):
        yield len(weights), np.array(weights)
    rng = SplitMix64(86)
    for k in range(87):
        n = 2 + k % 29
        if k % 3 == 0:
            tables = [
                tuple(tuple(EDGE_ENTRIES[rng.randint(0, len(EDGE_ENTRIES) - 1)] for _ in range(n))
                      for _ in range(n))
                for _ in range(2)
            ]
            inst = Instance(n, *tables)
        elif k % 3 == 1:
            inst = random_instance(n, derive_seed(87, k))
        else:
            inst = near_indifferent_instance(n, derive_seed(88, k))
        assignment = seeded_permutation(inst.n, rng)
        for p, q in CELLS:
            yield inst.n, _pq_weights(inst.theta_m.array, inst.theta_w.array, assignment, p, q)


class TestToleranceGuard:
    """The detector takes the engines' tolerance guard: a 2-cycle gaining 2
    is not hidden behind a NaN or infinite eps, nor met by a negative one."""

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9], ids=repr)
    def test_refused_in_list_and_array_form(self, eps):
        for weights in ([[0, 1], [1, 0]], np.array([[0.0, 1.0], [1.0, 0.0]])):
            with pytest.raises(DomainError, match=r"^eps must be a finite non-negative number$"):
                find_positive_cycle(weights, eps)


class TestArrayInput:
    def test_array_and_list_rows_give_the_same_cycle_and_gain(self, monkeypatch):
        enumerated = count_calls(monkeypatch, cycles, "best_cycle_bruteforce")
        sizes, found_any, nans = set(), 0, 0
        for n, arr in weight_arrays():
            rows = arr.tolist()
            nans += int(np.isnan(arr).sum())
            for eps in (EPS, 0.0):
                found = find_positive_cycle(arr, eps)
                assert repr(found) == repr(find_positive_cycle(rows, eps)), (rows, eps)
                if found is not None:
                    assert type(found[1]) is float
                    found_any += 1
            sizes.add(n)
        assert sizes == set(range(2, 31))
        assert found_any > 100 and nans > 100
        assert any(n <= cycles._BRUTE_FORCE_LIMIT for n in enumerated)


class TestBruteForceOnArrays:
    """The enumerator reads an array as its float rows: the same cycle and
    gain, a Python float, as from list rows."""

    def test_array_and_list_rows_give_the_same_best_cycle(self):
        rng = SplitMix64(derive_seed(91))
        entries = EDGE_ENTRIES + (math.nan,)
        found_any = signed_zeros = nans = 0
        for n in range(2, 7):
            for _ in range(30):
                rows = [
                    [
                        entries[rng.randint(0, len(entries) - 1)]
                        if rng.randint(0, 1) else rng.uniform01() - 0.5
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                signed_zeros += sum(math.copysign(1.0, w) < 0 and w == 0 for r in rows for w in r)
                nans += sum(math.isnan(w) for r in rows for w in r)
                for eps in (EPS, 0.0):
                    found = best_cycle_bruteforce(np.array(rows), eps)
                    assert repr(found) == repr(best_cycle_bruteforce(rows, eps)), (rows, eps)
                    if found is not None:
                        assert type(found[1]) is float
                        found_any += 1
        assert found_any > 100 and signed_zeros > 10 and nans > 10


class TestWitnessGainsArePythonFloats:
    """Whole-matching witnesses come from the weight array; their gains
    stay Python floats, as the CLI prints their repr."""

    @pytest.mark.parametrize("n", (12, 60))
    def test_unstable_deferred_acceptance_matching(self, n):
        inst = random_instance(n, derive_seed(89, n))
        matching = gale_shapley(inst)
        chain = find_pq_blocking_chain(inst, matching, PQParams(0.5, 0.5))
        witness = is_cyclically_monotone(combined_rewards(inst), matching)
        assert chain is not True and witness is not True
        assert type(chain.clipped_gain) is float and type(witness.gain) is float
        assert "np.float64(" not in repr(chain) + repr(witness)

    @pytest.mark.parametrize("n", (12, 60))
    def test_dual_cuts_names_a_planted_chain(self, n):
        theta = planted_cycle_table(n, derive_seed(90, n))
        with pytest.raises(NotCyclicallyMonotoneError) as caught:
            dual_cuts(theta, Matching(tuple(range(n))))
        message = str(caught.value)
        assert message.startswith("matching admits blocking chain (")
        assert "np.float64(" not in message
        gain = message.rsplit(" ", 1)[1]
        assert repr(float(gain)) == gain

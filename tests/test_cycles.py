"""The cycle detector's stages: early exit on a parent cycle, the
cycle-cover bound, and the enumeration that is left for the knife edge."""

import math

import matchkit.cycles as cycles
from matchkit import (
    Instance,
    Matching,
    PQParams,
    SplitMix64,
    derive_seed,
    exists_pq_stable,
    find_pq_blocking_chain,
    is_cyclically_monotone,
)
from matchkit.cycles import best_cycle_bruteforce, find_positive_cycle

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

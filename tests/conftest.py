"""Shared fixtures and seeded corpus helpers."""

from __future__ import annotations

import pytest

from matchkit import instances
from matchkit import (
    DEFAULT_EPS,
    Instance,
    IntegerRange,
    Matching,
    SplitMix64,
    Uniform01,
    clip_p,
    delta_q,
    derive_seed,
    random_instance,
)

# Two men, two women; man-side rewards favor staying put, the combined
# rewards favor swapping.  Small enough to verify every claim by hand.
BOXED_THETA_M = ((1.0, 0.0), (0.0, 1.0))
BOXED_THETA_W = ((1.0, 5.0), (0.0, 1.0))


@pytest.fixture
def boxed() -> Instance:
    return Instance(2, BOXED_THETA_M, BOXED_THETA_W)


@pytest.fixture
def identity2() -> Matching:
    return Matching((0, 1))


@pytest.fixture
def swap2() -> Matching:
    return Matching((1, 0))


def corpus_instance(idx: int, max_n: int, tag: int = 0) -> Instance:
    """Deterministic mixed corpus: sizes cycle 1..max_n, every third
    instance integer-valued so exact ties show up."""
    n = (idx % max_n) + 1
    dist = IntegerRange(0, 9) if idx % 3 == 2 else Uniform01()
    return random_instance(n, derive_seed(tag, idx), dist)


def ranking_corpus(seeds: int = 4):
    """Seeded instances at n = 1..12 on uniform, 0..2 and -1..1 tables,
    each also with every other zero flipped to -0.0 and scaled by 1e307:
    ties, signed zeros and rewards near the float limit."""

    def flip_zeros(table):
        return tuple(
            tuple(-0.0 if x == 0 and (i + j) % 2 else x for j, x in enumerate(row))
            for i, row in enumerate(table)
        )

    def scaled(table):
        return tuple(tuple(x * 1e307 for x in row) for row in table)

    dists = (Uniform01(), IntegerRange(0, 2), IntegerRange(-1, 1))
    for n in range(1, 13):
        for k, dist in enumerate(dists):
            for seed in range(seeds):
                inst = random_instance(n, derive_seed(n, k, seed), dist)
                yield inst
                for variant in (flip_zeros, scaled):
                    yield Instance(n, variant(inst.theta_m), variant(inst.theta_w))


def seeded_permutation(n: int, rng: SplitMix64) -> tuple[int, ...]:
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def random_matchings(n: int, count: int, seed: int) -> list[Matching]:
    rng = SplitMix64(seed)
    return [Matching(seeded_permutation(n, rng)) for _ in range(count)]


def near_indifferent_instance(n, seed):
    """Every reward 1 plus a few multiples of eps / 2: gains land on both
    sides of the tolerance and on its rounding knife edge."""
    rng = SplitMix64(seed)

    def table():
        return tuple(tuple(1.0 + rng.randint(-3, 3) * 5e-10 for _ in range(n)) for _ in range(n))

    return Instance(n, table(), table())


def one_entry_instance(n, seed):
    """All-zero tables plus one man-side entry in (2*eps/n, eps] off the
    diagonal, the benchmark's near-indifferent check class.  Under the
    identity matching at (1, 1) the entry's 2-cycle beats the detector's
    eps/n-shifted threshold, while no cycle gains more than eps."""
    rng = SplitMix64(seed)
    i = rng.randint(0, n - 1)
    j = (i + rng.randint(1, n - 1)) % n
    low = 2.0 * DEFAULT_EPS / n
    theta_m = [[0.0] * n for _ in range(n)]
    theta_m[i][j] = low + (DEFAULT_EPS - low) * (1.0 - rng.uniform01())
    return Instance(n, theta_m, [[0.0] * n for _ in range(n)])


def pq_weight_matrix(inst, matching, p, q):
    """The (p, q) chain weights from their one-pair definition: the
    p-clipped delta_q of couple a's man courting couple b's woman, zero
    on the diagonal."""
    n = inst.n
    return [
        [
            clip_p(delta_q(inst, matching, a, matching.assignment[b], q), p) if a != b else 0.0
            for b in range(n)
        ]
        for a in range(n)
    ]


def coerced_rows(monkeypatch) -> list[str]:
    """Record the table name of each row that ``instances._coerce_row`` checks."""
    inner = instances._coerce_row
    names = []

    def counted(entries, name, r=None):
        names.append(name)
        return inner(entries, name, r)

    monkeypatch.setattr(instances, "_coerce_row", counted)
    return names


def count_calls(monkeypatch, module, name):
    """Replace ``module.name(weights, eps)`` by a wrapper that records the
    graph size of each call; returns the record."""
    inner = getattr(module, name)
    calls = []

    def counted(weights, eps):
        calls.append(len(weights))
        return inner(weights, eps)

    monkeypatch.setattr(module, name, counted)
    return calls

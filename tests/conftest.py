"""Shared fixtures and seeded corpus helpers."""

from __future__ import annotations

import pytest

from matchkit import (
    Instance,
    IntegerRange,
    Matching,
    SplitMix64,
    Uniform01,
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

"""Deterministic, platform-independent randomness.

Results must be bit-identical for a fixed seed on every platform, so no
standard-library or numpy generator is used anywhere that affects output.
All streams are splitmix64: state advances by a fixed odd constant and is
scrambled by two xor-multiply rounds.  ``derive_seed`` folds integers into
a child seed so independent work units (sweep cells, trial indices) get
decorrelated streams without sharing state.

The k-th state of a stream is its seed plus k times the constant, mod
2**64, so a block of draws needs no loop: ``_u64_rows`` computes the
states and both mixing rounds over numpy ``uint64`` arrays, which wrap
mod 2**64, for a column of seeds at once, one row of draws per seed.
``next_u64s`` is its one-seed case and returns the bits that as many
``next_u64`` calls would.  Whole reward tables, and whole sweep cells of
them, are drawn this way; the scalar draws serve callers that interleave
draws with other work.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MalformedInputError, _shown

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# _mix64 in place on a uint64 array, with one temporary of its size.  Every
# operand is an np.uint64, so no promotion rule (numpy 1.x's value-based one
# or NEP 50's) leaves uint64; array arithmetic wraps silently, where a
# uint64 scalar would warn.
_U64 = np.uint64
_U64_GAMMA = _U64(_GAMMA)
_SHIFTS = _U64(30), _U64(27), _U64(31), _U64(11)
_U64_MULTIPLIERS = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z ^= z >> _SHIFTS[0]
    z *= _U64_MULTIPLIERS[0]
    z ^= z >> _SHIFTS[1]
    z *= _U64_MULTIPLIERS[1]
    z ^= z >> _SHIFTS[2]
    return z


def _u64_rows(seeds, k: int) -> np.ndarray:
    """The first k outputs of ``SplitMix64(seed)`` for each seed of ``seeds``,
    a uint64 column (an (m, 1) array) or one ``np.uint64``, as an (m, k)
    or a (k,) uint64 array: the j-th output, j = 1..k, is the mix of
    seed + j times the constant."""
    states = np.arange(1, k + 1, dtype=_U64)
    states *= _U64_GAMMA
    states = seeds + states  # frees the steps: the mix adds one temporary
    return _mix64_array(states)


def _unit_floats(bits: np.ndarray) -> np.ndarray:
    """``uniform01`` of each 64-bit draw, as a float64 array; ``bits`` is
    spent."""
    bits >>= _SHIFTS[3]
    floats = bits.astype(float)
    floats *= 2.0**-53
    return floats


class SplitMix64:
    """splitmix64 stream over 64-bit states."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if type(seed) is not int:
            seed = _check_integer("seed", seed)
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_u64s(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array, leaving the state that k
        ``next_u64`` calls leave."""
        if type(k) is not int or k < 0:
            k = _check_count("k", k, 0)
        bits = _u64_rows(_U64(self._state), k)
        self._state = (self._state + k * _GAMMA) & _MASK64
        return bits

    def uniform01(self) -> float:
        """Float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo draw, bias ~range/2**64 is irrelevant here."""
        if hi < lo:
            raise DomainError(f"empty integer range [{_shown(lo)}, {_shown(hi)}]")
        return lo + self.next_u64() % (hi - lo + 1)


def _as_integer(value) -> int | None:
    """The one integer rule: ``value`` as a Python int when
    ``operator.index`` admits it and it is not a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_integer(name: str, value) -> int:
    """``value`` by the integer rule; anything else is refused by name."""
    integer = _as_integer(value)
    if integer is None:
        raise MalformedInputError(f"{name} must be an integer")
    return integer


def _check_count(name: str, value, low: int) -> int:
    """The one count guard: ``value`` as a Python int, by the integer
    rule, of at least ``low``."""
    count = _check_integer(name, value)
    if count < low:
        raise DomainError(f"{name} must be >= {low}, got {_shown(count)}")
    return count


def derive_seed(*parts: int) -> int:
    """Fold integers into a 64-bit child seed; order-sensitive."""
    acc = 0
    for part in parts:
        if type(part) is not int:  # a plain int skips the rule: the sweep calls this per cell
            part = _check_integer("seed part", part)
        acc = _mix64((acc ^ (part & _MASK64)) + _GAMMA & _MASK64)
    return acc


def _child_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(*parts, t)`` for t in range(start, stop), as a uint64
    array, where ``seed`` is ``derive_seed(*parts)`` and 0 <= start <= stop
    <= 2**64: each index folds in as the last part does there."""
    acc = np.arange(start, stop, dtype=_U64)
    acc ^= _U64(seed)
    acc += _U64_GAMMA
    return _mix64_array(acc)


@dataclass(frozen=True)
class Uniform01:
    """Entries drawn i.i.d. uniform on [0, 1)."""

    def sample(self, rng: SplitMix64) -> float:
        return rng.uniform01()

    def samples(self, rng: SplitMix64, k: int) -> np.ndarray:
        """k samples as a float64 array, equal to k ``sample`` calls."""
        return _unit_floats(rng.next_u64s(k))


@dataclass(frozen=True)
class IntegerRange:
    """Entries drawn i.i.d. uniform on the integers {lo..hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "lo", _check_integer("lo", self.lo))
        object.__setattr__(self, "hi", _check_integer("hi", self.hi))
        # samples are floats, which hold every integer up to 2**53 exactly
        if max(abs(self.lo), abs(self.hi)) > 2**53:
            raise DomainError("integer range bounds must lie in [-2**53, 2**53]")
        if self.hi < self.lo:
            raise DomainError(f"empty integer range [{self.lo}, {self.hi}]")

    def sample(self, rng: SplitMix64) -> float:
        return float(rng.randint(self.lo, self.hi))

    def samples(self, rng: SplitMix64, k: int) -> np.ndarray:
        """k samples as a float64 array, equal to k ``sample`` calls: the
        offsets stay below 2**54 + 1 and the values within +-2**53, so
        int64 holds both and float64 each value exactly."""
        offsets = rng.next_u64s(k)
        offsets %= _U64(self.hi - self.lo + 1)
        values = offsets.view(np.int64)
        values += np.int64(self.lo)
        return values.astype(float)


Distribution = Uniform01 | IntegerRange

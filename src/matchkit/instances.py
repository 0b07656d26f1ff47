"""Problem instances, matchings, derived quantities, and serialization.

An instance is a pair of n-by-n reward tables: ``theta_m[i][j]`` is the
reward to man i from marrying woman j, ``theta_w[i][j]`` the reward to
woman j from marrying man i.  A matching assigns each man a distinct
woman.  All types are immutable after construction and safe to share
across workers.

Indexing is 0-based throughout the library; human-facing CLI output is
1-based with primes on the women's side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidMatchingError,
    MalformedInputError,
    NonFiniteEntryError,
    SizeLimitError,
)
from .rng import Distribution, SplitMix64, Uniform01, _as_integer, _check_integer

Matrix = tuple[tuple[float, ...], ...]

# Entry types a row may hold to skip the per-entry check (bool excluded);
# np.float64 subclasses float, so float() converts it as the check would.
_PLAIN_NUMBERS = {int, float, np.float64}
_FLOATS = {float}  # a row of these is kept as it is

GENERATION_LIMIT = 2000  # random_instance holds 2n^2 Python floats at once


def _coerce_matrix(rows, n: int, name: str) -> Matrix:
    """Validate an n-by-n matrix of finite numbers; return it frozen."""
    try:
        row_list = list(rows)
    except TypeError:
        raise MalformedInputError(f"{name} must be a list of rows") from None
    if len(row_list) != n:
        raise DimensionMismatchError(f"{name} must have {n} rows, got {len(row_list)}")
    out = []
    for r, row in enumerate(row_list):
        try:
            entries = tuple(row)
        except TypeError:
            raise MalformedInputError(f"{name} row {r} must be a list") from None
        if len(entries) != n:
            raise DimensionMismatchError(
                f"{name} row {r} must have {n} entries, got {len(entries)}"
            )
        out.append(_coerce_row(entries, name, r))
    return tuple(out)


def _coerce_row(entries: tuple, name: str, r: int | None = None) -> tuple[float, ...]:
    """The one finite-number check: ``entries`` as floats.  A row of plain
    numbers with a finite sum (so only finite terms) passes at once; any
    other goes entry by entry, admitting int and float subclasses but not
    bool, and names the first offending entry, ``name[r][c]`` or ``name[c]``."""
    types = set(map(type, entries))
    if types <= _PLAIN_NUMBERS:
        try:
            vals = entries if types == _FLOATS else tuple(map(float, entries))
        except OverflowError:
            vals = None
        if vals is not None and math.isfinite(sum(vals)):
            return vals
    where = name if r is None else f"{name}[{r}]"
    vals = []
    for c, x in enumerate(entries):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise MalformedInputError(f"{where}[{c}] is not a number")
        try:
            x = float(x)
        except OverflowError:  # an int too large for a float
            x = math.inf
        if not math.isfinite(x):
            raise NonFiniteEntryError(f"{where}[{c}] is not finite")
        vals.append(x)
    return tuple(vals)


def _check_count(name: str, value, low: int) -> int:
    """The one count guard: ``value`` as a Python int, by the integer
    rule, of at least ``low``."""
    count = _check_integer(name, value)
    if count < low:
        raise DomainError(f"{name} must be >= {low}, got {count}")
    return count


def _check_limit(what: str, n: int, limit: int) -> None:
    """The one size guard, in front of exponential work or a table too
    large to draw: at most ``limit`` couples."""
    if n > limit:
        raise SizeLimitError(f"{what} limited to n <= {limit}, got {n}")


@dataclass(frozen=True)
class Instance:
    """A two-sided market: n men, n women, and their reward tables.

    ``beta`` is an optional n-by-n table of transfer retention factors,
    carried along for the taxed-transfer bargaining model; its range is
    validated where the model is built, not here.
    """

    n: int
    theta_m: Matrix
    theta_w: Matrix
    beta: Matrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count("n", self.n, 1))
        object.__setattr__(self, "theta_m", _coerce_matrix(self.theta_m, self.n, "theta_m"))
        object.__setattr__(self, "theta_w", _coerce_matrix(self.theta_w, self.n, "theta_w"))
        if self.beta is not None:
            object.__setattr__(self, "beta", _coerce_matrix(self.beta, self.n, "beta"))

    def mirrored(self) -> "Instance":
        """Swap the sides: women become the proposing side.

        Rewards transpose so that the new men's table is the old women's
        table read from the woman's viewpoint, and vice versa; ``beta``,
        when present, transposes with them.
        """
        beta = None if self.beta is None else tuple(zip(*self.beta))
        return Instance(self.n, tuple(zip(*self.theta_w)), tuple(zip(*self.theta_m)), beta)


@dataclass(frozen=True)
class Matching:
    """A bijection from men to women: assignment[i] is man i's woman."""

    assignment: tuple[int, ...]
    _inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            assignment = tuple(map(_as_integer, self.assignment))
        except TypeError:
            raise MalformedInputError("assignment must be a sequence of integers") from None
        n = len(assignment)
        if n == 0:
            raise InvalidMatchingError("assignment must not be empty")
        inverse = [-1] * n
        for i, j in enumerate(assignment):
            if j is None:
                raise MalformedInputError(f"assignment[{i}] is not an integer")
            if not 0 <= j < n:
                raise InvalidMatchingError(f"assignment[{i}]={j} out of range 0..{n - 1}")
            if inverse[j] != -1:
                raise InvalidMatchingError(f"woman {j} assigned twice")
            inverse[j] = i
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "_inverse", tuple(inverse))

    @property
    def n(self) -> int:
        return len(self.assignment)

    def woman_of(self, man: int) -> int:
        return self.assignment[man]

    def man_of(self, woman: int) -> int:
        return self._inverse[woman]

    @property
    def inverse(self) -> tuple[int, ...]:
        """inverse[j] = the man matched to woman j."""
        return self._inverse


def _lex_search(
    n: int, admits: Callable[[tuple[int, ...]], bool], depth: int
) -> Iterator[tuple[int, ...]]:
    """Every assignment of n men, in lexicographic order, that extends no
    prefix ``admits`` rejects.

    Depth first: man k is placed after men 0..k-1, trying the free women
    in ascending index.  ``admits`` is asked about each prefix of 2 to
    ``depth`` couples (one couple alone never blocks); longer prefixes
    are not checked.
    """

    def extend(prefix: tuple[int, ...], rest: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) >= depth:
            for tail in permutations(rest):
                yield prefix + tail
            return
        for i, w in enumerate(rest):
            grown = prefix + (w,)
            if len(grown) < 2 or admits(grown):
                yield from extend(grown, rest[:i] + rest[i + 1 :])

    if depth < 2:
        return permutations(range(n))
    return extend((), tuple(range(n)))


def _check_unit_interval(name: str, value) -> None:
    """The one range guard on sharing levels: ``value`` must be an int or
    a float (not a bool) in [0, 1]; NaN fails the comparison."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class PQParams:
    """Sharing levels: p between pairs, q inside a pair, both in [0, 1]."""

    p: float
    q: float

    def __post_init__(self):
        _check_unit_interval("p", self.p)
        _check_unit_interval("q", self.q)
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class CutVector:
    """Per-person payoffs: u[i] for man i, v[j] for woman j."""

    u: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        try:
            u, v = tuple(self.u), tuple(self.v)
        except TypeError:
            raise MalformedInputError("cut vectors must be sequences of numbers") from None
        if len(u) != len(v):
            raise DimensionMismatchError(f"cut vectors differ in length: {len(u)} vs {len(v)}")
        if len(u) == 0:
            raise DimensionMismatchError("cut vectors must not be empty")
        object.__setattr__(self, "u", _coerce_row(u, "u"))
        object.__setattr__(self, "v", _coerce_row(v, "v"))

    @property
    def n(self) -> int:
        return len(self.u)

    def total(self) -> float:
        return sum(self.u) + sum(self.v)


def _check_fits(n: int, matching: Matching, cuts: CutVector | None = None) -> None:
    """The one size guard: the matching, and the cuts when given, must
    have n couples."""
    if matching.n != n:
        raise DimensionMismatchError(f"matching size {matching.n} does not fit instance size {n}")
    if cuts is not None and cuts.n != n:
        raise DimensionMismatchError(f"cut vector size {cuts.n} does not fit instance size {n}")


@dataclass(frozen=True)
class PreferenceProfile:
    """Derived ordinal preferences, ties broken by ascending index.

    ``men[i]`` lists women in strictly decreasing reward order for man i,
    ``women[j]`` lists men likewise for woman j.  ``has_ties`` reports
    whether any two rewards inside one list were exactly equal, in which
    case the tie-broken order is a convention rather than a preference.
    """

    men: tuple[tuple[int, ...], ...]
    women: tuple[tuple[int, ...], ...]
    has_ties: bool


def combined_rewards(inst: Instance) -> Matrix:
    """Pooled reward table: entrywise sum of the two sides' tables."""
    return tuple(
        tuple(tm + tw for tm, tw in zip(row_m, row_w))
        for row_m, row_w in zip(inst.theta_m, inst.theta_w)
    )


def preference_orders(inst: Instance) -> PreferenceProfile:
    """Rank each side's partners by decreasing reward.

    One stable argsort of both sides' negated rewards: equal rewards tie,
    keep ascending index order, and are flagged.
    """
    tables = -np.array(inst.theta_m + tuple(zip(*inst.theta_w)))
    order = np.argsort(tables, axis=1, kind="stable")
    tables.sort(axis=1)
    lists = tuple(map(tuple, order.tolist()))
    has_ties = bool((tables[:, 1:] == tables[:, :-1]).any())
    return PreferenceProfile(lists[: inst.n], lists[inst.n :], has_ties)


def random_instance(n: int, seed: int, dist: Distribution = Uniform01()) -> Instance:
    """Seeded random instance; identical bits for identical arguments."""
    n = _check_count("n", n, 1)
    _check_limit("instance generation", n, GENERATION_LIMIT)
    rng = SplitMix64(_check_integer("seed", seed))
    theta_m = tuple(tuple(dist.sample(rng) for _ in range(n)) for _ in range(n))
    theta_w = tuple(tuple(dist.sample(rng) for _ in range(n)) for _ in range(n))
    return Instance(n, theta_m, theta_w)


def _load_json(text: str):
    """``json.loads``, its failures raised as MalformedInputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise MalformedInputError("not valid JSON: nested too deeply") from None


def parse_instance(text: str) -> Instance:
    """Read an instance from its JSON form.

    Expected shape: ``{"n": int, "theta_m": [[...]], "theta_w": [[...]],
    "beta": [[...]]}`` with ``beta`` optional.  Malformed JSON, shape
    mismatches, and non-finite entries raise distinct errors.
    """
    data = _load_json(text)
    if not isinstance(data, dict):
        raise MalformedInputError("instance JSON must be an object")
    missing = [key for key in ("n", "theta_m", "theta_w") if key not in data]
    if missing:
        raise MalformedInputError(f"instance JSON missing keys: {', '.join(missing)}")
    return Instance(
        n=data["n"],
        theta_m=data["theta_m"],
        theta_w=data["theta_w"],
        beta=data.get("beta"),
    )


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance, up to whitespace and number formatting."""
    payload = {
        "n": inst.n,
        "theta_m": [list(row) for row in inst.theta_m],
        "theta_w": [list(row) for row in inst.theta_w],
    }
    if inst.beta is not None:
        payload["beta"] = [list(row) for row in inst.beta]
    return json.dumps(payload, indent=2)


def parse_matching(text: str) -> Matching:
    """Read a matching from ``{"assignment": [ints]}`` (0-based)."""
    data = _load_json(text)
    if not isinstance(data, dict) or "assignment" not in data:
        raise MalformedInputError('matching JSON must be an object with key "assignment"')
    assignment = data["assignment"]
    if not isinstance(assignment, list):
        raise MalformedInputError("assignment must be a list of integers")
    return Matching(tuple(assignment))


def serialize_matching(matching: Matching) -> str:
    return json.dumps({"assignment": list(matching.assignment)})

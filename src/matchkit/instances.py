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
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import orjson

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidMatchingError,
    MalformedInputError,
    MatchkitError,
    NonFiniteEntryError,
    SizeLimitError,
    _shown,
)
from .rng import Distribution, SplitMix64, Uniform01, _as_integer, _check_count, _check_integer

Matrix = tuple[tuple[float, ...], ...]

# Entry types a row may hold to skip the per-entry check (bool excluded);
# np.float64 subclasses float, so float() converts it as the check would.
_PLAIN_NUMBERS = {int, float, np.float64}
_FLOATS = {float}  # a row of these is kept as it is
_NUMBERS = (int, float, np.integer, np.floating)  # np.bool_ is neither

# random_instance draws its 2n^2 rewards through two uint64 arrays of that
# size, then holds them as a float64 array and as Python floats at once
GENERATION_LIMIT = 2000

# Iterables that are not sequences of entries: a text iterates over its
# characters, a dict (a JSON object) over its keys.
_NOT_SEQUENCES = (str, bytes, dict)


class _Table(tuple):
    """A validated n-by-n table of finite floats, held as its rows: it
    compares, hashes, prints and pickles as its tuple of float tuples, which
    exist from construction.  ``array`` is its float64 array, built on first
    use, read-only, and kept.  ``chain_run`` is the last settled chain
    relaxation ``transferable`` ran on it, or None; it is not pickled."""

    chain_run = None

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.array(self, dtype=float)
        arr.flags.writeable = False
        return arr

    def __reduce__(self):
        return _Table, (tuple(self),)


class _ArrayTable:
    """The array-first form of ``_Table``, for tables that numpy engines
    read whole: ``array``, a read-only float64 array of finite entries, is
    the table.  It compares, hashes, prints and iterates as its tuple of
    float tuples, ``rows``, which are built from the array on first read
    and kept, and pickles as a ``_Table`` of them; its length is the
    array's row count, read without them.  ``chain_run`` is as on
    ``_Table``."""

    chain_run = None

    def __init__(self, array: np.ndarray):
        array.flags.writeable = False
        self.array = array

    @cached_property
    def rows(self) -> Matrix:
        return tuple(map(tuple, self.array.tolist()))

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return self.rows == other

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return repr(self.rows)

    def __reduce__(self):
        return _Table, (self.rows,)


_TABLES = (_Table, _ArrayTable)  # the two forms, tested by exact type, the fastest test


# The largest n of the searches that index tables in Python (stable-set
# enumeration, the existence oracle), which take their limits from it.
# Parsed tables of more rows are held array-first; these keep tuple rows.
SEARCH_LIMIT = 8


def _coerce_matrix(rows, n: int | None, name: str) -> Matrix:
    """The one table entry: validate an n-by-n matrix of finite numbers, or
    with ``n`` None a square one of its own row count; return it frozen,
    as a ``_Table``.  A ``_Table`` or ``_ArrayTable`` of that size is
    returned as it is."""
    if type(rows) in _TABLES and n in (None, len(rows)):
        return rows
    try:
        if isinstance(rows, _NOT_SEQUENCES):
            raise TypeError
        row_list = list(rows)
    except TypeError:
        raise MalformedInputError(f"{name} must be a list of rows") from None
    if n is None:
        n = len(row_list)
    elif len(row_list) != n:
        raise DimensionMismatchError(f"{name} must have {_shown(n)} rows, got {len(row_list)}")
    out = []
    for r, row in enumerate(row_list):
        try:
            if isinstance(row, _NOT_SEQUENCES):
                raise TypeError
            entries = tuple(row)
        except TypeError:
            raise MalformedInputError(f"{name} row {r} must be a list") from None
        if len(entries) != n:
            raise DimensionMismatchError(
                f"{name} row {r} must have {n} entries, got {len(entries)}"
            )
        out.append(_coerce_row(entries, name, r))
    return _Table(out)


def _coerce_row(entries: tuple, name: str, r: int | None = None) -> tuple[float, ...]:
    """The one finite-number check: ``entries`` as floats.  A row of plain
    numbers with a finite sum (so only finite terms) passes at once; any
    other goes entry by entry, admitting int and float subclasses and numpy
    numbers by their float value, but not bool or ``np.bool_``, and names
    the first offending entry, ``name[r][c]`` or ``name[c]``."""
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
        if isinstance(x, bool) or not isinstance(x, _NUMBERS):
            raise MalformedInputError(f"{where}[{c}] is not a number")
        try:
            x = float(x)
        except OverflowError:  # an int too large for a float
            x = math.inf
        if not math.isfinite(x):
            raise NonFiniteEntryError(f"{where}[{c}] is not finite")
        vals.append(x)
    return tuple(vals)


def _check_limit(what: str, n: int, limit: int) -> None:
    """The one size guard, in front of exponential work or a table too
    large to draw: at most ``limit`` couples."""
    if n > limit:
        raise SizeLimitError(f"{what} limited to n <= {limit}, got {_shown(n)}")


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
                raise InvalidMatchingError(f"assignment[{i}]={_shown(j)} out of range 0..{n - 1}")
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
    n: int, keep: Callable[[int, int, int, list[int]], list[int]]
) -> Iterator[tuple[int, ...]]:
    """Every assignment of n men, in lexicographic order, that forward
    checking through ``keep`` leaves.

    Man k takes each woman y left in his domain in ascending index; then
    each later man b, in ascending order, narrows his domain to
    ``keep(k, y, b, women)``: of the women the earlier couples left him,
    those he may take beside (k, y) (never y).  The first domain to
    empty backs the search off.
    """

    def extend(prefix: tuple[int, ...], domains: list[list[int]]) -> Iterator[tuple[int, ...]]:
        if not domains:
            yield prefix
            return
        k = len(prefix)
        for y in domains[0]:
            narrowed = []
            for b, women in enumerate(domains[1:], k + 1):
                narrowed.append(keep(k, y, b, women))
                if not narrowed[-1]:
                    break
            else:
                yield from extend(prefix + (y,), narrowed)

    return extend((), [list(range(n))] * n)


def _check_unit_interval(name: str, value) -> float:
    """The one range guard on sharing levels: ``value``, a number of a type
    a table takes (not a bool), in [0, 1], as a Python float; NaN fails the
    comparison."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {_shown(value, repr)}")
    return float(value)


@dataclass(frozen=True)
class PQParams:
    """Sharing levels: p between pairs, q inside a pair, both in [0, 1]."""

    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_unit_interval("p", self.p))
        object.__setattr__(self, "q", _check_unit_interval("q", self.q))


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


def _check_pair(n: int, i, j) -> tuple[int, int]:
    """The one pair guard: man i and woman j as Python ints, by the
    integer rule, each in 0..n - 1."""
    pair = _as_integer(i), _as_integer(j)
    if None in pair:
        raise MalformedInputError(f"pair ({_shown(i, repr)}, {_shown(j, repr)}) must be integers")
    if not (0 <= pair[0] < n and 0 <= pair[1] < n):
        raise DomainError(f"pair ({_shown(i)}, {_shown(j)}) out of range for n={n}")
    return pair


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
    """Pooled reward table: entrywise sum of the two sides' tables, the
    same IEEE add as Python's on each entry.  When every sum is finite it
    is an ``_ArrayTable`` holding that numpy sum as its array, whose tuple
    rows are built only if something reads them; an overflowing one stays
    a plain tuple of rows, for the engines to refuse."""
    with np.errstate(over="ignore"):
        pooled = inst.theta_m.array + inst.theta_w.array
    if not np.isfinite(pooled).all():
        return tuple(map(tuple, pooled.tolist()))
    return _ArrayTable(pooled)


def preference_orders(inst: Instance) -> PreferenceProfile:
    """Rank each side's partners by decreasing reward.

    One stable argsort of both sides' negated rewards: equal rewards tie,
    keep ascending index order, and are flagged.
    """
    tables = -np.concatenate((inst.theta_m.array, inst.theta_w.array.T))
    order = np.argsort(tables, axis=1, kind="stable")
    tables.sort(axis=1)
    lists = tuple(map(tuple, order.tolist()))
    has_ties = bool((tables[:, 1:] == tables[:, :-1]).any())
    return PreferenceProfile(lists[: inst.n], lists[inst.n :], has_ties)


def random_instance(n: int, seed: int, dist: Distribution = Uniform01()) -> Instance:
    """Seeded random instance; identical bits for identical arguments.

    The 2n^2 rewards are one block of draws, read row by row into the
    men's table and then the women's: the entries that ``dist.sample``
    would give one at a time in that order.  Draws are finite, so the
    tables need no entry check.
    """
    n = _check_count("n", n, 1)
    _check_limit("instance generation", n, GENERATION_LIMIT)
    rng = SplitMix64(_check_integer("seed", seed))
    if not isinstance(dist, Distribution):
        raise MalformedInputError("dist must be a Uniform01 or IntegerRange instance")
    return _drawn_instance(n, dist.samples(rng, 2 * n * n).reshape(2 * n, n).tolist())


def _drawn_instance(n: int, rows: list) -> Instance:
    """The instance whose tables hold ``rows``, 2n lists of n finite floats:
    the men's table, then the women's."""
    return Instance(n, _Table(map(tuple, rows[:n])), _Table(map(tuple, rows[n:])))


def _load_json(text: str):
    """``json.loads``, its failures raised as MalformedInputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"not valid JSON: {exc.msg}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise MalformedInputError("not valid JSON: integer literal has too many digits") from None
    except RecursionError:
        raise MalformedInputError("not valid JSON: nested too deeply") from None


# The depth guard's view of a text: quotes, backslashes, brackets, every
# bracket read as a square one, and the first letters of true and false.
_SQUARE_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b'"[]{}\\tf')))
_SCHEMA_DEPTH = 3  # an instance's object, table and row; a matching nests 2 deep


def _shallow_utf8(text: str) -> tuple[bytes, int | None] | None:
    """``text`` as UTF-8 and its number of strings, when its brackets
    outside strings nest at most _SCHEMA_DEPTH deep and close, else None
    (so too for a backslash or a lone surrogate).  The count is None when
    a ``true`` or ``false`` stands outside the strings.

    Quotes pair left to right, as a parser pairs them when no backslash
    escapes one.  Outside strings a ``t`` or an ``f`` begins a literal
    (or ``Infinity``, which orjson refuses).  Each round strips every
    bracket pair that encloses nothing, one level of nesting, so the
    skeleton empties within _SCHEMA_DEPTH rounds exactly when the guard
    holds.  A letter keeps its brackets, so a skeleton that empties with
    the letters in holds none; only one that does not is stripped of them
    and run again, and a text with no literal pays for no test of one.  A
    ``[`` closed by ``}`` passes, but a parser refuses it on reaching the
    ``}``, no deeper than the guard allows.
    """
    try:
        raw = text.encode()
    except UnicodeEncodeError:
        return None
    skeleton = raw.translate(_SQUARE_BRACKETS, _NOT_SKELETON)
    pieces = skeleton.split(b'"')  # even pieces lie outside strings
    if b"\\" in skeleton or len(pieces) % 2 == 0:
        return None
    outside = skeleton = b"".join(pieces[::2])
    for _ in range(_SCHEMA_DEPTH):
        skeleton = skeleton.replace(b"[]", b"")
    if not skeleton:
        return raw, len(pieces) // 2
    skeleton = outside.translate(None, b"tf")
    for _ in range(_SCHEMA_DEPTH):
        skeleton = skeleton.replace(b"[]", b"")
    return None if skeleton else (raw, None)


def _orjson_build(text: str, build: Callable, counted: bool = False):
    """``build`` applied to orjson's value of ``text``, and when
    ``counted`` to the guard's count of its strings too, or None when the
    depth guard, orjson or ``build`` refuses it.

    orjson may see only texts that pass the guard: it crashes on deep
    nesting and accepts some that ``json`` refuses.  Its floats are
    correctly rounded, as ``float()`` is.  It refuses NaN, infinities,
    lone surrogates, integers beyond a float and broken JSON, and reads
    integers of 2**64 and more as floats, which ``build`` may refuse.  On
    None the caller decides from _load_json, so every outcome, value or
    error, is the stdlib's; it calls _load_json itself, because
    ``json.loads``'s nesting limit counts the caller's stack frames.
    """
    guarded = _shallow_utf8(text) if isinstance(text, str) else None
    if guarded is None:
        return None
    raw, strings = guarded
    try:
        data = orjson.loads(raw)
        return build(data, strings) if counted else build(data)
    except (orjson.JSONDecodeError, MatchkitError):
        return None


def _array_form(rows, n: int):
    """``rows`` as an ``_ArrayTable`` when ``np.array`` reads them as a
    finite n-by-n float64 array, else as they are, for the one table entry
    to validate or refuse.  Only for orjson values of a text with no
    ``true``, ``false`` or string value: ``np.array`` reads a bool as a
    number, and a table holding a string as a string array of n * n times
    its length; a null, an object or a short row gives no float64 matrix."""
    try:
        arr = np.array(rows)
    except ValueError:  # rows of unequal length
        return rows
    # orjson refuses infinities, but the table's finite contract does not rest on that
    if arr.dtype != np.float64 or arr.shape != (n, n) or not np.isfinite(arr).all():
        return rows
    return _ArrayTable(arr)


def _instance_from(data, strings: int | None = None) -> Instance:
    """The instance of a decoded text.  When n exceeds SEARCH_LIMIT and
    ``strings``, the guard's count, is the number of keys (so the keys are
    the only strings and no ``true`` or ``false`` stands outside them), each
    table goes in array-first if it can; any other goes in as decoded."""
    if not isinstance(data, dict):
        raise MalformedInputError("instance JSON must be an object")
    missing = [key for key in ("n", "theta_m", "theta_w") if key not in data]
    if missing:
        raise MalformedInputError(f"instance JSON missing keys: {', '.join(missing)}")
    n, theta_m, theta_w, beta = data["n"], data["theta_m"], data["theta_w"], data.get("beta")
    if type(n) is int and n > SEARCH_LIMIT and strings == len(data):
        theta_m, theta_w = _array_form(theta_m, n), _array_form(theta_w, n)
        if beta is not None:
            beta = _array_form(beta, n)
    return Instance(n, theta_m, theta_w, beta)


def parse_instance(text: str) -> Instance:
    """Read an instance from its JSON form.

    Expected shape: ``{"n": int, "theta_m": [[...]], "theta_w": [[...]],
    "beta": [[...]]}`` with ``beta`` optional.  Malformed JSON, shape
    mismatches, and non-finite entries raise distinct errors.
    """
    inst = _orjson_build(text, _instance_from, counted=True)
    return _instance_from(_load_json(text)) if inst is None else inst


# A row's entries as json.dumps(..., indent=2) writes them at a table's depth,
# through json's C encoder, which the indenting encoder does not use.
_ROW_TEXT = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def serialize_instance(inst: Instance) -> str:
    """Inverse of parse_instance, up to whitespace and number formatting.

    The text is ``json.dumps`` of ``{"n", "theta_m", "theta_w"}`` and
    ``"beta"`` when present, with indent 2, byte for byte; only the rows
    go through json, each in one call, and the frame is written here.
    """
    tables = {"theta_m": inst.theta_m, "theta_w": inst.theta_w}
    if inst.beta is not None:
        tables["beta"] = inst.beta
    parts = [f'{{\n  "n": {inst.n}']
    for key, table in tables.items():
        rows = "\n    ],\n    [\n      ".join([_ROW_TEXT(row)[1:-1] for row in table])
        parts += f',\n  "{key}": [\n    [\n      ', rows, "\n    ]\n  ]"
    parts.append("\n}")
    return "".join(parts)


def _matching_from(data) -> Matching:
    if not isinstance(data, dict) or "assignment" not in data:
        raise MalformedInputError('matching JSON must be an object with key "assignment"')
    assignment = data["assignment"]
    if not isinstance(assignment, list):
        raise MalformedInputError("assignment must be a list of integers")
    return Matching(tuple(assignment))


def parse_matching(text: str) -> Matching:
    """Read a matching from ``{"assignment": [ints]}`` (0-based)."""
    matching = _orjson_build(text, _matching_from)
    return _matching_from(_load_json(text)) if matching is None else matching


def serialize_matching(matching: Matching) -> str:
    return json.dumps({"assignment": list(matching.assignment)})

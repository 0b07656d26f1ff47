"""Global comparison tolerance.

Every stability predicate in the package reads "x > 0" as x > eps and
"x <= 0" as x <= eps, with a single documented tolerance.  Integer-valued
instances never come near the knife edge, so they exercise exact paths;
float instances get reproducible verdicts.  The CLI may override the
default through the MATCHKIT_EPS environment variable; library callers
pass ``eps`` explicitly instead.  Engines compare against the largest
float not above it, which ``_check_tolerance`` returns.
"""

import math
import os
import sys

import numpy as np

from .errors import DomainError
from .instances import _NUMBERS

DEFAULT_EPS = 1e-9

# Unit roundoff of a double: a rounded float operation errs by at most
# this fraction of its exact result (barring overflow and underflow).
UNIT_ROUNDOFF = 2.0**-53
_FLOAT_MAX = sys.float_info.max

_ENV_VAR = "MATCHKIT_EPS"


def rounding_bound(k: int, magnitude: float) -> float:
    """gamma_k * magnitude, gamma_k = k*u / (1 - k*u): the most k roundings
    can move a result whose terms' magnitudes sum to at most ``magnitude``,
    barring overflow and underflow (Higham, 2002, section 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF) * magnitude


def resolve_eps() -> float:
    """Tolerance for CLI runs: MATCHKIT_EPS if set, else the default."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_EPS
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"{_ENV_VAR} must be a number, got {raw!r}") from None
    return _check_tolerance(value, _ENV_VAR)


def _check_tolerance(eps: float, name: str = "eps") -> float:
    """The one tolerance guard, in every engine that takes ``eps``: a number a
    table entry takes, from 0 to the largest float, returned as the largest
    float not above it (a float as it is).  A NaN or infinite tolerance makes
    every "exceeds eps" test fail, a negative one lets a couple gain from
    itself, and a larger int overflows the float sums."""
    if isinstance(eps, np.generic):
        eps = eps.item()  # a Python number, so the range test cannot overflow
    if isinstance(eps, bool) or not isinstance(eps, _NUMBERS) or not 0 <= eps <= _FLOAT_MAX:
        raise DomainError(f"{name} must be a finite non-negative number")
    value = float(eps)
    return math.nextafter(value, 0.0) if value > eps else value

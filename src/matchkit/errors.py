"""Exception hierarchy shared by every engine in the package."""


def _shown(value, show=str) -> str:
    """``show(value)`` for an error message.  An int past the interpreter's
    digit limit for decimal text (4,300 digits by default) is given by its
    bit length instead, so the message is still raised."""
    try:
        return show(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


class MatchkitError(Exception):
    """Base class for all matchkit errors."""


class MalformedInputError(MatchkitError, ValueError):
    """Input text is not valid JSON, or a field has the wrong type."""


class DimensionMismatchError(MatchkitError, ValueError):
    """A matrix or vector does not have the required shape."""


class NonFiniteEntryError(MatchkitError, ValueError):
    """A matrix or vector contains NaN or an infinity."""


class InvalidMatchingError(MatchkitError, ValueError):
    """An assignment vector is not a permutation of {0..n-1}."""


class DomainError(MatchkitError, ValueError):
    """A scalar parameter lies outside its allowed range."""


class SizeLimitError(MatchkitError):
    """The instance is too large for a brute-force operation."""


class NotCyclicallyMonotoneError(MatchkitError):
    """Dual cuts were requested for a matching that admits a blocking chain."""


class PreconditionError(MatchkitError):
    """An operation was called with inputs that violate its precondition."""

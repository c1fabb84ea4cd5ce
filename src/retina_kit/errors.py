"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: validation errors exit 1,
numeric failures exit 2, and plain OSError (I/O) exits 3.
"""

from numbers import Integral


class RetinaKitError(Exception):
    """Base class for package errors."""


class ValidationError(RetinaKitError, ValueError):
    """Rejected input: bad config values, shape mismatches, malformed files."""


class NumericError(RetinaKitError, ArithmeticError):
    """Non-finite values where finite ones are required (loss, gradients)."""


def require_ints(section: str, obj, *names: str) -> None:
    """Reject each named field of obj that does not hold an integer (bools included)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValidationError(f"{section}.{name} must be an integer, got {value!r}")

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


def require_int(field: str, value) -> None:
    """Reject a value that is not an integer, or a list/tuple holding a non-integer.

    Bools are rejected too; field names the value in the message.
    """
    items = value if isinstance(value, (list, tuple)) else (value,)
    if any(isinstance(v, bool) or not isinstance(v, Integral) for v in items):
        what = "integers" if items is value else "an integer"
        raise ValidationError(f"{field} must be {what}, got {value!r}")


def require_ints(section: str, obj, *names: str) -> None:
    """require_int on each named field of obj, as "<section>.<name>"."""
    for name in names:
        require_int(f"{section}.{name}", getattr(obj, name))

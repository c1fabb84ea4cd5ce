"""Exception taxonomy shared across the package, and the config field check.

The CLI maps these onto its exit-code contract: validation errors exit 1,
numeric failures exit 2, and plain OSError (I/O) exits 3. check_fields checks
every config dataclass against its own annotations.
"""

import dataclasses
import functools
import sys
import typing
from numbers import Integral, Real


class RetinaKitError(Exception):
    """Base class for package errors."""


class ValidationError(RetinaKitError, ValueError):
    """Rejected input: bad config values, shape mismatches, malformed files."""


class NumericError(RetinaKitError, ArithmeticError):
    """Non-finite values where finite ones are required (loss, gradients)."""


def check_fields(obj, section: str) -> None:
    """Check each field of a config dataclass against its annotation, naming "<section>.<name>".

    bool takes true/false; int an integer, float a finite real number, neither a
    bool; str a string. tuple[T, ...] and tuple[T, T] take a list or tuple and
    store a tuple, float entries as floats; a dataclass entry may be a JSON object
    with exactly its fields. A wrong JSON type or shape raises TypeError (config
    loading reports a bad section); a non-integer or non-finite number, ValidationError.
    """
    for name, hint in _field_types(type(obj)).items():
        where = f"{section}.{name}" if section else name
        object.__setattr__(obj, name, check_value(getattr(obj, name), hint, where))


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_value(value, hint, where: str, listed: bool = False):
    """The value check_fields stores for one field; listed marks a list entry."""
    if hint is int:
        if not _is_int(value):
            raise ValidationError(f"{where} must be an integer, got {value!r}")
    elif hint is float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"{where} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int too large for a float
            raise ValidationError(f"{where} must be finite, got {value}")
        return float(value) if listed else value
    elif hint is bool or hint is str:
        if not isinstance(value, hint):
            what = "true or false" if hint is bool else "a string"
            raise TypeError(f"{where} must be {what}, got {value!r}")
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value  # checked by its own __post_init__
        types = _field_types(hint)
        if not isinstance(value, dict) or set(value) != set(types):
            raise TypeError(f"{where} must be an object with {' and '.join(types)}, got {value!r}")
        return hint(**{k: check_value(value[k], t, f"{where}.{k}", listed) for k, t in types.items()})
    else:  # tuple[T, ...] or tuple[T, T]
        item, *rest = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{where} must be a list, got {value!r}")
        if rest != [...] and len(value) != 1 + len(rest):
            raise TypeError(f"{where} must have {1 + len(rest)} entries, got {value!r}")
        if item is int and not all(map(_is_int, value)):
            raise ValidationError(f"{where} must be integers, got {value!r}")
        return tuple(check_value(v, item, f"{where}[{i}]", True) for i, v in enumerate(value))
    return value

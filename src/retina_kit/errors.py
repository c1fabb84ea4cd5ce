"""Exception taxonomy shared across the package, and the config value check.

The CLI maps these onto its exit-code contract: validation errors exit 1,
numeric failures exit 2, and plain OSError (I/O) exits 3. check_value is the
one rule from a JSON value to a config value, its type and its Bounds, a whole
run config included; check_fields applies it to every config dataclass built
in-process.
"""

import dataclasses
import functools
import math
import sys
import typing
from numbers import Integral, Real


class RetinaKitError(Exception):
    """Base class for package errors."""


class ValidationError(RetinaKitError, ValueError):
    """Rejected input: bad config values, shape mismatches, malformed files."""


class NumericError(RetinaKitError, ArithmeticError):
    """Non-finite values where finite ones are required (loss, gradients)."""


@dataclasses.dataclass(frozen=True)
class Bounds:
    """A field's range, as in Annotated[float, Bounds(0, 1, open_hi=True)]; no hi, no upper end."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def admits(self, v) -> bool:
        above = v > self.lo if self.open_lo else v >= self.lo
        return above and (v < self.hi if self.open_hi else v <= self.hi)

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>' if self.open_lo else '>='} {self.lo:g}"
        left = "(" if self.open_lo else "["
        right = ")" if self.open_hi else "]"
        return f"in {left}{self.lo:g}, {self.hi:g}{right}"


ABOVE_0 = Bounds(0, open_lo=True)
AT_LEAST_0 = Bounds(0)
UNIT = Bounds(0, 1)
OPEN_UNIT = Bounds(0, 1, open_lo=True, open_hi=True)


def indexed(where: str, values) -> list:
    """(where[i], value) for each entry of a list field."""
    return [(f"{where}[{i}]", v) for i, v in enumerate(values)]


def check_ordered(named, strict: bool = False) -> None:
    """named is (dotted field, value) pairs, each value <= the next one (< if strict)."""
    for (a, x), (b, y) in zip(named, named[1:]):
        if y < x or (strict and y == x):
            raise ValidationError(f"{a} {x} must be {'<' if strict else '<='} {b} {y}")


def check_fields(obj, section: str, listed: bool = False) -> None:
    """Check each field of a config dataclass (a list entry if listed) against its annotation."""
    prefix = f"{section}." if section else ""
    for name, hint in _field_types(type(obj)).items():
        object.__setattr__(obj, name, check_value(getattr(obj, name), hint, prefix + name, listed))


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_value(value, hint, where: str, listed: bool = False):
    """value as a field annotated hint stores it, else a ValidationError naming where.

    where is the dotted field ("" for the run config); listed marks a list entry.
    bool takes true/false; int an integer, float a finite real number, neither a
    bool; str a string. tuple[T, ...] takes a non-empty list or tuple and
    tuple[T, T] one of two entries; both store a tuple, float entries as floats.
    Annotated[T, Bounds(...)] takes a T within the bounds, each entry of it for a
    list. A config dataclass takes an instance, or an object of its fields that
    it checks itself (see check_fields); a missing key takes the field's default.
    """
    if typing.get_origin(hint) is typing.Annotated:
        value = check_value(value, hint.__origin__, where, listed)
        for bounds in hint.__metadata__:
            for name, v in indexed(where, value) if isinstance(value, tuple) else [(where, value)]:
                if not bounds.admits(v):
                    raise ValidationError(f"{name} must be {bounds}, got {v}")
    elif hint is int:
        if not _is_int(value):
            raise ValidationError(f"{where} must be an integer, got {value!r}")
    elif hint is float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValidationError(f"{where} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int too large for a float
            raise ValidationError(f"{where} must be finite, got {value}")
        return float(value) if listed else value
    elif hint is bool or hint is str:
        if not isinstance(value, hint):
            what = "true or false" if hint is bool else "a string"
            raise ValidationError(f"{where} must be {what}, got {value!r}")
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value  # checked by its own __post_init__ (a level by its AnchorConfig's)
        if not isinstance(value, dict):
            raise ValidationError(
                f"{where} must be an object" if where else "run config must be a JSON object"
            )
        unknown = sorted(set(value) - set(_field_types(hint)))
        if unknown:
            raise ValidationError(
                f"{where} has unknown keys: {unknown}"
                if where
                else f"unknown top-level config keys: {unknown}"
            )
        prefix = f"{where}." if where else ""
        for f in dataclasses.fields(hint):  # a field with neither default nor factory is required
            if f.name not in value and f.default is f.default_factory is dataclasses.MISSING:
                raise ValidationError(f"{prefix}{f.name} is missing")
        return hint(**value)
    else:  # tuple[T, ...] or tuple[T, T]
        item, *rest = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        if rest == [...] and not value:
            raise ValidationError(f"{where} must be non-empty")
        if rest != [...] and len(value) != 1 + len(rest):
            raise ValidationError(f"{where} must have {1 + len(rest)} entries, got {value!r}")
        if item is int and not all(map(_is_int, value)):
            raise ValidationError(f"{where} must be integers, got {value!r}")
        return tuple(check_value(v, item, name, True) for name, v in indexed(where, value))
    return value

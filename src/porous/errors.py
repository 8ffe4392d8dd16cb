"""Exception types shared across the package, the one rule for numbers
read from an outside file, and the one reader of a setting's bounds.

A setting's legal values are stated once, as the JSON schema in the
metadata of its dataclass field (``setting``).  ``conform`` reads that
schema, so a config file, a library constructor and a family header all
refuse the same values, with messages that name the field.
"""
from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import field, fields
from typing import Optional


class PorousError(Exception):
    """Base class for package-specific failures; keyword arguments are
    kept as ``details``, the failure's diagnostics."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class PreconditionError(PorousError):
    """An audited precondition of an operation failed; carries diagnostics."""


class BlendPreconditionError(PreconditionError):
    """Fields passed to blend differ too much on the matching annulus."""


class ConstructionFailure(PorousError):
    """A build stage could not certify its guarantees; carries diagnostics."""


class AuditFailure(PorousError):
    """A verification audit found a concrete violation; carries diagnostics."""


class ParseError(PorousError):
    """A serialized artifact is malformed; message names the record."""


class ConfigError(PorousError):
    """A run configuration failed validation; message lists every problem."""


class NeedsMoreSamples(PorousError):
    """A sampled certification stayed indeterminate within budget."""


# The rule for numbers read from an input file: a number is an int or a
# float, numpy's included, and a bool or a string is not one.  Each
# converter raises a ValueError that names the field.

def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _bad(name: str, what: str, value) -> ValueError:
    return ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")


def real(name: str, value, positive: bool = False,
         finite: bool = True) -> float:
    """``value``, the field ``name``, as a float: a real number that fits
    a float, finite unless ``finite`` is False, and > 0 if ``positive``."""
    try:
        x = float(value) if is_number(value) else None
    except OverflowError:               # an int too large for a float
        x = None
    if x is None or (finite and not math.isfinite(x)) \
            or (positive and not x > 0):
        raise _bad(name, " ".join(["a"] + ["finite"] * finite
                                  + ["positive"] * positive + ["number"]),
                   value)
    return x


def integer(name: str, value, least: int = 1,
            most: Optional[int] = None) -> int:
    """``value``, the field ``name``, as an int in [least, most]; a float
    is not one, even a whole one."""
    if not (is_number(value) and isinstance(value, numbers.Integral)) \
            or value < least or (most is not None and value > most):
        raise _bad(name, f"an integer in [{least}, {most}]" if most is not None
                   else "a positive integer" if least == 1
                   else f"an integer >= {least}", value)
    return int(value)


def listed(name: str, value) -> list:
    """``value``, the field ``name``, which must be a non-empty list."""
    if not isinstance(value, (list, tuple)) or not value:
        raise _bad(name, "a non-empty list", value)
    return value


def setting(default, **schema):
    """A dataclass field holding ``default``, its legal values stated by
    the JSON ``schema`` kept in its metadata."""
    return field(default=default, metadata={"schema": schema})


def conform(name: str, value, schema: dict):
    """``value``, the field ``name``, as its JSON ``schema`` admits it: an
    integer by ``integer`` within ``minimum`` and ``maximum``, a number by
    ``real`` strictly between ``exclusiveMinimum`` and
    ``exclusiveMaximum``, and a non-empty array item by item as a tuple."""
    kind = schema["type"]
    if kind == "integer":
        return integer(name, value, schema["minimum"], schema.get("maximum"))
    if kind == "array":
        return tuple(conform(name, x, schema["items"])
                     for x in listed(name, value))
    x = real(name, value)
    low = schema["exclusiveMinimum"]
    high = schema.get("exclusiveMaximum", math.inf)
    if not low < x < high:
        raise _bad(name, f"a number in ({low}, {high})", value)
    return x


def conform_fields(obj) -> None:
    """Convert in place, by ``conform``, each field of the frozen
    dataclass ``obj`` that has a schema."""
    for f in fields(obj):
        if "schema" in f.metadata:
            object.__setattr__(obj, f.name, conform(
                f.name, getattr(obj, f.name), f.metadata["schema"]))

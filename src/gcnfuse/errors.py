"""Exception types shared across the package, and the three readers (read_array, read_integer,
read_number) through which graphs, models and the solver, cost and fusion settings check values."""

import math
import numbers
from contextlib import suppress

import numpy as np


class GcnFuseError(Exception):
    """Base class for all package errors."""


class DatasetFormatError(GcnFuseError):
    """A dataset file could not be parsed or violates a record invariant."""


class ModelFormatError(GcnFuseError):
    """A model file could not be parsed or violates the layer schema."""


class DimensionMismatchError(GcnFuseError):
    """Operands have incompatible shapes."""


class InvalidSpecError(GcnFuseError):
    """A generator/config spec is infeasible or out of range."""


class SolverError(GcnFuseError):
    """An optimal-transport solver was given invalid input."""


class NumericalError(SolverError):
    """A solver hit NaN/overflow that the stabilized path could not absorb."""


def read_array(values, ndim: int, what: str, error: type[Exception]) -> np.ndarray:
    """values as a read-only float64 array of ndim dimensions whose entries are all finite."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not numeric ({exc})") from exc
    if arr.ndim != ndim:
        raise error(f"{what} must be a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise error(f"{what} holds NaN or infinite values")
    arr.setflags(write=False)
    return arr


def read_integer(value, what: str, error: type[Exception]) -> int:
    """value as an int: an integral value, not a bool (int() would truncate 1.5 and read "3")."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise error(f"{what} {value!r} is not an integer")


def read_number(value, what: str, error: type[Exception]) -> float:
    """value as a float: a finite real in the float range, not a bool ("2.5" and True fail)."""
    with suppress(OverflowError):  # isfinite of an int too large for a float
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise error(f"{what} {value!r} is not a finite number")

"""Exception types shared across the package, and the three readers (read_array, read_integer,
read_number) through which graphs, models, the solvers and every setting check values.

read_integer and read_number also take inclusive bounds, least and most (None leaves that end
open); a value out of range raises the caller's error as "{what} must be >= {least}, got {x!r}",
"... <= {most} ..." or "... in [{least}, {most}], got {x!r}", x being the int or float as read."""

import json
import math
import numbers
from contextlib import suppress
from itertools import chain

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


_NOT_NUMBERS = frozenset("bUSOc")  # dtype kinds of bool, str, bytes, object and complex arrays
_ROWS, _PLAIN = frozenset((list, tuple)), frozenset((list, tuple, float, int))  # _PLAIN: read untested


def read_array(values, ndim: int | None, what: str, error: type[Exception]) -> np.ndarray:
    """values as a read-only float64 copy of ndim dimensions (any for None), every entry a finite
    number by read_number's rule ("2.5", True and None fail; np.array reads 2.5, 1.0 and NaN). Each
    entry type in nested lists and tuples is tested once; an ndarray, given or as a row, by dtype."""
    rows = ([values] if type(values) in _ROWS else []  # the sequences whose entries are the next depth
            if isinstance(values, np.ndarray) and values.dtype.kind not in _NOT_NUMBERS else [(values,)])
    for _ in range(64):  # np.array reads no deeper, so a list that holds itself ends the search
        if not rows:
            break
        types = set(map(type, chain.from_iterable(rows)))
        if not types <= _PLAIN:  # numpy scalars, ndarray rows or entries of another kind
            odd = {t for t in types - _ROWS if issubclass(t, bool) or not issubclass(t, numbers.Real)}
            for x in chain.from_iterable(rows) if odd else ():
                if type(x) in odd and not (isinstance(x, np.ndarray) and x.dtype.kind not in _NOT_NUMBERS):
                    shown = (f"an array of dtype {x.dtype}" if isinstance(x, np.ndarray) else json.dumps(x)
                             if type(x) in (str, bool, type(None)) else repr(x))  # as a file holds it
                    raise error(f"{what} holds {shown}, which is not a number")
        rows = [x for x in chain.from_iterable(rows) if type(x) in _ROWS] if types & _ROWS else []
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not numeric ({exc})") from exc
    if ndim is not None and arr.ndim != ndim:
        raise error(f"{what} must be a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise error(f"{what} holds NaN or infinite values")
    arr.setflags(write=False)
    return arr


def read_integer(value, what: str, error: type[Exception], least=None, most=None) -> int:
    """value as an int in [least, most]: an integral value, not a bool (int() would truncate 1.5)."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        x = int(value)
        if (least is None or least <= x) and (most is None or x <= most):
            return x
        raise error(_out_of_range(what, x, least, most))
    raise error(f"{what} {value!r} is not an integer")


def read_number(value, what: str, error: type[Exception], least=None, most=None) -> float:
    """value as a float in [least, most]: a finite real in the float range, not a bool ("2.5" fails)."""
    with suppress(OverflowError):  # isfinite of an int too large for a float
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            x = float(value)
            if (least is None or least <= x) and (most is None or x <= most):
                return x
            raise error(_out_of_range(what, x, least, most))
    raise error(f"{what} {value!r} is not a finite number")


def _out_of_range(what: str, x, least, most) -> str:
    bound = f">= {least}" if most is None else f"<= {most}" if least is None else f"in [{least}, {most}]"
    return f"{what} must be {bound}, got {x!r}"

"""Column dtype system for :mod:`repro.frame`.

The dataframe substrate supports five logical dtypes:

``int64``
    64-bit integers (numpy-backed, zeros under the missing mask).
``float64``
    64-bit floats (NaN under the missing mask).
``bool``
    booleans.
``string``
    text values, stored as Python ``str`` objects.
``mixed``
    heterogeneous *scalars* — the dtype real-world dirty columns land in,
    e.g. an income column containing ``50000`` alongside ``"12k"``.
    Buckaroo's type-mismatch detector (§3.1) targets these columns.

Every dtype holds the same value domain: a cell is ``None``, a bool, an
int, a float or a str (numpy scalars of those kinds count as their Python
values), and ``None`` and float NaN mean missing.  A cell of any other
type — a list, a dict — is refused with :class:`~repro.errors.ColumnTypeError`.
"""

from __future__ import annotations

import operator
from itertools import compress, repeat
from typing import Iterable

import numpy as np

from repro.errors import ColumnTypeError

INT64 = "int64"
FLOAT64 = "float64"
BOOL = "bool"
STRING = "string"
MIXED = "mixed"

ALL_DTYPES = (INT64, FLOAT64, BOOL, STRING, MIXED)

NUMERIC_DTYPES = (INT64, FLOAT64)

_STORAGE = {
    INT64: np.int64,
    FLOAT64: np.float64,
    BOOL: np.bool_,
    STRING: object,
    MIXED: object,
}


def is_numeric_dtype(dtype: str) -> bool:
    """True for dtypes whose values are machine numbers (int64/float64)."""
    return dtype in NUMERIC_DTYPES


def storage_dtype(dtype: str):
    """Return the numpy storage dtype backing a logical dtype."""
    try:
        return _STORAGE[dtype]
    except KeyError:
        raise ValueError(f"unknown dtype {dtype!r}; expected one of {ALL_DTYPES}") from None


def validate_dtype(dtype: str) -> str:
    """Return ``dtype`` if valid, raising ``ValueError`` otherwise."""
    if dtype not in _STORAGE:
        raise ValueError(f"unknown dtype {dtype!r}; expected one of {ALL_DTYPES}")
    return dtype


def infer_dtype(values: Iterable) -> str:
    """Infer the narrowest logical dtype holding every non-missing value.

    ``None`` (and float NaN) count as missing and do not influence the
    result.  An all-missing column defaults to ``float64``.

    >>> infer_dtype([1, 2, None])
    'int64'
    >>> infer_dtype([1, 2.5])
    'float64'
    >>> infer_dtype(["a", "b"])
    'string'
    >>> infer_dtype([1, "12k"])
    'mixed'
    >>> infer_dtype([1, [2]])
    Traceback (most recent call last):
        ...
    repro.errors.ColumnTypeError: a cell of type 'list' is not a scalar: cells are None, bool, int, float or str
    """
    values = values if isinstance(values, (list, np.ndarray)) else list(values)
    return dtype_of(scan(values)[0])


def scan(values) -> tuple[set, np.ndarray]:
    """``(types, missing)`` of a list of cells in whole-column passes.

    ``missing`` marks the cells every dtype stores as missing: ``None`` and
    float NaN.  ``types`` is the set of the present cells' types.  The types
    come from one C-level ``map(type, ...)``; the NaN test converts only the
    float-typed cells.
    """
    n = len(values)
    types = set(map(type, values))
    if _NONE in types:
        types.discard(_NONE)
        missing = np.fromiter(map(operator.is_, values, repeat(None)), dtype=bool, count=n)
    else:
        missing = np.zeros(n, dtype=bool)
    floats = {t for t in types if issubclass(t, _FLOATS)}
    if floats:
        if floats == types:
            is_float = ~missing
        else:
            is_float = np.fromiter(map(floats.__contains__, map(type, values)), dtype=bool, count=n)
        count = int(is_float.sum())
        nan = np.isnan(np.fromiter(compress(values, is_float), dtype=np.float64, count=count))
        missing[is_float] = nan
        if nan.all():  # every float cell is missing: floats say nothing of the dtype
            types -= floats
    return types, missing


def dtype_of(types: set, column: str | None = None) -> str:
    """The dtype :func:`infer_dtype` gives a column whose present cells have
    ``types``: one ``isinstance`` ladder per distinct type, bool before int.

    A type outside the value domain raises :class:`ColumnTypeError`, which
    names ``column`` when given."""
    kinds = {_kind(t, column) for t in types if t is not _NONE}
    if not kinds:
        return FLOAT64
    numbers = kinds & {INT64, FLOAT64}
    if (BOOL in kinds) + bool(numbers) + (STRING in kinds) > 1:
        return MIXED
    if STRING in kinds:
        return STRING
    if BOOL in kinds:
        return BOOL
    return FLOAT64 if FLOAT64 in numbers else INT64


_NONE = type(None)
_FLOATS = (float, np.floating)


def _kind(cell_type: type, column: str | None) -> str:
    if issubclass(cell_type, (bool, np.bool_)):
        return BOOL
    if issubclass(cell_type, (int, np.integer)):
        return INT64
    if issubclass(cell_type, _FLOATS):
        return FLOAT64
    if issubclass(cell_type, str):
        return STRING
    where = "" if column is None else f"column {column!r}: "
    raise ColumnTypeError(f"{where}a cell of type {cell_type.__name__!r} is not a "
                          "scalar: cells are None, bool, int, float or str")

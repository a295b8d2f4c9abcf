"""Scalar and aggregate function library for minidb.

Semantics follow SQLite where reasonable: scalar functions propagate NULL,
aggregates skip NULLs, ``AVG`` of an empty set is NULL while ``COUNT`` is 0.
``STDDEV``/``VARIANCE`` use the population definition (matches numpy's
default and keeps the outlier detector's SQL and frame paths identical).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ExecutionError

# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


def _null_guard(fn: Callable) -> Callable:
    """Wrap a function so that any NULL argument yields NULL."""

    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _typeof(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "integer"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    return "blob"


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a, b):
    return None if a == b else a


def _substr(text, start, length=None):
    text = str(text)
    start = int(start)
    begin = start - 1 if start > 0 else max(len(text) + start, 0)
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


def _instr(haystack, needle):
    return str(haystack).find(str(needle)) + 1


def _round(value, digits=0):
    result = round(float(value), int(digits))
    return result if digits else float(result)


def _scalar_min(*args):
    present = [a for a in args if a is not None]
    return min(present) if len(present) == len(args) and present else None


def _scalar_max(*args):
    present = [a for a in args if a is not None]
    return max(present) if len(present) == len(args) and present else None


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "ABS": _null_guard(lambda v: abs(v)),
    "ROUND": _null_guard(_round),
    "FLOOR": _null_guard(lambda v: math.floor(v)),
    "CEIL": _null_guard(lambda v: math.ceil(v)),
    "SIGN": _null_guard(lambda v: (v > 0) - (v < 0)),
    "SQRT": _null_guard(lambda v: math.sqrt(v) if v >= 0 else None),
    "POWER": _null_guard(lambda a, b: float(a) ** float(b)),
    "LOWER": _null_guard(lambda v: str(v).lower()),
    "UPPER": _null_guard(lambda v: str(v).upper()),
    "LENGTH": _null_guard(lambda v: len(str(v))),
    "TRIM": _null_guard(lambda v: str(v).strip()),
    "LTRIM": _null_guard(lambda v: str(v).lstrip()),
    "RTRIM": _null_guard(lambda v: str(v).rstrip()),
    "REPLACE": _null_guard(lambda s, old, new: str(s).replace(str(old), str(new))),
    "SUBSTR": _null_guard(_substr),
    "INSTR": _null_guard(_instr),
    "COALESCE": _coalesce,
    "IFNULL": _coalesce,
    "NULLIF": _nullif,
    "TYPEOF": _typeof,
    "MIN_OF": _scalar_min,
    "MAX_OF": _scalar_max,
}


def call_scalar(name: str, args: tuple):
    """Invoke scalar function ``name`` (already uppercased) on ``args``."""
    try:
        fn = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise ExecutionError(f"unknown function {name}()") from None
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"{name}() failed: {exc}") from exc


# ---------------------------------------------------------------------------
# aggregate functions
# ---------------------------------------------------------------------------


class Aggregate:
    """Accumulator protocol: ``step`` per row, ``final`` at group end."""

    def step(self, value) -> None:
        raise NotImplementedError

    def final(self):
        raise NotImplementedError


class CountAgg(Aggregate):
    """COUNT(x): number of non-NULL inputs; COUNT(*) counts rows."""

    def __init__(self) -> None:
        self.n = 0

    def step(self, value) -> None:
        if value is not None:
            self.n += 1

    def step_star(self) -> None:
        self.n += 1

    def final(self) -> int:
        return self.n


class SumAgg(Aggregate):
    """SUM(x): NULL for an empty input set (SQL semantics)."""

    def __init__(self) -> None:
        self.total = 0.0
        self.seen = False
        self.all_int = True

    def step(self, value) -> None:
        if value is None:
            return
        number = _as_number(value)
        if number is None:
            return
        self.seen = True
        if not isinstance(value, int) or isinstance(value, bool):
            self.all_int = False
        self.total += number

    def final(self):
        if not self.seen:
            return None
        return int(self.total) if self.all_int else self.total


class TotalAgg(SumAgg):
    """TOTAL(x): like SUM but returns 0.0 instead of NULL when empty."""

    def final(self) -> float:
        return float(self.total) if self.seen else 0.0


class AvgAgg(Aggregate):
    """AVG(x): arithmetic mean of non-NULL numeric inputs."""

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def step(self, value) -> None:
        number = _as_number(value)
        if number is not None:
            self.total += number
            self.n += 1

    def final(self):
        return self.total / self.n if self.n else None


class MinAgg(Aggregate):
    """MIN(x) over non-NULL inputs (numbers before text, as in ORDER BY)."""

    def __init__(self) -> None:
        self.best = None

    def step(self, value) -> None:
        if value is None:
            return
        if self.best is None or _sort_key(value) < _sort_key(self.best):
            self.best = value

    def final(self):
        return self.best


class MaxAgg(Aggregate):
    """MAX(x) over non-NULL inputs."""

    def __init__(self) -> None:
        self.best = None

    def step(self, value) -> None:
        if value is None:
            return
        if self.best is None or _sort_key(value) > _sort_key(self.best):
            self.best = value

    def final(self):
        return self.best


class _Moments(Aggregate):
    """Shared accumulator for variance/stddev (Welford's algorithm)."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, value) -> None:
        number = _as_number(value)
        if number is None:
            return
        self.n += 1
        delta = number - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (number - self.mean)

    def variance(self):
        return self.m2 / self.n if self.n else None


class VarianceAgg(_Moments):
    """VARIANCE(x): population variance."""

    def final(self):
        return self.variance()


class StddevAgg(_Moments):
    """STDDEV(x): population standard deviation."""

    def final(self):
        var = self.variance()
        return math.sqrt(var) if var is not None else None


class MedianAgg(Aggregate):
    """MEDIAN(x): exact median of non-NULL numeric inputs."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def step(self, value) -> None:
        number = _as_number(value)
        if number is not None:
            self.values.append(number)

    def final(self):
        if not self.values:
            return None
        ordered = sorted(self.values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


class GroupConcatAgg(Aggregate):
    """GROUP_CONCAT(x): comma-joined text of non-NULL inputs."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def step(self, value) -> None:
        if value is not None:
            self.parts.append(str(value))

    def final(self):
        return ",".join(self.parts) if self.parts else None


AGGREGATE_FUNCTIONS: dict[str, type] = {
    "COUNT": CountAgg,
    "SUM": SumAgg,
    "TOTAL": TotalAgg,
    "AVG": AvgAgg,
    "MIN": MinAgg,
    "MAX": MaxAgg,
    "STDDEV": StddevAgg,
    "VARIANCE": VarianceAgg,
    "MEDIAN": MedianAgg,
    "GROUP_CONCAT": GroupConcatAgg,
}


def is_aggregate(name: str) -> bool:
    """True when ``name`` (uppercased) is an aggregate function."""
    return name in AGGREGATE_FUNCTIONS


def make_aggregate(name: str) -> Aggregate:
    """Instantiate a fresh accumulator for aggregate ``name``."""
    try:
        return AGGREGATE_FUNCTIONS[name]()
    except KeyError:
        raise ExecutionError(f"unknown aggregate {name}()") from None


def _as_number(value) -> float | None:
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def normalize_key(value):
    """Normalize a value for hash equality (1 == 1.0, bool as int): the key
    of GROUP BY, DISTINCT and planner statistics tallies.

    An integer beyond float range keeps its exact value as its key."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return value
    return value


def _sort_key(value):
    """Order values across storage classes: numbers < text.

    An integer beyond float range sorts at ±inf among the numbers and
    carries its exact value as a tiebreak (see :func:`huge_int_key`).
    """
    if isinstance(value, bool):
        return (0, float(value))
    if isinstance(value, (int, float)):
        try:
            return (0, float(value))
        except OverflowError:
            return huge_int_key(0, value)
    return (1, str(value))


def huge_int_key(rank: int, value: int) -> tuple:
    """Sort key of an integer too large for a float: ``(rank, ±inf,
    value)``.  It sorts with the infinities of its sign and keeps the
    exact integer, so two different huge integers never share a key."""
    return (rank, math.inf if value > 0 else -math.inf, value)

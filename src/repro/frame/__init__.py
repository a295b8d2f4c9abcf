"""``repro.frame`` — a from-scratch columnar dataframe library.

This package is the reproduction's substitute for Pandas, so the
reproduction runs on numpy alone (Pandas is not installed where it runs).
It provides typed, missing-aware columns, an immutable-style ``DataFrame``,
group-by aggregation, and CSV I/O.  Its deliberately copy-heavy computational
model reproduces the cost profile the paper measures for the Pandas backend
in Table 1.
"""

from repro.frame import dtypes
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.frame.groupby import GroupBy
from repro.frame.io import read_csv, read_csv_text, write_csv, write_csv_text
from repro.frame.parsing import (
    MISSING_TOKENS,
    coerce_to_number,
    is_missing_token,
    parse_number_lenient,
    parse_number_strict,
)

__all__ = [
    "Column",
    "DataFrame",
    "GroupBy",
    "dtypes",
    "read_csv",
    "read_csv_text",
    "write_csv",
    "write_csv_text",
    "MISSING_TOKENS",
    "coerce_to_number",
    "is_missing_token",
    "parse_number_lenient",
    "parse_number_strict",
]

"""Shared machinery for the synthetic dataset generators.

The paper evaluates on three public datasets (StackOverflow survey, Adult
Income, Chicago Crime).  Offline, we generate seeded synthetic datasets
matching each one's published shape — row/column counts, categorical
cardinalities, and plausible numeric marginals.  That preserves the
experiments' behaviour: detection, grouping and the latencies Table 1
measures depend on those shapes and on the injected errors, not on the
real records.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def rng_for(seed: int) -> np.random.Generator:
    """The canonical RNG for dataset generation."""
    return np.random.default_rng(seed)


def pick(rng: np.random.Generator, values: Sequence, n: int,
         weights: Sequence[float] | None = None) -> list:
    """Draw ``n`` values with optional (auto-normalized) weights."""
    if weights is not None:
        probabilities = np.asarray(weights, dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
    else:
        probabilities = None
    indexes = rng.choice(len(values), size=n, p=probabilities)
    return [values[i] for i in indexes]


def lognormal(rng: np.random.Generator, n: int, median: float,
              sigma: float = 0.6, round_to: int = 1) -> list:
    """Right-skewed positive values (incomes, compensation)."""
    draws = rng.lognormal(mean=np.log(median), sigma=sigma, size=n)
    return [round(float(v), round_to) if round_to else float(v) for v in draws]


def integers(rng: np.random.Generator, n: int, low: int, high: int) -> list:
    """Uniform integers in ``[low, high]``."""
    return [int(v) for v in rng.integers(low, high + 1, size=n)]


def normals(rng: np.random.Generator, n: int, mean: float, std: float,
            round_to: int = 2) -> list:
    """Gaussian values."""
    draws = rng.normal(mean, std, size=n)
    return [round(float(v), round_to) for v in draws]


def sequential_ids(n: int, start: int = 1) -> list:
    """A monotonically increasing id column."""
    return list(range(start, start + n))


def scaled(n_rows: int, scale: float | None) -> int:
    """Apply an optional scale factor to a row count (at least 50 rows)."""
    if scale is None:
        return n_rows
    return max(50, int(round(n_rows * scale)))

"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one row of the paper's evaluation (§6: Table 1,
the localized-detection and snapshot ablations).  Dataset scale is
controlled by ``REPRO_BENCH_SCALE`` (default 0.05 — about 1.9k/2.4k/12.5k
rows); set it to ``1`` to run at the paper's full dataset sizes.

Usage::

    pytest benchmarks/ --benchmark-only
    REPRO_BENCH_SCALE=0.2 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.backends import SQLBackend
from repro.config import BuckarooConfig
from repro.core.session import BuckarooSession
from repro.datasets import load_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))

# chart attribute choices per dataset (categoricals x numericals)
DATASET_COLUMNS = {
    "stackoverflow": (
        ["country", "ed_level", "remote_work"],
        ["converted_comp_yearly", "years_code"],
    ),
    "adult_income": (
        ["education", "occupation", "race"],
        ["capital_gain", "hours_per_week"],
    ),
    "chicago_crime": (
        ["primary_type", "location_description"],
        ["x_coordinate", "y_coordinate"],
    ),
}

DATASET_LABELS = {
    "stackoverflow": "StackOverflow",
    "adult_income": "Adult Income",
    "chicago_crime": "Chicago Crime",
}

# the large dataset runs at half the configured scale to bound wall-clock
DATASET_SCALES = {
    "stackoverflow": BENCH_SCALE,
    "adult_income": BENCH_SCALE,
    "chicago_crime": BENCH_SCALE / 2,
}


def make_session(dataset: str, backend: str,
                 config: BuckarooConfig | None = None,
                 **sql_options) -> BuckarooSession:
    """Build a detected session for one dataset/backend combination.

    ``sql_options`` (``path``, ``wal_autocheckpoint``, ...) pass through
    to :meth:`SQLBackend.from_frame`.
    """
    frame, _truth = load_dataset(dataset, scale=DATASET_SCALES[dataset])
    if backend == "sql":
        session = BuckarooSession(SQLBackend.from_frame(frame, **sql_options), config)
    else:
        session = BuckarooSession.from_frame(frame, backend=backend, config=config)
    cats, nums = DATASET_COLUMNS[dataset]
    session.generate_groups(cat_cols=cats, num_cols=nums)
    session.detect()
    return session


def dataset_with_truth(dataset: str):
    """The scaled dirty frame plus its injected ground truth."""
    return load_dataset(dataset, scale=DATASET_SCALES[dataset])


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE

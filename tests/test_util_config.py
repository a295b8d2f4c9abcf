"""Tests for shared utilities and session configuration."""

import time

import pytest

from repro._util import Stopwatch, chunked, format_table
from repro.config import BuckarooConfig, DEFAULT_CONFIG


class TestChunked:
    def test_even_split(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_remainder(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_empty(self):
        assert list(chunked([], 3)) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "n"], [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)
        assert "longer" in lines[3]

    def test_float_formatting(self):
        table = format_table(["x"], [[0.123456789]])
        assert "0.1235" in table


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.01


class TestConfig:
    def test_paper_defaults(self):
        config = BuckarooConfig()
        assert config.outlier_sigma == 2.0      # §3.1
        assert config.flush_interval == 3       # §3.2
        assert config.outlier_scope == "global"

    @pytest.mark.parametrize("kwargs", [
        {"outlier_sigma": 0},
        {"outlier_scope": "cosmic"},
        {"min_group_size": 0},
        {"flush_interval": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BuckarooConfig(**kwargs)

    def test_with_overrides_validates(self):
        override = DEFAULT_CONFIG.with_overrides(outlier_sigma=3.0)
        assert override.outlier_sigma == 3.0
        assert DEFAULT_CONFIG.outlier_sigma == 2.0  # original untouched
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_overrides(flush_interval=-1)

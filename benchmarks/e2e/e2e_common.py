"""Shared plumbing of the end-to-end benchmark: paths, statistics, op log.

Importing this module puts the repository's ``src/`` on ``sys.path`` (the
benchmark is run as ``python3 benchmarks/e2e/run.py`` with no environment
set up) and refuses to continue when the program under test is absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

if not (SRC / "repro").is_dir():
    sys.exit(f"e2e benchmark: program under test not found at {SRC}/repro")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.errors import ReproError  # noqa: E402 - needs the path set above


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..1) of a non-empty list."""
    return float(np.percentile(values, q * 100.0))


def median(values) -> float:
    return percentile(values, 0.5)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# The in-process workloads never block (no I/O, one thread), so their
# operations are timed on the process CPU clock: on an idle machine that is
# the wall-clock latency, and on a shared VM it leaves out the hypervisor's
# steal time, which otherwise comes and goes at several times any bound.
CPU_CLOCK = time.process_time
WALL_CLOCK = time.perf_counter


def untraced_call(_name: str, fn, *args, **kwargs):
    """Stand-in for ``Tracer.call`` when no tracer is attached."""
    return fn(*args, **kwargs)


class OpLog:
    """Latency samples, attempt and failure counts of user-visible operations.

    With a tracer attached every operation is also the root span of its
    own ``op_id``, so per-layer self times can be grouped by operation kind.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # failed correctness checks

    def run(self, kind: str, fn, *args):
        """Time one operation; returns ``fn``'s result (None when it failed)."""
        tracer = self.tracer
        self.attempted += 1
        span = tracer.begin("op." + kind) if tracer is not None else -1
        clock = self.clock
        start = clock()
        try:
            return fn(*args)
        except ReproError as exc:
            self.failed += 1
            self.problems.append(f"{kind} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.latencies[kind].append(clock() - start)
            if span >= 0:
                tracer.end(span)

    def relabel(self, kind: str, new_kind: str) -> None:
        """File the latest ``kind`` operation under ``new_kind`` instead (for
        kinds only known once the result is in)."""
        self.latencies[new_kind].append(self.latencies[kind].pop())
        if self.tracer is not None:
            self.tracer.rename_last_root("op." + new_kind)

    def check(self, condition: bool, message: str) -> None:
        """Record a failed correctness check (the run then exits non-zero)."""
        if not condition:
            self.problems.append(message)

    def absorb(self, other: "OpLog") -> None:
        """Add another log's samples and counts (one log per client thread)."""
        for kind, samples in other.latencies.items():
            self.latencies[kind].extend(samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def p(self, kind: str, q: float) -> float:
        """Percentile of one kind's latencies in ms (0.0 when it never ran)."""
        samples = self.latencies.get(kind)
        return ms(percentile(samples, q)) if samples else 0.0

    def pooled(self, kinds, q: float) -> float:
        samples = [s for kind in kinds for s in self.latencies.get(kind, ())]
        return ms(percentile(samples, q)) if samples else 0.0

    def n(self, kind: str) -> int:
        return len(self.latencies.get(kind, ()))


@dataclass
class Phase:
    """What one measured stretch (untraced or traced) of a workload produced."""

    ops: OpLog
    timed_s: float = 0.0
    rounds: int = 0
    counters: dict = field(default_factory=lambda: defaultdict(float))
    last: dict = field(default_factory=dict)   # objects of the latest round

    @property
    def tracer(self):
        return self.ops.tracer

    @property
    def ops_per_s(self) -> float:
        return ratio(self.ops.attempted, self.timed_s)

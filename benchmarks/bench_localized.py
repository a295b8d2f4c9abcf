"""A1 — ablation: localized re-detection vs. full re-detection (§3.3).

The paper: "Running anomaly detectors across the entire dataset after every
repair would be prohibitively expensive and break the real-time user
experience."  This benchmark applies the same repair sequence twice — once
with overlap-graph-scoped re-detection (the system's path) and once forcing
a full detection pass after every op — and compares wall-clock and detector
invocations.
"""

import pytest

from repro.bench import REMOVAL, print_generic, run_workload, write_json_artifact

from benchmarks.conftest import make_session

N_OPS = 15

_RESULTS: dict = {}


def _localized(session) -> int:
    run_workload(session, REMOVAL, n_ops=N_OPS, seed=5)
    return session.engine.detections_run


def _full_redetect(session) -> int:
    from repro.bench.workload import candidate_rows, removal_plan

    for row_id in candidate_rows(session, N_OPS, seed=5):
        session.apply(removal_plan(row_id))
        # strawman: re-run every detector on every group after each repair
        session.engine.detect_all(session.group_manager.groups.values())
    return session.engine.detections_run


@pytest.mark.parametrize("mode", ["localized", "full"])
def test_localized_vs_full_redetection(benchmark, mode):
    def setup():
        return (make_session("stackoverflow", "sql"),), {}

    runner = _localized if mode == "localized" else _full_redetect
    detections = benchmark.pedantic(runner, setup=setup, rounds=1, iterations=1)
    _RESULTS[mode] = (benchmark.stats.stats.mean, detections)
    if len(_RESULTS) == 2:
        loc_time, loc_detect = _RESULTS["localized"]
        full_time, full_detect = _RESULTS["full"]
        print_generic(
            "A1 — localized vs full re-detection (15 removals)",
            ["Mode", "Seconds", "Detector runs"],
            [
                ["localized (overlap graph)", f"{loc_time:.3f}", loc_detect],
                ["full re-detection", f"{full_time:.3f}", full_detect],
                ["speedup", f"{full_time / loc_time:.1f}x",
                 f"{full_detect / max(loc_detect, 1):.1f}x fewer" if loc_detect else "-"],
            ],
        )
        path = write_json_artifact("localized", {
            "n_ops": N_OPS,
            "localized": {"seconds": loc_time, "detector_runs": loc_detect},
            "full": {"seconds": full_time, "detector_runs": full_detect},
            "speedup": full_time / loc_time,
        })
        print(f"artifact: {path}")
        assert loc_detect < full_detect, "localized path must run fewer detectors"
        assert loc_time < full_time, "localized path must be faster"

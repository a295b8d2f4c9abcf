#!/usr/bin/env python3
"""The repository's benchmark of record: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload wrangle_sql --seed 7 --seconds 12
    python3 benchmarks/e2e/run.py --workload explore_zoom --trace 1
    python3 benchmarks/e2e/run.py --workload remote_sql_durable --repeat 10

Untraced (``--trace 0``) the run sets the workload up several times (the
median is ``setup_s``), measures for ``--seconds``, checks the outputs and
prints every end-to-end metric.  Traced (``--trace 1``) it measures a short
untraced stretch and then a traced one, prints the per-layer metrics and the
self-time table, and writes the spans to ``out/trace-<workload>.json``.
The last line of standard output is one JSON object (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys

from e2e_common import ROOT, median
from e2e_trace import format_self_times, self_times, write_trace

SETUP_REPEATS = 3
UNTRACED_SHARE = 0.35      # of --seconds, in a traced run
DEFAULT_SEED = 7


def make_workload(name: str, seed: int, smoke: bool):
    if name in ("wrangle_sql", "wrangle_frame"):
        from e2e_wrangle import WrangleWorkload
        return WrangleWorkload(name.partition("_")[2], seed, smoke)
    if name == "explore_zoom":
        from e2e_zoom import ZoomWorkload
        return ZoomWorkload(seed, smoke)
    if name == "remote_sql_durable":
        from e2e_remote import RemoteWorkload
        return RemoteWorkload(seed, smoke)
    raise SystemExit(f"unknown workload {name!r}")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def project(declared: list, computed: dict) -> dict:
    """The declared metrics in declared order; a layer the workload does not
    exercise reports 0.  A computed name nobody declared is a bug."""
    unknown = set(computed) - {entry["name"] for entry in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for entry in declared:
        value = computed.get(entry["name"]) or 0.0
        if not math.isfinite(value):
            raise SystemExit(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")


def run_once(args, contract: dict) -> int:
    smoke = args.smoke
    repeats = 1 if (args.trace or smoke) else SETUP_REPEATS
    setups = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = make_workload(args.workload, args.seed, smoke)
        start = workload.clock()
        workload.setup()
        setups.append(workload.clock() - start)
    setup_s = median(setups)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if smoke else ''}")
    try:
        if args.trace:
            untraced = workload.measure(args.seconds * UNTRACED_SHARE, False)
            phase = workload.measure(args.seconds * (1 - UNTRACED_SHARE), True)
            phases = (untraced, phase)
        else:
            phase = workload.measure(args.seconds, False)
            phases = (phase,)
        workload.verify(phase)
        for note in workload.notes():
            print(f"  note: {note}")
        if args.trace:
            computed = workload.layer_metrics(phase)
            computed["trace.overhead_ratio"] = phase.ops_per_s / untraced.ops_per_s
            # each operation's latency, filed under the layer the call enters
            report = workload.e2e_metrics(phase, setup_s)
            computed.update({f"{layer}.{name}": report[name][0]
                             for name, layer in workload.entry_layer.items()})
            metrics = project(contract["per_layer"], computed)
            print_metrics("per-layer metrics (per round; see README.md):", metrics)
            spans = workload.spans(phase)
            print("per-layer self time by operation kind (traced stretch):")
            print(format_self_times(self_times(spans)))
            print(f"spans written to {write_trace(args.workload, spans)}")
        else:
            report = workload.e2e_metrics(phase, setup_s)
            print_metrics(
                f"end-to-end metrics by operation ({phase.timed_s:.2f} s timed, "
                f"{phase.ops.attempted} ops):",
                {name: {"value": v, "unit": u} for name, (v, u) in report.items()})
            gated = {name: report[source][0]
                     for name, source in workload.gate.items()}
            metrics = project(contract["end_to_end"], gated)
            print_metrics("gated end-to-end metrics (BENCHMARK.json):", metrics)
    finally:
        workload.close()
    problems = [p for each in phases for p in each.ops.problems]
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(each.ops.attempted for each in phases),
        "failed": sum(each.ops.failed for each in phases),
        "metrics": metrics,
    }))
    return 1 if problems else 0


def run_repeat(args, contract: dict) -> int:
    """N runs on N seeds; median, quartiles and (q3-q1)/median per metric."""
    bounds = {e["name"]: e["bound"] for e in contract["end_to_end"]}
    values: dict[str, list[float]] = {}
    for i in range(args.repeat):
        command = [
            sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed + i), "--seconds", str(args.seconds),
            "--trace", "0",
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"  run {i + 1}/{args.repeat} seed {args.seed + i}: " + "  ".join(
            f"{n}={e['value']:.5g}" for n, e in result["metrics"].items()))
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'(q3-q1)/med':>13}{'bound':>7}")
    worst = 0
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid
        flag = ""
        if name != "setup_s" and spread > bounds[name]:
            flag, worst = "  ABOVE BOUND", 1
        print(f"  {name:<16}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>13.4f}{bounds[name]:>7.2f}{flag}")
    return worst


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds and report the spread per metric")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets (tests only; pass a short --seconds)")
    args = parser.parse_args(argv)
    if args.repeat:
        return run_repeat(args, contract)
    return run_once(args, contract)


if __name__ == "__main__":
    sys.exit(main())

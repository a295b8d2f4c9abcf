#!/usr/bin/env python
"""Plan census: every SELECT plan the examples and the e2e workloads build.

Usage:
    python scripts/plan_census.py [--repo DIR] [--shape] [--only NAME ...]
                                  [--check FILE]

Runs the nine ``examples/*.py`` scripts and each workload of
``benchmarks/e2e/run.py`` (``--seed 7 --seconds 4``) of the checkout at
``--repo`` (default: this one) as subprocesses, and prints one JSON line
per distinct plan they built: ``{"source", "statement", "vectorize",
"plan"}``, where ``plan`` is the rendered operator tree.  ``--shape``
drops the ``est_rows`` annotations, so two checkouts whose estimates
differ but whose operator trees agree print the same lines.  ``--only``
limits the run to the named sources (``quickstart``, ``wrangle_sql``…).
``--check FILE`` prints, instead of the lines, their unified diff
against FILE's and exits 1 when there is one (a one-line count when
there is none).

The product's plan shapes are a checked contract: CI runs
``--shape --check scripts/plan_census_shapes.jsonl`` (about 40 s).  A
change that means to alter a plan regenerates that file with
``--shape`` and says why.

The hook is a temporary ``sitecustomize.py`` on ``PYTHONPATH`` that wraps
``repro.minidb.prepared.plan_select`` in every Python process the sources
start, the minidb server of ``remote_sql_durable`` included; nothing is
added to the program.  Compare two checkouts with ``diff``::

    python scripts/plan_census.py --shape > new.jsonl
    python scripts/plan_census.py --shape --repo ../parent > old.jsonl
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wrangle_sql", "wrangle_frame", "explore_zoom", "remote_sql_durable")

HOOK = '''
import json
import os
import sys

from repro.minidb import prepared
from repro.minidb.plan_nodes import render_tree

_plan_select = prepared.plan_select


def _census_plan_select(db, stmt):
    plan = _plan_select(db, stmt)
    caller = sys._getframe(1).f_locals.get("self")
    record = {
        "source": os.environ["PLAN_CENSUS_SOURCE"],
        "statement": getattr(caller, "sql", None) or repr(stmt),
        "vectorize": db.vectorize,
        "plan": render_tree(plan.root),
    }
    with open(os.environ["PLAN_CENSUS_OUT"], "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\\n")
    return plan


prepared.plan_select = _census_plan_select
'''

_EST_ROWS = re.compile(r" \[est_rows=[^\]]*\]")


def sources(repo: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every census source, examples first."""
    found = [(path.stem, [sys.executable, str(path)])
             for path in sorted((repo / "examples").glob("*.py"))]
    run = repo / "benchmarks" / "e2e" / "run.py"
    found += [(name, [sys.executable, str(run), "--workload", name,
                      "--seed", "7", "--seconds", "4"]) for name in WORKLOADS]
    return found


def census(repo: Path, only=None):
    """Yield the plan records of ``repo``'s sources, in source order."""
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch)
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        out = hook_dir / "plans.jsonl"
        for name, argv in sources(repo):
            if only and name not in only:
                continue
            out.write_text("")
            env = dict(os.environ, PLAN_CENSUS_SOURCE=name,
                       PLAN_CENSUS_OUT=str(out),
                       PYTHONPATH=os.pathsep.join([str(hook_dir), str(repo / "src")]))
            done = subprocess.run(argv, cwd=repo, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{name} failed:\n{done.stdout}{done.stderr}")
            for line in out.read_text().splitlines():
                yield json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plan_census", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=Path, default=REPO_ROOT,
                        help="checkout whose sources run (default: this one)")
    parser.add_argument("--shape", action="store_true",
                        help="drop est_rows: operator trees only")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this source (repeatable)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="diff the lines against FILE; exit 1 if they differ")
    args = parser.parse_args(argv)
    lines: list[str] = []
    for record in census(args.repo.resolve(), args.only):
        if args.shape:
            record["plan"] = [_EST_ROWS.sub("", line) for line in record["plan"]]
        line = json.dumps(record)
        if line not in lines:
            lines.append(line)
            if args.check is None:
                print(line)
    if args.check is None:
        return 0
    expected = args.check.read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(expected, lines, str(args.check),
                                     "census", lineterm=""))
    if diff:
        print("\n".join(diff))
        return 1
    print(f"{len(lines)} of {len(expected)} plans identical to {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload megablast_dense --seed 1 --seconds 50 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``perfbench/NOTES.md``). The last line
of standard output is one JSON object; the lines before it are a readable
table. The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.endtoend import run_search, run_service
    from perfbench.harness import stop_helper_processes
    from perfbench.layers import run_traced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Temporary files (the shared plane's lock files among them) stay
    # inside the checkout and go when the run ends.
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        inputs = workload.inputs(args.seed)
        if args.trace:
            report = run_traced(workload, inputs, args.seconds, OUT)
        elif workload.kind == "service":
            report = run_service(workload, inputs, args.seconds)
        else:
            report = run_search(workload, inputs, args.seconds)
    finally:
        stop_helper_processes()
        shutil.rmtree(tmp, ignore_errors=True)
    for note in report.notes:
        print(f"# {note}")
    for name, m in report.metrics.items():
        print(f"{args.workload:16s} {name:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(report.as_json()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())

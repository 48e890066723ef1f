#!/usr/bin/env python3
"""Collect seed-0 perfbench results into a BENCH_<n>.json trajectory file.

Usage, from the repository root, after one perfbench run per workload
(python3 perfbench/run.py --workload W --seed 0 --seconds 20 --trace 0):

    python3 tools/bench_record.py --label change --output BENCH_6.json
    python3 tools/bench_record.py --label parent --results ../parent/.perfbench_out \
        --output BENCH_6.json

Each call reads <results>/<workload>-seed0-trace0.json for every
workload in BENCHMARK.json and appends one record per workload to
runs[<label>][<workload>] in the output file: the end-to-end metrics, the
correct/attempted/failed counts, the reference status and the provenance
(commit, configs, Python, numpy, BLAS, CPU).  Records already in the file are
kept, and a record that is already there is not added twice, so the runs of
the parent commit and of the change collect in one file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEPT = ("metrics", "correct", "attempted", "failed", "reference", "provenance")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="run label, e.g. parent or change")
    parser.add_argument("--output", type=Path, required=True, help="trajectory JSON file")
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    records = {}
    for workload in workloads:
        path = args.results / f"{workload}-seed0-trace0.json"
        if not path.is_file():
            print(f"error: no perfbench result {path}", file=sys.stderr)
            return 2
        run = json.loads(path.read_text())
        records[workload] = {key: run[key] for key in KEPT}

    data = json.loads(args.output.read_text()) if args.output.exists() else {}
    data.setdefault("runs", {})
    for workload, record in records.items():
        runs = data["runs"].setdefault(args.label, {}).setdefault(workload, [])
        if record not in runs:
            runs.append(record)
    args.output.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for workload, record in records.items():
        values = ", ".join(f"{k} {m['value']:.4g}" for k, m in record["metrics"].items())
        print(f"{args.label} {workload}: {values}; failed {record['failed']}/{record['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Store the reference outputs the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/make_references.py

Runs every experiment of every workload once for each seed in
workloads.REFERENCE_SEEDS and copies its output files (a verify
experiment's printed table as stdout.txt) to
perfbench/reference/seed-<seed>/<label>/.  Regenerate only when a change
is meant to alter the CLI outputs, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS thread variables before numpy loads
import check
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import cyclictf.cli as cli

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for seed in workloads.REFERENCE_SEEDS:
            for workload, experiments in workloads.WORKLOADS.items():
                configs = workloads.write_configs(workload, seed, Path(tmp) / "configs")
                for exp in experiments:
                    out_dir = Path(tmp) / "out"
                    result = workloads.run_experiment(cli, exp, configs[exp.label], out_dir)
                    if result.exit_code != 0:
                        print(f"error: {workload}/{exp.label} exited {result.exit_code} {result.error}",
                              file=sys.stderr)
                        return 1
                    ref = check.reference_dir(seed, exp.label)
                    shutil.rmtree(ref, ignore_errors=True)
                    ref.mkdir(parents=True)
                    if exp.command == "verify":
                        (ref / check.STDOUT_FILE).write_text(result.stdout)
                    for path in out_dir.iterdir():
                        shutil.copy(path, ref / path.name)
                    print(f"wrote {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

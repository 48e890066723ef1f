#!/usr/bin/env python3
"""Run passes of the frozen baseline program, one per request line on stdin.

Usage: refworker.py <workload> <seed> <scratch dir>

run.py starts this process next to the program it measures.  It imports
``cyclictf_ref`` (perfbench/baseline/, a frozen copy of the cyclictf sources
the benchmark was defined at), runs one untimed warm-up pass and prints
``ready``; then for each line it reads it runs one timed pass and prints
``{"wall_s": ..., "cpu_s": ...}``.  It exits at end of input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # pins the BLAS thread variables before numpy loads


def main() -> int:
    workload, seed, run_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(run.BASELINE))
    import cyclictf_ref.cli as cli

    client = run.Client(cli, workload, seed, run_dir)
    client.run_pass()  # warm-up
    print("ready", flush=True)
    for _ in sys.stdin:
        wall, cpu = client.run_pass()
        print(json.dumps({"wall_s": wall, "cpu_s": cpu}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

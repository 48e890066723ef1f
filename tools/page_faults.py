#!/usr/bin/env python3
"""Minor page faults per pass of a benchmark workload, in all and inside the envelope pass.

Usage, from the repository root:

    python3 tools/page_faults.py sweep-n32

Plays the benchmark's client in-process: each pass runs the workload's
experiments through ``cyclictf.cli.main`` and checks each output against its
reference, as ``perfbench/run.py`` does (``perfbench/workloads.py`` and
``perfbench/check.py`` give the configs, the experiment call and the check;
neither is changed).  One warm-up pass, then 12 passes.  BLAS and OpenMP are
pinned to one thread before numpy loads, as in ``perfbench/run.py``.  For
each pass it counts the process's minor page faults (``ru_minflt``), in all
and inside ``diagnostics.envelopes``, which is wrapped for this probe only.
It prints the median, minimum and maximum per pass of both counts, and the
per-pass counts inside ``envelopes``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import check  # noqa: E402
import workloads  # noqa: E402

from cyclictf import cli, diagnostics  # noqa: E402

PASSES = 12


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)

    inside = 0
    envelopes = diagnostics.envelopes

    def probed(*a, **kw):
        nonlocal inside
        before = minflt()
        try:
            return envelopes(*a, **kw)
        finally:
            inside += minflt() - before

    diagnostics.envelopes = probed  # `envelope` and the CLI both look it up at call time
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        configs = workloads.write_configs(args.workload, args.seed, run_dir / "configs")
        totals, envs = [], []
        for i in range(PASSES + 1):
            inside, before = 0, minflt()
            for exp in workloads.WORKLOADS[args.workload]:
                out_dir = run_dir / "out" / exp.label
                run = workloads.run_experiment(cli, exp, configs[exp.label], out_dir)
                problems = check.check_experiment(run, out_dir, args.seed, exp.label)
                if problems:
                    print(f"error: {exp.label}: " + "; ".join(problems), file=sys.stderr)
                    return 1
            if i:  # pass 0 is the warm-up
                totals.append(minflt() - before)
                envs.append(inside)
    for name, counts in (("all", totals), ("envelopes", envs)):
        print(f"{args.workload} {name}: median {statistics.median(counts):g}, min {min(counts)}, max {max(counts)}"
              f" minor faults per pass over {PASSES} passes")
    print(f"envelopes per pass: {envs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

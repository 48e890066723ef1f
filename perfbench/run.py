#!/usr/bin/env python3
"""Benchmark of the cyclictf experiment runner, timed from outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-n32 --seed 1 --seconds 20 --trace 0

One run is one fresh process that plays a single closed-loop client: it
writes the workload's config files, runs the workload's CLI experiments back
to back through ``cyclictf.cli.main`` and checks every output against the
stored reference (see check.py).  BLAS and OpenMP are pinned to one thread
before numpy loads, so CPU time equals busy time on one core.

--trace 0 reports the end-to-end metrics: after one untimed warm-up pass
(which fills the per-N lazy state: the chirp table cache and FFT plans),
passes run until --seconds have elapsed, each next to a pass of a frozen
baseline copy of the program (refworker.py).  wall_s / cpu_s are the median
ratios of program to baseline pass time and setup_s that of the import time
of cyclictf.cli in fresh interpreters, each times the baseline's time on a
quiet host, so the host's slow episodes cancel (see the README).

--trace 1 reports the per-layer metrics: after the warm-up, untraced and
traced passes alternate in adjacent pairs (see spans.py), and
trace.overhead_frac is the median over pairs of traced over untraced pass
time, minus 1.

The last line of standard output is the result object; the line before it
holds the samples, failures and provenance, also written to
.perfbench_out/ in the repository root.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"  # frozen copy of the sources, imported as cyclictf_ref
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7

# The baseline program's times on the host this benchmark was written on
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS 0.3.31), in a quiet
# period.  A reported time is the measured ratio to the baseline program,
# taken in adjacent pairs, times these: seconds on that host when quiet.
BASELINE_PASS_S = {"sweep-n32": 2.12, "verify-n32": 3.48, "reports-n32": 1.10}
BASELINE_IMPORT_S = 0.078


def import_probe_s(package: str, path: Path) -> float:
    """Import time of <package>.cli in a fresh interpreter."""
    probe = (
        f"import time; t = time.perf_counter(); import {package}.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(path)},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip())


def setup_samples() -> dict[str, list[float]]:
    """Import times of the program and the baseline in alternating fresh interpreters.

    A first, untimed probe of each fills the bytecode caches.
    """
    samples = {"setup_s": [], "baseline_setup_s": []}
    for i in range(SETUP_SAMPLES + 1):
        pair = [("setup_s", "cyclictf", SRC), ("baseline_setup_s", "cyclictf_ref", BASELINE)]
        for key, package, path in pair if i % 2 else pair[::-1]:
            seconds = import_probe_s(package, path)
            if i:
                samples[key].append(seconds)
    return samples


class Client:
    """One closed-loop client running a workload's experiments back to back."""

    def __init__(self, cli, workload: str, seed: int, run_dir: Path) -> None:
        self.cli = cli
        self.seed = seed
        self.experiments = workloads.WORKLOADS[workload]
        self.configs = workloads.write_configs(workload, seed, run_dir / "configs")
        self.run_dir = run_dir
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, float]:
        """Run every experiment once; returns the pass's wall and CPU seconds."""
        wall = cpu = 0.0
        for exp in self.experiments:
            out_dir = self.run_dir / "out" / exp.label
            run = workloads.run_experiment(self.cli, exp, self.configs[exp.label], out_dir)
            wall += run.wall_s
            cpu += run.cpu_s
            self.attempted += 1
            problems = check.check_experiment(run, out_dir, self.seed, exp.label)
            if problems:
                self.failures.append(f"{exp.label}: " + "; ".join(problems))
        return wall, cpu


class Baseline:
    """The frozen baseline program, run pass by pass in its own process (refworker.py)."""

    def __init__(self, workload: str, seed: int, run_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refworker.py"), workload, str(seed), str(run_dir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self) -> None:
        """Wait for the worker's warm-up pass."""
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("baseline worker failed to start")

    def run_pass(self) -> tuple[float, float]:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        record = json.loads(self.proc.stdout.readline())
        return record["wall_s"], record["cpu_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timed_run(client: Client, baseline: Baseline, seconds: float) -> dict[str, list[float]]:
    """Wall and CPU seconds of program and baseline passes, in adjacent pairs ordered ABBA."""
    client.run_pass()  # warm-up, while the baseline warms up in its process
    baseline.wait_ready()
    samples = {"wall_s": [], "cpu_s": [], "baseline_wall_s": [], "baseline_cpu_s": []}
    start = time.perf_counter()
    while not samples["wall_s"] or time.perf_counter() - start < seconds:
        pair = [("", client), ("baseline_", baseline)]
        for prefix, runner in pair if len(samples["wall_s"]) % 2 == 0 else pair[::-1]:
            wall, cpu = runner.run_pass()
            samples[f"{prefix}wall_s"].append(wall)
            samples[f"{prefix}cpu_s"].append(cpu)
    return samples


def ratio(samples: dict[str, list[float]], key: str) -> float:
    """Median over adjacent pairs of program time over baseline time."""
    return statistics.median(a / b for a, b in zip(samples[key], samples[f"baseline_{key}"]))


def traced_run(client: Client, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes, and the tracing overhead."""
    from cyclictf import quantize

    from spans import Tracer

    t0 = time.perf_counter()
    quantize.chirp_exponents(workloads.N)  # the cache is empty in a fresh process
    first_call = time.perf_counter() - t0
    client.run_pass()  # warm-up
    tracer = Tracer()
    plain, traced = [], []  # pass times, in adjacent pairs ordered ABBA against drift
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                plain.append(client.run_pass()[0])
                continue
            tracer.install()
            tracer.start_pass()
            try:
                traced.append(client.run_pass()[0])
            finally:
                tracer.uninstall()
            tracer.end_pass()
    spans_path.write_text(json.dumps(tracer.spans) + "\n")  # spans of the last traced pass
    metrics = tracer.metrics()
    metrics["quantize.chirp_exponents.first_call_s"] = first_call
    metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1
    return metrics, {"untraced_pass_s": plain, "traced_pass_s": traced}


def _read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout; see src_sha256)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unavailable"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cyclictf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "configs": workloads.resolved_configs(workload, seed),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": _process_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _read_cpu_model(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cyclictf" / "cli.py").is_file():
        print(f"error: no cyclictf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One CPU for this process and every process it starts (they inherit the
    # mask), so a program pass and its baseline pass run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    if not args.trace:
        setup = setup_samples()
    sys.path.insert(0, str(SRC))
    import cyclictf.cli as cli

    client = Client(cli, args.workload, args.seed, run_dir / "program")
    try:
        if args.trace:
            values, samples = traced_run(client, args.seconds, OUT / f"{tag}-spans.json")
        else:
            baseline = Baseline(args.workload, args.seed, run_dir / "baseline")
            try:
                samples = timed_run(client, baseline, args.seconds)
            finally:
                baseline.close()
            samples.update(setup)
            values = {
                "wall_s": ratio(samples, "wall_s") * BASELINE_PASS_S[args.workload],
                "cpu_s": ratio(samples, "cpu_s") * BASELINE_PASS_S[args.workload],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": ratio(samples, "setup_s") * BASELINE_IMPORT_S,
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    detail = {
        "reference": "checked" if check.has_reference(args.seed) else "unchecked",
        "samples": samples,
        "failures": client.failures,
        "provenance": provenance(args.workload, args.seed),
    }
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

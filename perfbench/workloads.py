"""Workload definitions for the cyclictf benchmark.

A workload is a fixed list of CLI experiments run back to back by one
client (a closed loop).  Each experiment is one ``cyclictf <command>`` call
on a generated JSON config file.  The workload seed reaches the program only
through the ``seed`` field of those configs; the symbol generator
(``random-seeded``) takes its seed from there.

All workloads run at N = 32, the desk-scale ceiling of the full-grid channel
matrix, with the ``random-seeded`` symbol, the ``gaussian`` window, weight
order ``s = 1`` and 20 boundedness trials.  N = 32 is divisible by 4, so the
one-mode chirp defect at N = 2 (mod 4) does not make ``verify`` exit 1 here.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

N = 32
TAUS = [0.0, 0.25, 0.5, 0.75, 1.0]

# Seeds with stored reference outputs.  The held-out seed checks that a
# change generalises; it must not be used while a change is developed.
DEFAULT_SEED = 0
HELD_OUT_SEED = 403253
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)


@dataclass(frozen=True)
class Experiment:
    label: str  # names the experiment's output and reference directory
    command: str  # the cyclictf subcommand
    overrides: dict  # config fields on top of base_config()


def base_config(seed: int) -> dict:
    return {
        "n": N,
        "tau": list(TAUS),
        "symbol": {"name": "random-seeded"},
        "window": {"name": "gaussian"},
        "s": 1.0,
        "trials": 20,
        "seed": seed,
    }


WORKLOADS = {
    # The ROADMAP baseline sweep.  10 of its 15 stft_grid calls repeat an
    # earlier (symbol, window) pair, and it is the only workload that runs
    # all four envelope modes and most Weight.on_grid calls: caching and
    # envelope/weight work show here.
    "sweep-n32": [Experiment("sweep", "sweep", {})],
    # All seven identity suites on fresh random inputs: nothing repeats, and
    # the Python loop of the channel-modulus suite dominates.  A cache shows
    # no gain here; vectorising that suite shows its whole gain.
    "verify-n32": [Experiment("verify", "verify", {})],
    # The report subcommands.  stft_grid dominates wiener with few repeated
    # inputs, dequantize outnumbers op_tau, and it is the only workload on
    # the lattice/frame path and the 1024-line envelope CSV writer.
    "reports-n32": [
        Experiment("wiener", "wiener", {}),
        Experiment("norms", "norms", {"tau": [0.5]}),
        Experiment("channel-full", "channel", {"tau": [0.5]}),
        Experiment("channel-lattice", "channel", {"tau": [0.5], "lattice": {"a": 2, "b": 2}}),
    ],
}


def resolved_configs(workload: str, seed: int) -> dict[str, dict]:
    """The config of every experiment of a workload, keyed by label."""
    return {
        exp.label: {**base_config(seed), **exp.overrides} for exp in WORKLOADS[workload]
    }


def write_configs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write each experiment's config file; returns the paths keyed by label."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, cfg in resolved_configs(workload, seed).items():
        path = directory / f"{label}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        paths[label] = path
    return paths


@dataclass
class ExperimentRun:
    exit_code: int | None  # None when the call raised
    error: str
    stdout: str
    wall_s: float
    cpu_s: float


def run_experiment(cli, exp: Experiment, config: Path, out_dir: Path) -> ExperimentRun:
    """One timed ``cyclictf.cli.main`` call into an emptied output directory.

    The CLI's standard output is captured inside the timed region, because
    printing is part of the work a user waits for.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    buf = io.StringIO()
    argv = ["--config", str(config), "--out", str(out_dir), exp.command]
    error = ""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising experiment is a failed experiment
        code, error = None, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    return ExperimentRun(code, error, buf.getvalue(), t1 - t0, c1 - c0)

"""Golden outputs: the CLI's files for fixed configs against stored copies.

Each case runs one subcommand and compares every file it writes with the
copy under tests/golden/<case>/ by the benchmark's output rule
(perfbench/check.py), with the same file set and CSV headers.  The
benchmark's N = 32 experiments at its default seed are checked against their
references by that module's check_experiment, as a benchmark run checks them.

Regenerate the stored copies, after a deliberate change of results, with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from cyclictf import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TAUS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _cases() -> dict[str, tuple[str, dict]]:
    cases = {}
    for n in (8, 10, 15, 16):  # N = 10 is in the one-mode chirp defect's class, N = 2 (mod 4)
        for command in ("sweep", "norms", "channel", "wiener"):
            cases[f"{command}-n{n}"] = (command, {"n": n, "tau": TAUS, "s": 1.0})
    cases["channel-n16-lattice2x2"] = (
        "channel",
        {"n": 16, "tau": TAUS, "s": 1.0, "lattice": {"a": 2, "b": 2}},
    )
    # 8 points, fewer than N: not a frame, so the report carries a warning
    cases["channel-n16-lattice4x8"] = (
        "channel",
        {"n": 16, "tau": TAUS, "s": 1.0, "lattice": {"a": 4, "b": 8}},
    )
    # generator parameters: a comb window step and gaussian widths, explicit separable values
    cases["sweep-n16-comb-gaussian"] = (
        "sweep",
        {"n": 16, "tau": TAUS, "s": 1.0, "window": {"name": "comb", "step": 2},
         "symbol": {"name": "gaussian", "width": 3.0}},
    )
    cases["wiener-n8-separable-values"] = (
        "wiener",
        {"n": 8, "tau": TAUS, "s": 1.0, "window": {"name": "gaussian", "width": 2.0},
         "symbol": {"name": "separable-x", "values": [1.0, 2.0, -1.5, 0.5, 3.0, -2.0, 1.25, 0.75]}},
    )
    return cases


CASES = _cases()


def run_case(name: str, out_dir: Path) -> None:
    command, config = CASES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir.parent / f"{name}.config.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
    cfg_path.unlink()
    assert code == 0, f"{name}: exit code {code}"


@pytest.fixture
def check(monkeypatch):
    """perfbench/check.py, imported with perfbench/ on sys.path for this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("check")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, check, tmp_path):
    out_dir = tmp_path / name
    run_case(name, out_dir)
    ref_dir = GOLDEN_DIR / name
    expected = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    for fname in expected:
        header, arrays = check._file_arrays(out_dir / fname)
        ref_header, ref_arrays = check._file_arrays(ref_dir / fname)
        assert header == ref_header, fname
        assert check._compare_arrays(fname, arrays, ref_arrays) == []


def test_comparison_rule_catches_a_change(check):
    _, ref = check._file_arrays(GOLDEN_DIR / "sweep-n8" / "sweep.csv")
    first, *rest = ref["env_diff_l1"]
    changed = {**ref, "env_diff_l1": [first * (1 + 1e-6), *rest]}
    assert check._compare_arrays("sweep.csv", ref, ref) == []
    assert any("env_diff_l1" in msg for msg in check._compare_arrays("sweep.csv", changed, ref))


@pytest.mark.parametrize("workload", ["sweep-n32", "verify-n32", "reports-n32"])
def test_benchmark_reference(workload, check, tmp_path):
    # the benchmark's output check of each experiment at its default seed, run in-process as the benchmark runs it
    workloads = importlib.import_module("workloads")
    seed = workloads.DEFAULT_SEED
    configs = workloads.write_configs(workload, seed, tmp_path / "configs")
    for exp in workloads.WORKLOADS[workload]:
        out_dir = tmp_path / exp.label
        run = workloads.run_experiment(cli, exp, configs[exp.label], out_dir)
        assert check.check_experiment(run, out_dir, seed, exp.label) == [], exp.label


if __name__ == "__main__":
    for case in sorted(CASES):
        run_case(case, GOLDEN_DIR / case)
    print(f"wrote {len(CASES)} golden cases under {GOLDEN_DIR}", file=sys.stderr)

"""Golden outputs: the CLI's files for fixed configs against stored copies.

Each case runs one subcommand and compares every file it writes with the
copy under tests/golden/<case>/.  Numbers are compared per CSV column and
per JSON key path (list indices collapsed): max|out - ref| <= RTOL *
max|ref| over each such array, so last-digit noise in the 12-significant-
digit rendering never counts.  Non-finite values, strings and booleans must
match exactly, and so must the file set and the CSV headers.

Regenerate the stored copies, after a deliberate change of results, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclictf.cli import main

RTOL = 1e-10
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TAUS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _cases() -> dict[str, tuple[str, dict]]:
    cases = {}
    for n in (8, 15, 16):
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
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
    cfg_path.unlink()
    assert code == 0, f"{name}: exit code {code}"


def _arrays(path: Path) -> tuple[list[str] | None, dict[str, list]]:
    """(CSV header or None, named value arrays) of one output file."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *body = list(csv.reader(io.StringIO(text)))
        return header, {h: [float(row[i]) for row in body] for i, h in enumerate(header)}
    leaves: dict[str, list] = {}

    def walk(value, key):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], f"{key}.{k}")
        elif isinstance(value, list):
            for item in value:
                walk(item, f"{key}[]")
        else:
            leaves.setdefault(key, []).append(value)

    walk(json.loads(text), "")
    return None, leaves


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_file(out: Path, ref: Path) -> list[str]:
    header, arrays = _arrays(out)
    ref_header, ref_arrays = _arrays(ref)
    if header != ref_header:
        return [f"{ref.name}: header {header}, expected {ref_header}"]
    if set(arrays) != set(ref_arrays):
        return [f"{ref.name}: keys {sorted(set(arrays) ^ set(ref_arrays))} differ"]
    problems = []
    for key, ref_vals in ref_arrays.items():
        vals = arrays[key]
        if len(vals) != len(ref_vals):
            problems.append(f"{ref.name}:{key}: {len(vals)} values, expected {len(ref_vals)}")
        elif all(map(_is_number, ref_vals)) and all(map(_is_number, vals)):
            a, b = np.asarray(vals, dtype=float), np.asarray(ref_vals, dtype=float)
            fin = np.isfinite(b)
            if not np.array_equal(a[~fin], b[~fin]):
                problems.append(f"{ref.name}:{key}: non-finite values differ")
                continue
            scale = float(np.max(np.abs(b[fin]), initial=0.0))
            err = float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))
            if not err <= RTOL * scale:
                problems.append(f"{ref.name}:{key}: max error {err:.3g} against scale {scale:.3g}")
        elif vals != ref_vals:
            problems.append(f"{ref.name}:{key}: {vals} differ from {ref_vals}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out_dir = tmp_path / name
    run_case(name, out_dir)
    ref_dir = GOLDEN_DIR / name
    expected = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    problems = [msg for f in expected for msg in compare_file(out_dir / f, ref_dir / f)]
    assert not problems, "\n".join(problems)


def test_comparison_rule_catches_a_change(tmp_path):
    ref = GOLDEN_DIR / "sweep-n8" / "sweep.csv"
    header, *rows = ref.read_text().splitlines()
    cells = rows[0].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    changed = tmp_path / "sweep.csv"
    changed.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    assert compare_file(ref, ref) == []
    assert any("env_diff_l1" in msg for msg in compare_file(changed, ref))


if __name__ == "__main__":
    for case in sorted(CASES):
        run_case(case, GOLDEN_DIR / case)
    print(f"wrote {len(CASES)} golden cases under {GOLDEN_DIR}", file=sys.stderr)

"""Output checks: each experiment's files against the stored reference.

A checked comparison parses every output file into named numeric arrays
(one per CSV column, one per JSON key path with list indices collapsed) and
requires max|out - ref| <= RTOL * max|ref| for each array, so last-digit
noise in the 12-significant-digit rendering never counts.  Strings, booleans
and the file set must match exactly.

For a seed without references the comparison is "unchecked": only the
seed-independent checks run (exit code 0, the expected files and CSV
headers, no NaN and no infinity that the default seed's reference lacks,
every verify suite below SUITE_TOL).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED

RTOL = 1e-10
SUITE_TOL = 1e-10  # the verify pass threshold the CLI documents
VERIFY_SUITE_COUNT = 7

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
STDOUT_FILE = "stdout.txt"  # where a verify experiment's table is stored


def reference_dir(seed: int, label: str) -> Path:
    return REFERENCE_DIR / f"seed-{seed}" / label


def has_reference(seed: int) -> bool:
    return (REFERENCE_DIR / f"seed-{seed}").is_dir()


def _verify_rows(stdout: str) -> list[tuple[str, float, str]]:
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] in ("pass", "FAIL"):
            rows.append((parts[0], float(parts[1]), parts[2]))
    return rows


def _check_verify(stdout: str, ref_stdout: str | None) -> list[str]:
    rows = _verify_rows(stdout)
    problems = []
    if len(rows) != VERIFY_SUITE_COUNT:
        problems.append(f"verify printed {len(rows)} suites, expected {VERIFY_SUITE_COUNT}")
    for name, residual, status in rows:
        if not (math.isfinite(residual) and residual < SUITE_TOL) or status != "pass":
            problems.append(f"verify suite {name}: residual {residual} ({status})")
    if ref_stdout is not None:
        names = [r[0] for r in rows]
        ref_names = [r[0] for r in _verify_rows(ref_stdout)]
        if names != ref_names:
            problems.append(f"verify suites {names} differ from reference {ref_names}")
    return problems


def _csv_arrays(text: str) -> tuple[list[str], dict[str, list]]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols: dict[str, list] = {h: [] for h in header}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"CSV row has {len(row)} cells, header has {len(header)}")
        for h, cell in zip(header, row):
            cols[h].append(float(cell))
    return header, cols


def _json_arrays(text: str) -> dict[str, list]:
    leaves: dict[str, list] = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(value[key], f"{path}.{key}")
        elif isinstance(value, list):
            for item in value:
                walk(item, f"{path}[]")
        else:
            leaves.setdefault(path, []).append(value)

    walk(json.loads(text), "")
    return leaves


def _file_arrays(path: Path) -> tuple[list[str] | None, dict[str, list]]:
    text = path.read_text()
    if path.suffix == ".csv":
        return _csv_arrays(text)
    return None, _json_arrays(text)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _compare_arrays(fname: str, out: dict[str, list], ref: dict[str, list]) -> list[str]:
    if set(out) != set(ref):
        return [f"{fname}: keys {sorted(set(out) ^ set(ref))} differ from reference"]
    problems = []
    for key, ref_vals in ref.items():
        vals = out[key]
        if len(vals) != len(ref_vals):
            problems.append(f"{fname}:{key}: {len(vals)} values, reference has {len(ref_vals)}")
        elif all(_is_number(v) for v in ref_vals) and all(_is_number(v) for v in vals):
            a, b = np.asarray(vals, dtype=float), np.asarray(ref_vals, dtype=float)
            fin = np.isfinite(b)
            if not np.array_equal(a[~fin], b[~fin]):
                problems.append(f"{fname}:{key}: non-finite values differ from reference")
                continue
            scale = float(np.max(np.abs(b[fin]), initial=0.0))
            err = float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))
            if not err <= RTOL * scale:
                problems.append(f"{fname}:{key}: max error {err:.3g} against scale {scale:.3g}")
        elif vals != ref_vals:
            problems.append(f"{fname}:{key}: {vals} differ from reference {ref_vals}")
    return problems


def _non_finite(fname: str, arrays: dict[str, list], ref_arrays: dict[str, list]) -> list[str]:
    """A NaN, or an infinity where the reference has none (such as a norm exponent)."""
    problems = []
    for key, vals in arrays.items():
        ref = ref_arrays.get(key, [])
        for i, v in enumerate(vals):
            if _is_number(v) and not math.isfinite(v) and not (i < len(ref) and ref[i] == v):
                problems.append(f"{fname}:{key}[{i}]: non-finite value {v}")
                break
    return problems


def check_experiment(run, out_dir: Path, seed: int, label: str) -> list[str]:
    """Problems with one experiment's result; empty when it is correct.

    ``run`` is a workloads.ExperimentRun.  When the seed has no reference,
    the default seed's reference supplies the expected file names and CSV
    headers.
    """
    if run.exit_code != 0:
        return [f"exit code {run.exit_code} {run.error}".strip()]
    checked = has_reference(seed)
    ref_dir = reference_dir(seed if checked else DEFAULT_SEED, label)
    expected = sorted(p.name for p in ref_dir.iterdir())
    if expected == [STDOUT_FILE]:  # verify writes no files, only its table
        ref_stdout = (ref_dir / STDOUT_FILE).read_text() if checked else None
        return _check_verify(run.stdout, ref_stdout)
    produced = sorted(p.name for p in out_dir.iterdir())
    if produced != expected:
        return [f"output files {produced}, expected {expected}"]
    problems = []
    for name in expected:
        try:
            header, arrays = _file_arrays(out_dir / name)
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        ref_header, ref_arrays = _file_arrays(ref_dir / name)
        problems += _non_finite(name, arrays, ref_arrays)
        if header != ref_header:
            problems.append(f"{name}: header {header}, expected {ref_header}")
        elif checked:
            problems += _compare_arrays(name, arrays, ref_arrays)
    return problems

#!/usr/bin/env python3
"""The mutant catalogue: one-line edits of src/ that the tier-1 tests must catch.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant replaces one string `old` in one file by `new`, in a fresh copy of
the repository in a temporary directory, and runs the tier-1 command there with
-x (stop at the first failure), less tier-1's freshness test of this catalogue
(FRESHNESS_TEST), which fails in every mutant copy since its `old` is gone.  A
mutant is killed when that run fails.  Each entry names its expected result:
`killed`, or `equivalent: <reason>` for an edit that the tests cannot tell from
the original by design.  It prints each result with the first failing test, and
the total run time.

It exits 1 when a mutant marked `killed` survives, or when an entry is stale
(`stale_reason`: its `old` string no longer occurs exactly once in its file, or
its expected result is neither form above; the catalogue must be mended with
the code).  Tier-1 applies that rule alone, in milliseconds; the catalogue run
is not part of tier-1: a survivor costs one full tier-1 run, about 25 s on a
2-vCPU Xeon, and the catalogue about 3-6 minutes.

A change to a formula in src/ adds at least one mutant of its own to the table
and shows that tier-1 kills it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclictf"
FRESHNESS_TEST = "tests/test_package.py::test_mutant_catalogue_is_fresh"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--deselect", FRESHNESS_TEST]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out",
                                 "*.egg-info")

CATALOGUE = [  # (file under src/cyclictf, old, new, label, expected)
    ("quantize.py", "psi = (n + 1 if n % 2 else 1)", "psi = (n - 1 if n % 2 else 1)",
     "odd-N chirp kappa = N + 1 -> N - 1", "killed"),
    ("quantize.py", "psi[h, h] = h * h if n % 4 == 2 else 0", "psi[h, h] = 0",
     "psi(N/2, N/2) = 0 at N == 2 (mod 4)", "killed"),
    ("diagnostics.py", "up = frac > 0.5 + 1e-9", "up = frac >= 0.5 - 1e-9",
     "_nearest_bins ties round up", "killed"),
    ("verify.py", "on1 = np.abs(p1 - np.rint(p1)) <= 1e-9", "on1 = np.abs(p1 - np.rint(p1)) <= 1e-6",
     "channel-modulus on-grid test 1e-9 -> 1e-6",
     "equivalent: at every tau the suite and the tests use (0, 1/2, 1) each p1 is an integer or a half-integer, "
     "off the grid by 0 or 1/2, so no tolerance below 1/2 changes which pairs are compared"),
    ("verify.py", "SUITE_TOL = 1e-10", "SUITE_TOL = 1e-6", "SUITE_TOL 1e-10 -> 1e-6", "killed"),
    ("verify.py", "return relative_residual(gap, np.linalg.norm(sigma) * np.linalg.norm(w))",
     "return relative_residual(gap, np.linalg.norm(sigma) * np.linalg.norm(w)) / len(f)",
     "duality_residual divided by a further N", "killed"),
    ("transforms.py", "FRAME_RTOL = 1e-10", "FRAME_RTOL = 1e-6", "FRAME_RTOL 1e-10 -> 1e-6", "killed"),
    ("normbank.py", "inner = np.linalg.norm(arr, ord=p, axis=0)", "inner = np.linalg.norm(arr, ord=q, axis=0)",
     "mixed_norm inner exponent p -> q", "killed"),
    ("phasespace.py", "wrapped = np.minimum(r, n - r)", "wrapped = r", "Weight without the wrap", "killed"),
    ("diagnostics.py", "CONDITION_LIMIT = 1e10", "CONDITION_LIMIT = 1e12", "CONDITION_LIMIT 1e10 -> 1e12", "killed"),
    ("diagnostics.py", "v.compose(btau_matrix(tau))", "v.compose(btau_matrix(1 - tau))",
     "fclass_weight B_tau -> B_{1-tau}", "killed"),
    ("verify.py", 'cases.append((0.5, comb_window(n), "comb"))', "pass",
     "channel-modulus drops the comb tau = 1/2 case", "killed"),
    ("verify.py", "return (0.0, 1.0) if n % 4 == 2 else (0.0, 0.3, 0.5, 1.0)", "return (0.0, 1.0)",
     "covariance_taus only {0, 1}", "killed"),
    ("verify.py", "for tau in (0.0, 0.3, 0.5, 1.0) for _", "for tau in (0.0, 1.0) for _",
     "quantize-duality suite only tau in {0, 1}", "killed"),
    ("cli.py", "MAX_TRIALS = 10**5", "MAX_TRIALS = 10**9", "MAX_TRIALS 10^5 -> 10^9",
     "equivalent: a cap on the config's trials, which the tests read by name; no computed value depends on it"),
    ("transforms.py", "return classes, (n // lattice.b) *", "return classes, (n // lattice.a) *",
     "Walnut block scale N/b -> N/a", "killed"),
    ("transforms.py", "classes = np.arange(n).reshape(lattice.b, -1).T",
     "classes = np.arange(n).reshape(-1, lattice.b)",
     "Walnut classes t0 + i N/b -> consecutive runs of b", "killed"),
]


def stale_reason(path: str, old: str, expected: str) -> str:
    """Why one entry no longer applies to src/, or "" when it is fresh."""
    count = (SRC / path).read_text().count(old)
    if count != 1:
        return f"`{old}` occurs {count} times in {path}"
    if not re.fullmatch(r"killed|equivalent: \S.*", expected):
        return f"expected {expected!r} is neither `killed` nor `equivalent: <reason>`"
    return ""


def stale_entries() -> list[str]:
    """`label: reason` of every stale entry of the catalogue."""
    return [f"{label}: {reason}" for path, old, _, label, expected in CATALOGUE
            if (reason := stale_reason(path, old, expected))]


def run_mutant(path: str, old: str, new: str, expected: str) -> tuple[str, str]:
    """(status, first failing test) of one mutant: status killed, survived or stale."""
    if reason := stale_reason(path, old, expected):
        return "stale", reason
    text = (SRC / path).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / SRC.relative_to(ROOT) / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"exit {run.returncode}"


def main() -> int:
    start = time.perf_counter()
    wrong = 0
    for number, (path, old, new, label, expected) in enumerate(CATALOGUE):
        began = time.perf_counter()
        status, detail = run_mutant(path, old, new, expected)
        bad = status == "stale" or (status == "survived" and expected == "killed")
        wrong += bad
        note = ""
        if bad:
            note = "  <-- FAIL"
        elif status == "killed" and expected != "killed":
            note = "  (the tests now tell it apart: mark it killed)"
        print(f"{number:2d} {label}: {status} in {time.perf_counter() - began:.0f} s"
              f"{' (' + detail + ')' if detail else ''}; expected {expected}{note}", flush=True)
    print(f"{len(CATALOGUE)} mutants, {wrong} failing, {time.perf_counter() - start:.0f} s in all")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

"""Wire formats: JSON for signals/grids/reports, CSV tables for envelopes.

Signals serialize as arrays of [re, im] pairs; N x N grids row-major with an
{"N": ..., "layout": "x-major"} header.  All floating-point output is
rendered at 12 significant digits so repeated runs (and implementations in
other languages) can be compared byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .diagnostics import DecayEnvelope
from .phasespace import Weight

__all__ = [
    "envelope_csv_lines",
    "format_float",
    "grid_csv_lines",
    "grid_from_json",
    "grid_to_json",
    "signal_from_json",
    "signal_to_json",
    "write_json",
]


def format_float(x: float) -> str:
    """Fixed 12-significant-digit decimal rendering."""
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(format_float(x))


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[_round12(v.real), _round12(v.imag)] for v in values]


def signal_to_json(f: np.ndarray) -> str:
    """A signal as a JSON array of [re, im] pairs."""
    return json.dumps(_pairs(np.asarray(f, dtype=complex)))


def signal_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    return np.array([complex(re, im) for re, im in data])


def grid_to_json(grid: np.ndarray) -> str:
    """An N x N complex grid, row-major in the first (x) index."""
    arr = np.asarray(grid, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("grid must be square")
    payload = {
        "N": arr.shape[0],
        "layout": "x-major",
        "values": _pairs(arr.ravel(order="C")),
    }
    return json.dumps(payload, sort_keys=True)


def grid_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    n = int(data["N"])
    flat = np.array([complex(re, im) for re, im in data["values"]])
    return flat.reshape(n, n)


def grid_csv_lines(grid: np.ndarray) -> list[str]:
    """An N x N complex grid as CSV rows: x, omega, re, im (row-major in x)."""
    arr = np.asarray(grid, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("grid must be square")
    lines = [f"# N={arr.shape[0]} layout=x-major", "x,omega,re,im"]
    for x in range(arr.shape[0]):
        for w in range(arr.shape[1]):
            v = arr[x, w]
            lines.append(f"{x},{w},{format_float(v.real)},{format_float(v.imag)}")
    return lines


def envelope_csv_lines(env: DecayEnvelope, v: Weight) -> list[str]:
    """Envelope table as CSV rows: k_x, k_omega, h, v_s, h_times_v."""
    lines = ["k_x,k_omega,h,v_s,h_times_v"]
    vgrid = v.on_grid(env.n)
    for kx in range(env.n):
        for kw in range(env.n):
            h = env.table[kx, kw]
            w = vgrid[kx, kw]
            lines.append(
                f"{kx},{kw},{format_float(h)},{format_float(w)},{format_float(h * w)}"
            )
    return lines


def write_json(path, obj) -> None:
    """Serialize a report dict with rounded floats, sorted keys, trailing newline."""

    def clean(value):
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (float, np.floating)):
            return _round12(float(value))
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, complex):
            return [_round12(value.real), _round12(value.imag)]
        return value

    with open(path, "w") as fh:
        json.dump(clean(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")

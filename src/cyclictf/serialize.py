"""Output formats: JSON reports and CSV envelope tables.

All floating-point output is rendered at 12 significant digits so repeated
runs (and implementations in other languages) can be compared byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .phasespace import Weight

__all__ = ["envelope_csv_lines", "format_float", "write_json"]


def format_float(x: float) -> str:
    """Fixed 12-significant-digit decimal rendering."""
    return f"{float(x):.12g}"


def envelope_csv_lines(table: np.ndarray, v: Weight) -> list[str]:
    """An N x N envelope table as CSV rows: k_x, k_omega, h, v_s, h_times_v."""
    lines = ["k_x,k_omega,h,v_s,h_times_v"]
    n = table.shape[0]
    vgrid = v.on_grid(n)
    for kx in range(n):
        for kw in range(n):
            h = table[kx, kw]
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
        if isinstance(value, list):
            return [clean(v) for v in value]
        if isinstance(value, float):  # np.float64 too
            return float(format_float(value))
        return value

    with open(path, "w") as fh:
        json.dump(clean(obj), fh, sort_keys=True, indent=1)
        fh.write("\n")

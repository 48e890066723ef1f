"""Discrete modulation-space and symbol-class norms.

Integrals become plain sums with unit grid spacing; infinity exponents are
handled as maxima.  The modulation norm keeps the continuous variable order:
inner exponent p over the time variable x, outer exponent q over the
frequency variable omega.

The symbol-class functionals read the 4-variable STFT of N x N grids
through its two sup tables (symbol_sups, one streamed pass for both, which
never holds the N^4 STFT): sjostrand_norm sums over the frequency offset of
the largest-in-position STFT magnitude; fsjostrand_norm swaps the two roles.
Both are the weighted l^1 mass ell1v of one sup table, the same mass that
diagnostics takes of a channel's decay envelope.
"""

from __future__ import annotations

import numpy as np

from .phasespace import Weight
from .transforms import stft, stft_slabs

__all__ = [
    "ell1v",
    "fsjostrand_norm",
    "mixed_norm",
    "modulation_norm",
    "sjostrand_norm",
    "symbol_sups",
]


def mixed_norm(grid: np.ndarray, p: float, q: float) -> float:
    """L^{p,q} norm of an N x N grid indexed (x, omega), for p, q in [1, inf].

    Inner l^p over x, outer l^q over omega.
    """
    if not (p >= 1.0 and q >= 1.0):  # refuses NaN too
        raise ValueError("exponents must satisfy p, q >= 1")
    arr = np.asarray(grid, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"mixed_norm needs a 2-D grid, got shape {arr.shape}")
    inner = np.linalg.norm(arr, ord=p, axis=0)  # collapse x, one value per omega
    return float(np.linalg.norm(inner, ord=q, axis=0))  # axis=0: without it, 1-D ord=2 sums by BLAS dot


def modulation_norm(f: np.ndarray, g: np.ndarray, p: float, q: float) -> float:
    """|| V_g f ||_{L^{p,q}}; window-dependent, equivalent across windows."""
    return mixed_norm(stft(f, g), p, q)


def symbol_sups(sigma: np.ndarray, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two sup tables of |V_W sigma| from one streamed symbol-STFT pass.

    The first is sup_z |V_W sigma(z, zeta)| on the (q1, q2) grid of zeta, the
    second sup_zeta |V_W sigma(z, zeta)| on the (p1, p2) grid of z.  Each
    (N, N, N) slab of stft_slabs is reduced as it comes (a running maximum for
    the first table, row p1 of the second), so memory is O(N^3); maxima are
    exact, so the tables equal those of the full stft_grid bit for bit.
    """
    n = np.shape(sigma)[0]
    sup_pos = np.zeros((n, n))  # |V_W sigma| >= 0, so 0 is the identity of the running max
    sup_freq = np.empty((n, n))
    mags = np.empty((n, n, n))
    for p1, slab in enumerate(stft_slabs(sigma, window)):
        np.abs(slab, out=mags)
        np.maximum(sup_pos, mags.max(axis=0), out=sup_pos)
        sup_freq[p1] = mags.max(axis=(1, 2))
    return sup_pos, sup_freq


def ell1v(table: np.ndarray, v: Weight) -> float:
    """Weighted l^1 mass sum_k table(k) v(k) of an N x N table on Z_N^2."""
    return float(np.sum(table * v.on_grid(table.shape[0])))


def sjostrand_norm(sups: tuple[np.ndarray, np.ndarray], v: Weight) -> float:
    """sum_zeta sup_z |V_W sigma(z, zeta)| v(zeta), from symbol_sups(sigma, W)."""
    return ell1v(sups[0], v)


def fsjostrand_norm(sups: tuple[np.ndarray, np.ndarray], v: Weight) -> float:
    """sum_z sup_zeta |V_W sigma(z, zeta)| v(z); the Fourier image of sjostrand_norm."""
    return ell1v(sups[1], v)

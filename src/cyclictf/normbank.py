"""Discrete modulation-space and symbol-class norms.

Integrals become plain sums with unit grid spacing; infinity exponents are
handled as maxima.  The modulation norm keeps the continuous variable order:
inner exponent p over the time variable x, outer exponent q over the
frequency variable omega.

The symbol-class functionals read the 4-variable STFT of N x N grids
through its two sup tables (symbol_sups, one streamed pass for both, which
never holds the N^4 STFT): sjostrand_norm sums over the frequency offset of
the largest-in-position STFT magnitude; fsjostrand_norm swaps the two roles.
Both weight their sums by a phasespace.Weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasespace import Weight
from .transforms import stft, stft_slabs

__all__ = [
    "MixedNormSpec",
    "fsjostrand_norm",
    "mixed_norm",
    "modulation_norm",
    "sjostrand_norm",
    "symbol_sups",
]


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponent pair (p, q) in [1, inf]."""

    p: float
    q: float

    def __post_init__(self) -> None:
        for e in (self.p, self.q):
            if not (e >= 1.0):
                raise ValueError("exponents must satisfy p, q >= 1")


def _lp(values: np.ndarray, p: float, axis: int) -> np.ndarray:
    if np.isinf(p):
        return values.max(axis=axis)
    return (values**p).sum(axis=axis) ** (1.0 / p)


def mixed_norm(grid: np.ndarray, spec: MixedNormSpec) -> float:
    """L^{p,q} norm of an N x N grid indexed (x, omega).

    Inner l^p over x, outer l^q over omega.
    """
    arr = np.abs(np.asarray(grid, dtype=complex))
    inner = _lp(arr, spec.p, axis=0)  # collapse x, one value per omega
    return float(_lp(inner, spec.q, axis=0))


def modulation_norm(f: np.ndarray, g: np.ndarray, spec: MixedNormSpec) -> float:
    """|| V_g f ||_{L^{p,q}}; window-dependent, equivalent across windows."""
    return mixed_norm(stft(f, g), spec)


def symbol_sups(sigma: np.ndarray, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two sup tables of |V_W sigma| from one streamed symbol-STFT pass.

    The first is sup_z |V_W sigma(z, zeta)| on the (q1, q2) grid of zeta, the
    second sup_zeta |V_W sigma(z, zeta)| on the (p1, p2) grid of z.  Each
    (N, N, N) slab of stft_slabs is reduced as it comes (a running maximum for
    the first table, row p1 of the second), so memory is O(N^3); maxima are
    exact, so the tables equal those of the full stft_grid bit for bit.
    """
    n = np.shape(sigma)[0]
    mags = np.empty((n, n, n))
    sup_pos = np.zeros((n, n))  # |V_W sigma| >= 0, so 0 is the identity of the running max
    sup_freq = np.empty((n, n))
    for p1, slab in enumerate(stft_slabs(sigma, window)):
        np.abs(slab, out=mags)
        np.maximum(sup_pos, mags.max(axis=0), out=sup_pos)
        mags.max(axis=(1, 2), out=sup_freq[p1])
    return sup_pos, sup_freq


def sjostrand_norm(sups: tuple[np.ndarray, np.ndarray], v: Weight) -> float:
    """sum_zeta sup_z |V_W sigma(z, zeta)| v(zeta), from symbol_sups(sigma, W)."""
    sup_pos = sups[0]
    return float(np.sum(sup_pos * v.on_grid(sup_pos.shape[0])))


def fsjostrand_norm(sups: tuple[np.ndarray, np.ndarray], v: Weight) -> float:
    """sum_z sup_zeta |V_W sigma(z, zeta)| v(z); the Fourier image of sjostrand_norm."""
    sup_freq = sups[1]
    return float(np.sum(sup_freq * v.on_grid(sup_freq.shape[0])))

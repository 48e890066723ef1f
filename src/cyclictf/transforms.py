"""Unitary DFT, time-frequency shifts, STFT, and Gabor frame machinery on Z_N.

All inner products are conjugate-linear in the second argument:
<f, g> = sum_t f(t) conj(g(t)).

The DFT is unitary, F f(xi) = N^{-1/2} sum_x f(x) e^{-2 pi i x xi / N}, so
Parseval and the fundamental identity
    V_g f(x, omega) = e^{-2 pi i x omega / N} V_{Fg} Ff(omega, -x)
hold exactly on the grid.  With this normalization the STFT inversion reads
V_g* V_g = N ||g||^2 Id; the discrete constant N is pinned by the delta
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phasespace import Lattice

__all__ = [
    "FrameReport",
    "canonical_dual",
    "dft",
    "frame_bounds",
    "frame_operator",
    "gabor_reconstruct",
    "shift_bank",
    "stft",
    "stft_adjoint",
    "stft_grid",
    "stft_slabs",
    "tf_shift",
]

FRAME_RTOL = 1e-10  # is_frame threshold, relative to the upper bound


def _as_signal(f) -> np.ndarray:
    arr = np.asarray(f, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    return arr


def _nonzero(window: np.ndarray) -> np.ndarray:
    """The window itself, refused if it is all zero (no frame, no STFT inversion)."""
    if not np.any(window):
        raise ValueError("window must be non-zero")
    return window


def dft(f: np.ndarray) -> np.ndarray:
    """Unitary DFT; dft applied four times is the identity."""
    arr = _as_signal(f)
    return np.fft.fft(arr) / np.sqrt(arr.shape[0])


def tf_shift(z: Sequence[int], f: np.ndarray) -> np.ndarray:
    """Phase-space shift pi(z) f(t) = e^{2 pi i omega t / N} f(t - x); unitary."""
    arr = _as_signal(f)
    n = arr.shape[0]
    x, omega = int(z[0]), int(z[1])
    return _phase(omega * np.arange(n), n) * np.roll(arr, x)


def _phase(k, n: int) -> np.ndarray:
    """e^{2 pi i k / N} for integer k, read from one table of the N roots of unity at k mod N."""
    return np.exp(2j * np.pi * np.arange(n) / n)[k % n]


def shift_bank(phi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Columns pi(z) phi for the rows z of a (P, 2) int point array, an N x P matrix.

    Gathers e^{2 pi i omega t / N} and phi((t - x) mod N) for all columns at
    once and multiplies them as tf_shift does, so each column equals
    tf_shift(z, phi) bit for bit.
    """
    arr = _nonzero(_as_signal(phi))
    n = arr.shape[0]
    x, omega = np.asarray(points).T
    t = np.arange(n)[:, None]
    bank = _phase(omega * t, n)
    bank *= arr[(t - x) % n]
    return bank


def _shift_index(n: int) -> np.ndarray:
    """[x, t] -> (t - x) mod N, so g[_shift_index(n)][x] = np.roll(g, x)."""
    t = np.arange(n)
    return (t[None, :] - t[:, None]) % n


def stft(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """STFT V_g f(x, omega) = <f, pi(x, omega) g>, an N x N grid indexed (x, omega).

    Equals sum_y f(y) conj(g(y - x)) e^{-2 pi i y omega / N}; computed as one
    batched DFT over the N time shifts.
    """
    farr, garr = _as_signal(f), _as_signal(g)
    n = farr.shape[0]
    if garr.shape != farr.shape:
        raise ValueError(f"signal and window lengths differ: {n} != {garr.shape[0]}")
    return np.fft.fft(farr * np.conj(_nonzero(garr)[_shift_index(n)]), axis=1)


def stft_adjoint(big_f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint V_g* F = sum_z F(z) pi(z) g; <V_g f, F> = <f, V_g* F> exactly."""
    garr = _as_signal(g)
    n = garr.shape[0]
    coeff = np.asarray(big_f, dtype=complex)
    if coeff.shape != (n, n):
        raise ValueError("coefficient grid must be N x N")
    # sum_omega F(x, omega) e^{2 pi i omega t / N} = N * ifft over omega
    rows = np.fft.ifft(coeff, axis=1) * n
    return np.sum(rows * garr[_shift_index(n)], axis=0)


def stft_slabs(sigma: np.ndarray, window: np.ndarray):
    """The symbol STFT one p1 at a time: yields V_W sigma(p1, ., ., .) for p1 = 0, ..., N - 1.

    Each slab has shape (N, N, N) indexed (p2, q1, q2) and is the same buffer,
    overwritten by the next p1, so a consumer must copy or reduce it before
    asking for the next one.  The N column shifts of conj(W) are built once;
    each p1 multiplies them by its row-shifted sigma and takes the fft over
    q2, then over q1, in place (the two passes of fft2, in its order).
    """
    arr = np.asarray(sigma, dtype=complex)
    win = _nonzero(np.asarray(window, dtype=complex))
    if arr.ndim != 2 or arr.shape != win.shape or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"symbol and window must be square grids of one shape: {arr.shape} and {win.shape}")
    n = arr.shape[0]
    # cols[p2, r, y2] = conj(W)[r, (y2 - p2) mod N] = roll(conj(W), p2, axis=1)[r, y2],
    # one gather into a contiguous (p2, r, y2) array
    cols = np.conj(win)[np.arange(n)[:, None], _shift_index(n)[:, None, :]]
    slab = np.empty((n, n, n), dtype=complex)
    for p1 in range(n):
        # arr * roll(cols, p1, axis=1), written in two slices without a copy
        np.multiply(arr[p1:], cols[:, : n - p1], out=slab[:, p1:])
        np.multiply(arr[:p1], cols[:, n - p1 :], out=slab[:, :p1])
        np.fft.fft(slab, axis=2, out=slab)
        np.fft.fft(slab, axis=1, out=slab)
        yield slab


def stft_grid(sigma: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Symbol STFT on Z_N^2: V_W sigma(p, q) = <sigma, Pi(p, q) W>.

    Output has shape (N, N, N, N) indexed (p1, p2, q1, q2); the window W is
    an N x N grid (a Symbol).  Same raw-sum normalization as the 1-D stft.
    The slabs of stft_slabs, copied out one p1 at a time.
    """
    n = np.shape(sigma)[0]
    out = np.empty((n, n, n, n), dtype=complex)
    for p1, slab in enumerate(stft_slabs(sigma, window)):
        out[p1] = slab
    return out


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds of a Gabor system: A ||f||^2 <= sum |<f, pi(l) phi>|^2 <= B ||f||^2."""

    lower: float
    upper: float
    condition: float
    is_frame: bool


def frame_operator(phi: np.ndarray, lattice: Lattice) -> np.ndarray:
    """S = sum_{l in Lambda} <., pi(l) phi> pi(l) phi, an N x N PSD matrix."""
    arr = _as_signal(phi)
    bank = shift_bank(arr, lattice.points(arr.shape[0]))
    return bank @ bank.conj().T


def _frame_report(s: np.ndarray) -> FrameReport:
    """Exact bounds from the eigenvalues of a frame operator S."""
    eig = np.linalg.eigvalsh(s)
    lower, upper = float(eig[0]), float(eig[-1])
    is_frame = lower > FRAME_RTOL * upper
    condition = upper / lower if is_frame else float("inf")
    return FrameReport(lower=lower, upper=upper, condition=condition, is_frame=is_frame)


def frame_bounds(phi: np.ndarray, lattice: Lattice) -> FrameReport:
    """Exact bounds from the eigenvalues of the frame operator."""
    return _frame_report(frame_operator(phi, lattice))


def canonical_dual(phi: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Canonical dual window S^{-1} phi; requires the system to be a frame."""
    s = frame_operator(phi, lattice)
    if not _frame_report(s).is_frame:
        raise ValueError("frame operator singular")
    return np.linalg.solve(s, _as_signal(phi))


def gabor_reconstruct(f: np.ndarray, phi: np.ndarray, dual: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Expansion sum_l <f, pi(l) phi> pi(l) dual; identity when dual = S^{-1} phi."""
    arr = _as_signal(f)
    pts = lattice.points(arr.shape[0])
    return shift_bank(dual, pts) @ (shift_bank(phi, pts).conj().T @ arr)

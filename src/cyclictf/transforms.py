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
    return _shifts(_as_signal(f), [[int(z[0]), int(z[1])]])[:, 0]


def _phase(k, n: int) -> np.ndarray:
    """e^{2 pi i k / N} for integer k, read from one table of the N roots of unity at k mod N."""
    return np.exp(2j * np.pi * np.arange(n) / n)[k % n]


def _shifts(arr: np.ndarray, points) -> np.ndarray:
    """Columns pi(z) arr for the rows z = (x, omega) of a (P, 2) int point array, an N x P matrix:
    e^{2 pi i omega t / N} and arr((t - x) mod N), gathered for all columns at once and multiplied."""
    n = arr.shape[0]
    x, omega = np.asarray(points).T
    t = np.arange(n)[:, None]
    bank = _phase(omega * t, n)
    bank *= arr[(t - x) % n]
    return bank


def shift_bank(phi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Columns pi(z) phi for the rows z of a (P, 2) int point array, an N x P matrix; phi must be non-zero."""
    return _shifts(_nonzero(_as_signal(phi)), points)


def _shift_index(n: int) -> np.ndarray:
    """[x, t] -> (t - x) mod N, so row x of g[_shift_index(n)] is t -> g(t - x)."""
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
    asking for the next one.  Every window shift of conj(W) is one view into
    its 2N x 2N tiling; each p1 multiplies sigma by its N shifts and takes the
    fft over q2, then over q1, in place (the two passes of fft2, in its order).
    """
    arr = np.asarray(sigma, dtype=complex)
    win = _nonzero(np.asarray(window, dtype=complex))
    if arr.ndim != 2 or arr.shape != win.shape or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"symbol and window must be square grids of one shape: {arr.shape} and {win.shape}")
    n = arr.shape[0]
    # tiles[N - p1, N - p2][y1, y2] = conj(W)[(y1 - p1) mod N, (y2 - p2) mod N], a view
    tiles = np.lib.stride_tricks.sliding_window_view(np.tile(np.conj(win), (2, 2)), (n, n))
    slab = np.empty((n, n, n), dtype=complex)
    for p1 in range(n):
        np.multiply(arr, tiles[n - p1, n:0:-1], out=slab)
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


def _walnut_blocks(phi: np.ndarray, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The frame operator in Walnut form: blocks[t0] is S on the class classes[t0] = t0 + i N/b (i < b), and
    S(t, s) = (N/b) sum_{j < N/a} phi(t - ja) conj phi(s - ja) for t == s (mod N/b), 0 otherwise."""
    arr = _as_signal(phi)
    n = arr.shape[0]
    lattice.validate(n)
    classes = np.arange(n).reshape(lattice.b, -1).T
    shifts = _nonzero(arr)[(classes[:, None] - lattice.a * np.arange(n // lattice.a)[:, None]) % n]  # [t0, j, i]
    return classes, (n // lattice.b) * (shifts.transpose(0, 2, 1) @ shifts.conj())


def frame_bounds(phi: np.ndarray, lattice: Lattice) -> FrameReport:
    """Exact bounds: the extreme eigenvalues of the frame operator's Walnut blocks."""
    eig = np.linalg.eigvalsh(_walnut_blocks(phi, lattice)[1])
    lower, upper = float(eig[:, 0].min()), float(eig[:, -1].max())
    is_frame = lower > FRAME_RTOL * upper
    return FrameReport(lower=lower, upper=upper, condition=upper / lower if is_frame else np.inf, is_frame=is_frame)


def canonical_dual(phi: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Canonical dual window S^{-1} phi, solved block by block; requires the system to be a frame."""
    arr = _as_signal(phi)
    if not frame_bounds(arr, lattice).is_frame:
        raise ValueError("frame operator singular")
    classes, blocks = _walnut_blocks(arr, lattice)
    dual = np.empty_like(arr)
    dual[classes] = np.linalg.solve(blocks, arr[classes][..., None])[..., 0]
    return dual


def gabor_reconstruct(f: np.ndarray, phi: np.ndarray, dual: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Expansion sum_l <f, pi(l) phi> pi(l) dual; identity when dual = S^{-1} phi."""
    arr = _as_signal(f)
    pts = lattice.points(arr.shape[0])
    bank = shift_bank(phi, pts)  # fresh, so conjugated in place: the analysis operator is a view, not a copy
    return shift_bank(dual, pts) @ (np.conj(bank, out=bank).T @ arr)

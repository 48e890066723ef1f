"""tau-quantization on Z_N: symbols to operators and back, tau-Wigner duality.

An N x N symbol sigma(x, omega) maps to the operator

    Op_tau(sigma) = (1/N) sum_{omega, u} sigma_hat(omega, u)
                    e^{-2 pi i (1 - tau) psi(omega, u) / N}  T_{-u} M_omega,

where sigma_hat is the unitary 2-D DFT of sigma and psi is an integer chirp
table with psi(omega, u) == omega * u (mod N).  The normalization is pinned
by "sigma == 1 gives the identity operator"; tau enters only through the
scalar phase, so every real tau in [0, 1] is admissible and the map is a
linear bijection with exact inverse `dequantize`.

The chirp table is the one non-obvious convention.  It is chosen exactly
antisymmetric under the rotation (omega, u) -> (-u, omega), which makes the
conjugation rule  F Op_tau(sigma) F* = Op_{1-tau}(sigma o J^{-1})  and the
half-point involution  Op_{1/2}(sigma)* = Op_{1/2}(conj sigma)  hold to
machine precision for every real tau.  In closed form it is
kappa c(omega) c(u) on centered representatives c, with kappa = N+1 for odd
N (the half-inverse chirp of the odd cyclic calculus) and 1 for even N, where
row and column N/2 are +-(N/2) |c| (see `chirp_exponents`).  For
N == 2 (mod 4) the single self-rotating mode (N/2, N/2) cannot satisfy
both the antisymmetry and the mod-N product constraint; the product wins
there, and conjugation acquires a one-mode defect away from tau in {0, 1}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .transforms import _shift_index

__all__ = [
    "chirp_exponents",
    "convert_symbol",
    "dequantize",
    "op_tau",
    "rotate_symbol_j_inv",
    "spreading_function",
    "symbol_from_spreading",
    "tau_wigner",
    "twisted_product",
]


@lru_cache(maxsize=None)
def chirp_exponents(n: int) -> np.ndarray:
    """Integer table psi with psi == omega*u (mod N), antisymmetric under rotation.

    psi(omega, u) = kappa c(omega) c(u), with centered representatives
    c(r) = r - N if 2r >= N else r, and kappa = N+1 for odd N else 1.  For
    even N, with h = N/2, row h is h |c(u)|, column h is -h |c(omega)|, and
    the self-rotating mode psi(h, h) is h^2 for N == 2 (mod 4), where the
    antisymmetry is unattainable, else 0.  The returned array is read-only.
    """
    c = np.arange(n, dtype=np.int64)
    c[2 * c >= n] -= n
    psi = (n + 1 if n % 2 else 1) * np.outer(c, c)
    if n % 2 == 0:
        h = n // 2
        psi[h, :] = h * np.abs(c)
        psi[:, h] = -h * np.abs(c)
        psi[h, h] = h * h if n % 4 == 2 else 0
    psi.setflags(write=False)
    return psi


def _chirp(n: int, tau: float) -> np.ndarray:
    """The chirp e^{-2 pi i (1 - tau) psi / N} of spreading_function, for tau in [0, 1]."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("quantization parameter out of range")
    return np.exp(-2j * np.pi * (1 - tau) * chirp_exponents(n) / n)


def _as_symbol(sigma) -> np.ndarray:
    arr = np.asarray(sigma, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("symbol must be a square grid")
    return arr


def spreading_function(sigma: np.ndarray, tau: float) -> np.ndarray:
    """Coefficients of Op_tau(sigma) over the shift system {T_{-u} M_omega}.

    Indexed (omega, u); related to the symbol by the chirped 2-D DFT
    c(omega, u) = sigma_hat(omega, u) e^{-2 pi i (1-tau) psi(omega, u)/N}.
    """
    arr = _as_symbol(sigma)
    n = arr.shape[0]
    return (np.fft.fft2(arr) / n) * _chirp(n, tau)


def symbol_from_spreading(coeff: np.ndarray, tau: float) -> np.ndarray:
    """Inverse of spreading_function; exact round trip for every tau."""
    arr = _as_symbol(coeff)
    n = arr.shape[0]
    return np.fft.ifft2(arr * np.conj(_chirp(n, tau))) * n


def op_tau(sigma: np.ndarray, tau: float) -> np.ndarray:
    """Quantize a symbol into an N x N operator matrix.

    The kernel is assembled from the spreading coefficients:
    k(x, y) = (1/N) sum_omega c(omega, y - x) e^{2 pi i omega y / N}.
    """
    coeff = spreading_function(sigma, tau)
    n = coeff.shape[0]
    # col[y, u] = (1/N) sum_omega c(omega, u) e^{2 pi i omega y / N}
    col = np.fft.ifft(coeff, axis=0)
    kernel = np.empty((n, n), dtype=complex)
    kernel[_shift_index(n), np.arange(n)] = col.T  # k(y - u, y) = col[y, u]: row u walks the u-th cyclic diagonal
    return kernel


def dequantize(operator: np.ndarray, tau: float) -> np.ndarray:
    """Recover the tau-symbol of an operator matrix; exact inverse of op_tau.

    Uses Hilbert-Schmidt orthogonality of the shift system: the spreading
    coefficient is c(omega, u) = <T, T_{-u} M_omega>_HS (||U||_HS^2 = N
    cancels the 1/N in the quantization sum), then the inverse chirped DFT.
    """
    arr = _as_symbol(operator)
    n = arr.shape[0]
    diag = arr[_shift_index(n), np.arange(n)]  # diag[u, y] = T[y - u, y]
    coeff = np.fft.fft(diag, axis=1).T  # coeff[omega, u] = sum_y diag[u, y] e^{-2 pi i omega y/N}
    return symbol_from_spreading(coeff, tau)


def convert_symbol(sigma: np.ndarray, tau1: float, tau2: float) -> np.ndarray:
    """Change of quantization: op_tau(convert_symbol(s, t1, t2), t2) == op_tau(s, t1).

    Multiplies the 2-D DFT by e^{-2 pi i (tau2 - tau1) psi(omega, u) / N}.
    """
    return symbol_from_spreading(spreading_function(sigma, tau1), tau2)


def tau_wigner(g: np.ndarray, f: np.ndarray, tau: float) -> np.ndarray:
    """Cross tau-Wigner grid, defined by duality.

    W_tau(g, f) is the unique symbol with <Op_tau(sigma) f, g> =
    <sigma, W_tau(g, f)> for all sigma; computed by applying the adjoint of
    the quantization map to the rank-one kernel g (x) conj(f).  At tau = 0
    it equals the Rihaczek grid N^{-1/2} g(x) conj(Ff(omega)) e^{-2 pi i x
    omega / N}, at tau = 1 its conjugate-mirror.
    """
    gv = np.asarray(g, dtype=complex)
    fv = np.asarray(f, dtype=complex)
    if gv.ndim != 1 or fv.ndim != 1 or gv.shape != fv.shape:
        raise ValueError("tau_wigner needs two signals of equal length")
    rank_one = np.outer(gv, fv.conj())
    return dequantize(rank_one, tau) / gv.shape[0]


def twisted_product(sigma1: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Symbol product with Op_{1/2}(s1 # s2) = Op_{1/2}(s1) Op_{1/2}(s2)."""
    return dequantize(op_tau(sigma1, 0.5) @ op_tau(sigma2, 0.5), 0.5)


def rotate_symbol_j_inv(sigma: np.ndarray) -> np.ndarray:
    """The grid permutation sigma o J^{-1}: (x, omega) -> sigma(-omega, x)."""
    arr = _as_symbol(sigma)
    return arr.T[:, (-np.arange(arr.shape[0])) % arr.shape[0]]

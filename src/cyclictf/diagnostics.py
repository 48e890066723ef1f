"""Channel matrices, decay envelopes, and almost-diagonalization diagnostics.

The channel matrix of an operator T against a window phi collects
<T pi(z) phi, pi(w) phi> over pairs of points of a lattice; it is held as
the analysis operator C_phi (P x N) and the image T D_phi (N x P), and its
entries are formed one x-row of w at a time (N rows on the full grid).
Its magnitude structure is summarized by decay envelopes, reduced from those
row blocks in O(N^3) memory: the maximum of |entry| over a family of shifted
diagonals (difference w - z, sum w + z, or w - A z for a diagonal shift map
A), and by their weighted l^1 mass.  Every pairing is diagonal, so it bins
the x-rows and the omega pairs apart, and each block reduces, in the layout
its product gives it, by one gather and one segmented maximum per mode.
The reports compare these envelope masses against the symbol-class
functionals from normbank; equivalence constants are window-dependent, so
the reports only record ratios and the rank association across symbol
corpora, never a universal band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import rand_complex
from .normbank import ell1v, fsjostrand_norm, sjostrand_norm, symbol_sups
from .phasespace import Lattice, Weight, btau_matrix, polynomial_weight, utau_matrix
from .quantize import dequantize, op_tau, rotate_symbol_j_inv, tau_wigner
from .transforms import frame_bounds, shift_bank

__all__ = [
    "BoundednessReport",
    "ChannelMatrix",
    "CompositionReport",
    "DiagReport",
    "WienerReport",
    "almost_diag_report",
    "boundedness_report",
    "composition_symmetry_check",
    "covariance_check",
    "envelope",
    "envelopes",
    "fclass_mode",
    "fclass_weight",
    "operator_channel",
    "spearman_rank",
    "wiener_experiment",
]

CONDITION_LIMIT = 1e10  # invertibility threshold for the Wiener experiment


@dataclass(frozen=True)
class ChannelMatrix:
    """Entries <T pi(z) phi, pi(w) phi> (rows w, columns z) of T, phi and a lattice, as C_phi times T D_phi."""

    analysis: np.ndarray  # P x N, rows conj(pi(w) phi): the analysis operator C_phi
    image: np.ndarray  # N x P, columns T pi(z) phi
    lattice: Lattice  # rows and columns are lattice.points(n), row-major in (x, omega)
    n: int

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of the entries analysis[w] @ image[:, z], as one matrix product."""
        return self.analysis[start:stop] @ self.image


def operator_channel(operator: np.ndarray, phi: np.ndarray, lattice: Lattice = Lattice(1, 1)) -> ChannelMatrix:
    """The one channel constructor, of any operator (op_tau(sigma, tau) for a symbol); shift_bank refuses a zero phi."""
    arr = np.asarray(operator, dtype=complex)
    n = arr.shape[0]
    bank = shift_bank(phi, lattice.points(n))
    image = arr @ bank  # then C_phi is the bank conjugated in place and transposed: a view, not a copy
    return ChannelMatrix(analysis=np.conj(bank, out=bank).T, image=image, lattice=lattice, n=n)


def _nearest_bins(c: np.ndarray, n: int) -> np.ndarray:
    """Nearest grid point mod N of real coordinates c, as int32.

    Ties (within 1e-9) go to the smaller canonical representative, so a
    coordinate of N - 1/2 goes to bin 0.
    """
    c = np.mod(c, n)
    k = c.astype(np.int32)  # floor, since c >= 0
    frac = c - k  # the fractional part, exactly
    up = frac > 0.5 + 1e-9
    up |= (frac >= 0.5 - 1e-9) & (k == n - 1)
    k += up
    k[k == n] = 0  # from c == N, or rounded up from N - 1
    return k


def _pairing(mode: str, param: np.ndarray | float | None) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals (p, q) by which a mode bins the pair (w, z) at p w + q z, one coordinate at a time."""
    one = np.ones(2)
    if mode == "difference":
        return one, -one
    if mode == "sum":
        return one, one
    if mode == "shifted":
        if np.shape(param) != (2, 2):
            raise ValueError(f"mode='shifted' needs a 2x2 shift map, not {np.shape(param)}")
        a = np.asarray(param, dtype=float)
        if a[0, 1] or a[1, 0] or not np.isfinite(a).all():
            raise ValueError(f"mode='shifted' needs a finite diagonal shift map, not {a.tolist()}")
        return one, -np.diag(a)
    if mode == "ttau":
        if param is None or not 0.0 <= param <= 1.0:
            raise ValueError(f"weak envelope needs tau, in [0, 1], not {param}")
        return np.array([1 - param, param]), np.array([param, 1 - param])
    raise ValueError(f"unknown envelope mode {mode!r}")


def envelopes(channel: ChannelMatrix, modes: list[tuple[str, np.ndarray | float | None]]) -> list[np.ndarray]:
    """Decay envelopes of a channel matrix, one per (mode, param) pair, from one pass.

    Each envelope is the N x N table h(k) >= 0, k in Z_N^2.  Every mode
    bins |entry(w, z)| by the nearest grid point of p w + q z (coordinate
    by coordinate) and keeps the maximum per bin; the mode only picks the
    diagonal pair (p, q): "difference" (1, -1) bins by w - z, "sum" (1, 1)
    by w + z, "shifted" (1, -A) by w - A z for its parameter, a diagonal
    2x2 map A, and "ttau" ((1 - tau, tau), (tau, 1 - tau)) by the convex
    pairing of (w, z) at its parameter tau in [0, 1] (the weak endpoint
    form).  "difference" and "sum" take no parameter (None).
    """
    n, lattice = channel.n, channel.lattice
    nx, width = n // lattice.a, n // lattice.b  # x-rows, and points per x-row
    xs, omegas = np.arange(0, n, lattice.a), np.arange(0, n, lattice.b)
    plans = []
    for mode, param in modes:
        # the first bin depends on (w_x, z_x) only, the second on (w_omega,
        # z_omega) only; each is p w + q z with one rounding per product, so
        # the bins never depend on a BLAS kernel
        p, q = _pairing(mode, param)
        first = _nearest_bins(np.add.outer(p[0] * xs, q[0] * xs), n)
        second = _nearest_bins(np.add.outer(p[1] * omegas, q[1] * omegas), n).ravel()
        # column k of (seg_w, seg_z) lists the omega pairs of second bin k, padded
        # to one length by repeating its first pair (a maximum counts a repeat
        # once); on a lattice that keeps the gather within 2 N^3 entries
        order = np.argsort(second, kind="stable")
        keys, starts, lengths = np.unique(second[order], return_index=True, return_counts=True)
        seg_w, seg_z = np.divmod(order[starts + np.minimum(np.arange(lengths.max())[:, None], lengths - 1)], width)
        plans.append((first * n, seg_w, seg_z, keys))  # first: (x-row of w, x-row of z) -> k1 * N
    # form one x-row of w at a time, with one product and one abs shared by every mode, so no
    # P x P array is ever built; the maximum is exact, so blocking keeps the table
    tables = [np.zeros(n * n) for _ in plans]
    for row in range(nx):
        # axes (omega of w, x-row of z, omega of z), as the product lays them out
        block = np.abs(channel.rows(row * width, (row + 1) * width)).reshape(width, nx, width)
        for (first, seg_w, seg_z, keys), table in zip(plans, tables):
            # one gather of the omega pairs into their segments, one maximum over each segment, and a scatter
            # of the (second bins) x (x-rows of z) maxima; flat (1-D) index and values take ufunc.at's fast path
            np.maximum.at(table, (keys[:, None] + first[row]).ravel(), block[seg_w, :, seg_z].max(axis=0).ravel())
    return [table.reshape(n, n) for table in tables]


def envelope(channel: ChannelMatrix, mode: str, param: np.ndarray | float | None = None) -> np.ndarray:
    """Decay envelope of a channel matrix in one mode, with its parameter (see `envelopes`)."""
    return envelopes(channel, [(mode, param)])[0]


def fclass_mode(tau: float) -> tuple[str, np.ndarray | float]:
    """The (mode, param) of the Fourier-class envelope at tau, for `envelope` or `envelopes`.

    ("shifted", U_tau) in (0, 1); the weak ("ttau", tau) at the endpoints,
    where U_tau is singular.  Only the wiener and composition reports weight
    their Fourier-class norms with fclass_weight; sweep weights this
    envelope's mass and fsjostrand with plain v_s at every tau.
    """
    return ("shifted", utau_matrix(tau)) if 0.0 < tau < 1.0 else ("ttau", tau)


def fclass_weight(v: Weight, tau: float) -> Weight:
    """The weight paired with the fclass_mode envelope: v o B_tau inside (0, 1), v at the endpoints."""
    return v.compose(btau_matrix(tau)) if 0.0 < tau < 1.0 else v


def spearman_rank(a, b) -> float:
    """Spearman rank correlation, no tie correction: a stable sort ranks tied entries by position,
    the same order in both inputs when their ties come from one symbol (coinciding corpus members)."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    rx = np.argsort(np.argsort(x, kind="stable")).astype(float)
    ry = np.argsort(np.argsort(y, kind="stable")).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class DiagReport:
    envelope_l1: float
    class_norm: float
    ratio: float
    envelope: np.ndarray  # the difference envelope whose mass is envelope_l1
    warnings: tuple[str, ...] = ()


def almost_diag_report(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    lattice: Lattice,
    s: float,
) -> DiagReport:
    """Difference-envelope mass against the weighted symbol-class norm.

    Envelope side: l^1_{v_s} of the difference envelope of the channel matrix
    over the lattice (Lattice(1, 1) is the full grid, a tight frame).  Class
    side: sjostrand_norm with the window W_tau(phi, phi) and the weight
    v_s o J^{-1}.  The equivalence theorem behind this predicts a
    window-dependent band for the ratio; the report just records it.

    On the full grid the band closes on the identity's exact set: tau in
    {0, 1}, or N odd and (1 - tau)(N + 1) an integer.  There the pairs
    (w, z) with w - z = k meet |V_Phi sigma(., J k)| once at every position
    (Phi = W_tau(phi, phi)), so the difference envelope is sup_pos o J, the
    two masses agree (v_s is J-invariant) and the ratio is 1 up to rounding
    (the "ratio": 1.0 of the tau = 0 channel goldens).
    """
    warnings = () if frame_bounds(phi, lattice).is_frame else ("window/lattice pair is not a frame",)
    env = envelope(operator_channel(op_tau(sigma, tau), phi, lattice), "difference")
    # v_s o J^{-1} = v_s: J^{-1} swaps the coordinates and negates one, and |z|_wrap is blind to both
    v = polynomial_weight(s)
    class_norm = sjostrand_norm(symbol_sups(sigma, tau_wigner(phi, phi, tau)), v)
    mass = ell1v(env, v)
    ratio = mass / class_norm if class_norm > 0 else float("inf")
    return DiagReport(mass, class_norm, ratio, env, warnings)


def covariance_check(sigma: np.ndarray, tau: float) -> float:
    """Relative HS residual of F Op_tau(sigma) F* = Op_{1-tau}(sigma o J^{-1})."""
    arr = np.asarray(sigma, dtype=complex)
    operator = op_tau(arr, tau)
    # F A F* = (fft down the columns / sqrt(N)) then (sqrt(N) ifft along the rows)
    lhs = np.fft.ifft(np.fft.fft(operator, axis=0), axis=1)
    rhs = op_tau(rotate_symbol_j_inv(arr), 1.0 - tau)
    denom = np.linalg.norm(operator)
    return float(np.linalg.norm(lhs - rhs) / denom) if denom > 0 else 0.0


@dataclass(frozen=True)
class BoundednessReport:
    max_ratio: float
    norm_bound: float
    operator: np.ndarray  # Op_tau(sigma), the matrix max_ratio was measured on
    sups: tuple[np.ndarray, np.ndarray]  # the symbol_sups that norm_bound was read from


def boundedness_report(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    trials: int,
    seed: int,
) -> BoundednessReport:
    """Empirical operator-norm ratio on M^{2,2} against the Sjostrand norm.

    max_ratio is the largest ||Op_tau(sigma) f|| / ||f|| over random trial
    signals f, the M^{2,2} ratio for any window (V_phi* V_phi = N ||phi||^2
    Id); norm_bound is sjostrand_norm with W_tau(phi, phi) and the weight v_0.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    arr = np.asarray(sigma, dtype=complex)
    n = arr.shape[0]
    operator = op_tau(arr, tau)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for _ in range(trials):
        f = rand_complex(rng, n)
        denom = np.linalg.norm(f)
        if denom > 0:  # np.maximum keeps a NaN ratio, where max would drop it
            max_ratio = float(np.maximum(max_ratio, np.linalg.norm(operator @ f) / denom))
    sups = symbol_sups(arr, tau_wigner(phi, phi, tau))
    norm_bound = sjostrand_norm(sups, polynomial_weight(0.0))
    return BoundednessReport(max_ratio=max_ratio, norm_bound=norm_bound, operator=operator, sups=sups)


def _distinct_symbol_sups(*pairs: tuple[np.ndarray, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """symbol_sups of each (symbol, window) pair, one pass per pair distinct by value (its bytes)."""
    keys = [(symbol.tobytes(), window.tobytes()) for symbol, window in pairs]
    found = {}
    for key, pair in zip(keys, pairs):
        if key not in found:
            found[key] = symbol_sups(*pair)
    return [found[key] for key in keys]


@dataclass(frozen=True)
class WienerReport:
    invertible: bool
    condition: float
    weyl_track_norm: float | None = None
    fclass_track_norm: float | None = None
    inverse_symbol: np.ndarray | None = None
    inverse_symbol_complement: np.ndarray | None = None


def wiener_experiment(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    s: float,
) -> WienerReport:
    """Inverse-closedness probe: dequantize the inverse operator on both tracks.

    When Op_tau(sigma) is invertible (condition number below 1e10), the
    inverse is dequantized at tau (Weyl track, Sjostrand norm with v_s) and
    at 1 - tau (the complementary quantization of the inverse theorem,
    Fourier-image norm with v_s o B_{1-tau}; plain v_s at the endpoints).
    """
    operator = op_tau(np.asarray(sigma, dtype=complex), tau)
    condition = float(np.linalg.cond(operator))
    if not condition < CONDITION_LIMIT:
        return WienerReport(invertible=False, condition=condition)
    inverse = np.linalg.inv(operator)
    rho = dequantize(inverse, tau)
    b = dequantize(inverse, 1.0 - tau)
    v = polynomial_weight(s)
    # at tau = 1/2 both tracks hold the same pair: one pass
    rho_sups, b_sups = _distinct_symbol_sups((rho, tau_wigner(phi, phi, tau)),
                                             (b, tau_wigner(phi, phi, 1.0 - tau)))
    weyl_norm = sjostrand_norm(rho_sups, v)
    fclass_norm = fsjostrand_norm(b_sups, fclass_weight(v, 1.0 - tau))
    return WienerReport(
        invertible=True,
        condition=condition,
        weyl_track_norm=weyl_norm,
        fclass_track_norm=fclass_norm,
        inverse_symbol=rho,
        inverse_symbol_complement=b,
    )


@dataclass(frozen=True)
class CompositionReport:
    half_symbol: np.ndarray
    weyl_class_norm: float
    left_module_symbol: np.ndarray
    right_module_symbol: np.ndarray
    left_module_norm: float
    right_module_norm: float


def composition_symmetry_check(
    a: np.ndarray,
    b: np.ndarray,
    tau: float,
    phi: np.ndarray,
    s: float,
) -> CompositionReport:
    """Complementary-quantization composition and the bimodule laws.

    c with Op_{1/2}(c) = Op_tau(a) Op_{1-tau}(b) (weighted Sjostrand norm
    reported), plus c1, c2 with Op_{1/2}(b) Op_tau(a) = Op_tau(c1) and
    Op_tau(a) Op_{1/2}(b) = Op_tau(c2) (Fourier-image norms reported).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("composition symmetry requires tau in (0, 1)")
    v = polynomial_weight(s)
    op_a = op_tau(np.asarray(a, dtype=complex), tau)
    op_b = op_tau(b, 0.5)
    c = dequantize(op_a @ op_tau(b, 1.0 - tau), 0.5)
    c1 = dequantize(op_b @ op_a, tau)
    c2 = dequantize(op_a @ op_b, tau)
    big_phi_tau = tau_wigner(phi, phi, tau)
    # with a = b and tau = 1/2, c, c1 and c2 are one pair: one pass
    c_sups, c1_sups, c2_sups = _distinct_symbol_sups((c, tau_wigner(phi, phi, 0.5)), (c1, big_phi_tau),
                                                     (c2, big_phi_tau))
    v_b = fclass_weight(v, tau)
    return CompositionReport(
        half_symbol=c,
        weyl_class_norm=sjostrand_norm(c_sups, v),
        left_module_symbol=c1,
        right_module_symbol=c2,
        left_module_norm=fsjostrand_norm(c1_sups, v_b),
        right_module_norm=fsjostrand_norm(c2_sups, v_b),
    )


"""Channel matrices, decay envelopes, and almost-diagonalization diagnostics.

The channel matrix of an operator T against a window phi collects
<T pi(z) phi, pi(w) phi> over pairs of phase-space points.  Its magnitude
structure is summarized by decay envelopes: the maximum of |entry| over a
family of shifted diagonals (difference w - z, sum w + z, or w - A z for a
linear shift map A), and by their weighted l^1 mass.  The reports compare
these envelope masses against the symbol-class functionals from normbank;
equivalence constants are window-dependent, so the reports only record
ratios and the rank association across symbol corpora, never a universal
band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import gaussian_window
from .normbank import (MixedNormSpec, amalgam_norm, fsjostrand_norm, modulation_norm,
                       sjostrand_norm, symbol_sups)
from .phasespace import (
    J_INV_MATRIX,
    Lattice,
    Weight,
    btau_matrix,
    polynomial_weight,
    utau_matrix,
)
from .quantize import dequantize, op_tau, rotate_symbol_j_inv, tau_wigner
from .transforms import dft_matrix, frame_bounds, shift_bank

__all__ = [
    "BoundednessReport",
    "ChannelMatrix",
    "CompositionReport",
    "DecayEnvelope",
    "DiagReport",
    "FULL_CHANNEL_CAP",
    "FioReport",
    "WienerReport",
    "almost_diag_report",
    "boundedness_report",
    "channel_matrix",
    "composition_symmetry_check",
    "covariance_check",
    "ell1v",
    "envelope",
    "fclass_diag_report",
    "fio_best_shift",
    "fio_membership",
    "operator_channel",
    "spearman_rank",
    "wiener_experiment",
]

FULL_CHANNEL_CAP = 32  # full-grid fill is O(N^5); lattices beyond this
CONDITION_LIMIT = 1e10  # invertibility threshold for the Wiener experiment


@dataclass(frozen=True)
class ChannelMatrix:
    """Entries <T pi(z) phi, pi(w) phi> with rows indexed by w, columns by z."""

    entries: np.ndarray
    points: np.ndarray  # (P, 2) int rows (x, omega), indexing rows and columns
    n: int
    tau: float | None = None


def operator_channel(
    operator: np.ndarray,
    phi: np.ndarray,
    lattice: Lattice | None = None,
    tau: float | None = None,
) -> ChannelMatrix:
    """Channel matrix of an arbitrary operator matrix (no symbol needed)."""
    arr = np.asarray(operator, dtype=complex)
    n = arr.shape[0]
    phi = np.asarray(phi, dtype=complex)
    if not np.any(phi):
        raise ValueError("window must be non-zero")
    if lattice is None:
        if n > FULL_CHANNEL_CAP:
            raise ValueError("full channel matrix too large; use a lattice")
        lattice = Lattice(1, 1)
    points = lattice.points(n)
    bank = shift_bank(phi, points)
    entries = bank.conj().T @ (arr @ bank)
    return ChannelMatrix(entries=entries, points=points, n=n, tau=tau)


def channel_matrix(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    lattice: Lattice | None = None,
) -> ChannelMatrix:
    """Channel matrix of Op_tau(sigma); full grid by default (capped at N=32)."""
    return operator_channel(op_tau(sigma, tau), phi, lattice, tau=tau)


@dataclass(frozen=True)
class DecayEnvelope:
    """Max-over-shifted-diagonals table h(k) >= 0, indexed by k in Z_N^2."""

    mode: str
    table: np.ndarray
    n: int


def _nearest_bins(c: np.ndarray, n: int) -> np.ndarray:
    """Nearest grid point mod N of real coordinates c, as int32; overwrites c.

    Ties (within 1e-9) go to the smaller canonical representative, so a
    coordinate of N - 1/2 goes to bin 0.
    """
    np.fmod(c, n, out=c)
    np.add(c, n, out=c, where=c < 0)  # c mod N, as np.mod computes it
    k = c.astype(np.int32)  # floor, since c >= 0
    c -= k  # the fractional part, exactly
    up = c > 0.5 + 1e-9
    up |= (c >= 0.5 - 1e-9) & (k == n - 1)
    k += up
    k[k == n] = 0  # from c == N, or rounded up from N - 1
    return k


def envelope(channel: ChannelMatrix, mode: str, shift_map: np.ndarray | None = None) -> DecayEnvelope:
    """Decay envelope of a channel matrix.

    Every mode bins |entry(w, z)| by the nearest grid point of P w + Q z and
    keeps the maximum per bin; the mode only picks the 2x2 pair (P, Q):
    "difference" (I, -I) bins by w - z, "sum" (I, I) by w + z, "shifted"
    (I, -A) by w - A z for the given 2x2 map A, and "ttau"
    (diag(1 - tau, tau), diag(tau, 1 - tau)) by the convex pairing of (w, z)
    at tau (the weak endpoint form; requires the channel to carry its tau).
    """
    eye = np.eye(2)
    if mode == "difference":
        p, q = eye, -eye
    elif mode == "sum":
        p, q = eye, eye
    elif mode == "shifted":
        if np.shape(shift_map) != (2, 2):
            raise ValueError(f"mode='shifted' needs a 2x2 shift map, not {np.shape(shift_map)}")
        p, q = eye, -np.asarray(shift_map, dtype=float)
    elif mode == "ttau":
        if channel.tau is None:
            raise ValueError("weak envelope needs the channel's tau")
        t = channel.tau
        p, q = np.diag([1 - t, t]), np.diag([t, 1 - t])
    else:
        raise ValueError(f"unknown envelope mode {mode!r}")
    n = channel.n
    x, omega = channel.points.T
    flat = np.zeros((len(x), len(x)), dtype=np.int32)  # bin k1 * N + k2
    for pi, qi in zip(p, q):
        # one coordinate of P w + Q z, as (w part) + (z part) with one
        # rounding per product, so the bins never depend on a BLAS kernel;
        # each part takes few distinct values, so the table of their sums is
        # binned once and gathered onto the pairs (the same sums, bit for bit)
        uu, iu = np.unique(pi[0] * x + pi[1] * omega, return_inverse=True)
        vv, iv = np.unique(qi[0] * x + qi[1] * omega, return_inverse=True)
        flat *= n
        flat += _nearest_bins(np.add.outer(uu, vv), n).take(iu, axis=0).take(iv, axis=1)
    table = np.zeros(n * n)
    np.maximum.at(table, flat.ravel(), np.abs(channel.entries).ravel())
    return DecayEnvelope(mode=mode, table=table.reshape(n, n), n=n)


def ell1v(env: DecayEnvelope, v: Weight) -> float:
    """Weighted l^1 mass sum_k h(k) v(k) of an envelope."""
    return float(np.sum(env.table * v.on_grid(env.n)))


def spearman_rank(a, b) -> float:
    """Spearman rank correlation (no tie correction; inputs are continuous)."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class DiagReport:
    envelope_l1: float
    class_norm: float
    ratio: float
    tau: float
    s: float
    n: int
    lattice: Lattice | None = None
    mode: str = "difference"
    warnings: tuple[str, ...] = ()
    envelope: DecayEnvelope | None = None  # the envelope whose mass is envelope_l1


def _diag_report(env: DecayEnvelope, v: Weight, class_norm: float, **fields) -> DiagReport:
    """The l^1_v mass of env against class_norm; fields fill the rest of the report."""
    mass = ell1v(env, v)
    ratio = mass / class_norm if class_norm > 0 else float("inf")
    return DiagReport(mass, class_norm, ratio, n=env.n, mode=env.mode, envelope=env, **fields)


def almost_diag_report(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    lattice: Lattice | None,
    s: float,
) -> DiagReport:
    """Difference-envelope mass against the weighted symbol-class norm.

    Envelope side: l^1_{v_s} of the difference envelope of the channel matrix
    over the lattice (or the full grid).  Class side: sjostrand_norm with the
    window W_tau(phi, phi) and the weight v_s o J^{-1}.  The equivalence
    theorem behind this predicts a window-dependent band for the ratio; the
    report just records it.
    """
    warnings: list[str] = []
    if lattice is not None:
        rep = frame_bounds(phi, lattice)
        if not rep.is_frame:
            warnings.append("window/lattice pair is not a frame")
    env = envelope(channel_matrix(sigma, tau, phi, lattice), "difference")
    v = polynomial_weight(s)
    class_norm = sjostrand_norm(symbol_sups(sigma, tau_wigner(phi, phi, tau)), v.compose(J_INV_MATRIX))
    return _diag_report(env, v, class_norm, tau=tau, s=s, lattice=lattice, warnings=tuple(warnings))


def fclass_diag_report(
    sigma: np.ndarray,
    tau: float,
    phi: np.ndarray,
    s: float,
    weak: bool = False,
) -> DiagReport:
    """U_tau-shifted envelope mass against the Fourier-image class norm.

    For tau in (0, 1): envelope(shifted, U_tau) with weight v_s, compared to
    fsjostrand_norm with weight v_s o B_tau.  At the endpoints the shifted
    form degenerates (`weak=True` computes the convex-pairing envelope
    instead, compared against the unweighted-class fsjostrand norm).
    """
    at_endpoint = tau in (0.0, 1.0, 0, 1)
    if at_endpoint and not weak:
        raise ValueError("use weak form at endpoints")
    chan = channel_matrix(sigma, tau, phi)
    v = polynomial_weight(s)
    if weak:
        env, v_class = envelope(chan, "ttau"), v
    else:
        env, v_class = envelope(chan, "shifted", utau_matrix(tau)), v.compose(btau_matrix(tau))
    class_norm = fsjostrand_norm(symbol_sups(sigma, tau_wigner(phi, phi, tau)), v_class)
    return _diag_report(env, v, class_norm, tau=tau, s=s)


def covariance_check(sigma: np.ndarray, tau: float) -> float:
    """Relative HS residual of F Op_tau(sigma) F* = Op_{1-tau}(sigma o J^{-1})."""
    arr = np.asarray(sigma, dtype=complex)
    n = arr.shape[0]
    f = dft_matrix(n)
    lhs = f @ op_tau(arr, tau) @ f.conj().T
    rhs = op_tau(rotate_symbol_j_inv(arr), 1.0 - tau)
    denom = np.linalg.norm(op_tau(arr, tau))
    return float(np.linalg.norm(lhs - rhs) / denom) if denom > 0 else 0.0


@dataclass(frozen=True)
class BoundednessReport:
    pair: str
    max_ratio: float
    norm_bound: float
    trials: int
    seed: int
    sups: tuple[np.ndarray, np.ndarray]  # the symbol_sups that norm_bound was read from


def boundedness_report(
    sigma: np.ndarray,
    tau: float,
    spec: MixedNormSpec,
    trials: int,
    seed: int,
    pair: str = "modulation",
    window: np.ndarray | None = None,
) -> BoundednessReport:
    """Empirical operator-norm ratio against the symbol-class norm.

    `pair` selects source/target norms: "modulation" keeps the same
    M^{p,q}_m on both sides, "modulation-utau" composes the target weight
    with U_{1-tau}^{-1} = U_tau, "amalgam" uses W(FL^p, L^q) on both sides,
    and "endpoint" uses M^{1,inf} at tau = 0 / W(FL^1, L^inf) at tau = 1.
    The class norm is the Sjostrand norm for the diagonal pairs and its
    Fourier-image counterpart for the U_tau pair.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    arr = np.asarray(sigma, dtype=complex)
    n = arr.shape[0]
    phi = gaussian_window(n) if window is None else np.asarray(window, dtype=complex)
    operator = op_tau(arr, tau)
    rng = np.random.default_rng(seed)

    if pair == "modulation":
        source = target = lambda f: modulation_norm(f, phi, spec)
    elif pair == "modulation-utau":
        shifted = MixedNormSpec(spec.p, spec.q, spec.m.compose(utau_matrix(tau)))
        source = lambda f: modulation_norm(f, phi, spec)
        target = lambda f: modulation_norm(f, phi, shifted)
    elif pair == "amalgam":
        source = target = lambda f: amalgam_norm(f, phi, spec.p, spec.q)
    elif pair == "endpoint":
        if tau == 0:
            ep = MixedNormSpec(1.0, float("inf"), spec.m)
            source = target = lambda f: modulation_norm(f, phi, ep)
        elif tau == 1:
            source = target = lambda f: amalgam_norm(f, phi, 1.0, float("inf"))
        else:
            raise ValueError("endpoint pair requires tau in {0, 1}")
    else:
        raise ValueError(f"unknown norm pair {pair!r}")

    max_ratio = 0.0
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        denom = source(f)
        if denom > 0:
            max_ratio = max(max_ratio, target(operator @ f) / denom)

    sups = symbol_sups(arr, tau_wigner(phi, phi, tau))
    class_norm = sjostrand_norm if pair in ("modulation", "amalgam") else fsjostrand_norm
    norm_bound = class_norm(sups, polynomial_weight(0.0))
    return BoundednessReport(
        pair=pair,
        max_ratio=max_ratio,
        norm_bound=norm_bound,
        trials=trials,
        seed=seed,
        sups=sups,
    )


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
    s: float,
    window: np.ndarray | None = None,
) -> WienerReport:
    """Inverse-closedness probe: dequantize the inverse operator on both tracks.

    When Op_tau(sigma) is invertible (condition number below 1e10), the
    inverse is dequantized at tau (Weyl track, Sjostrand norm with v_s) and
    at 1 - tau (the complementary quantization of the inverse theorem,
    Fourier-image norm with v_s o B_{1-tau}; plain v_s at the endpoints).
    """
    arr = np.asarray(sigma, dtype=complex)
    n = arr.shape[0]
    phi = gaussian_window(n) if window is None else np.asarray(window, dtype=complex)
    operator = op_tau(arr, tau)
    condition = float(np.linalg.cond(operator))
    if not condition < CONDITION_LIMIT:
        return WienerReport(invertible=False, condition=condition)
    inverse = np.linalg.inv(operator)
    rho = dequantize(inverse, tau)
    b = dequantize(inverse, 1.0 - tau)
    v = polynomial_weight(s)
    weyl_norm = sjostrand_norm(symbol_sups(rho, tau_wigner(phi, phi, tau)), v)
    v_b = v if (1.0 - tau) in (0.0, 1.0) else v.compose(btau_matrix(1.0 - tau))
    fclass_norm = fsjostrand_norm(symbol_sups(b, tau_wigner(phi, phi, 1.0 - tau)), v_b)
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
    tau0: float = 0.5,
    window: np.ndarray | None = None,
    s: float = 0.0,
) -> CompositionReport:
    """Complementary-quantization composition and the bimodule laws.

    c with Op_{1/2}(c) = Op_tau(a) Op_{1-tau}(b) (weighted Sjostrand norm
    reported), plus c1, c2 with Op_{tau0}(b) Op_tau(a) = Op_tau(c1) and
    Op_tau(a) Op_{tau0}(b) = Op_tau(c2) (Fourier-image norms reported).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("composition symmetry requires tau in (0, 1)")
    arr_a = np.asarray(a, dtype=complex)
    n = arr_a.shape[0]
    phi = gaussian_window(n) if window is None else np.asarray(window, dtype=complex)
    v = polynomial_weight(s)
    op_a = op_tau(arr_a, tau)
    c = dequantize(op_a @ op_tau(b, 1.0 - tau), 0.5)
    c1 = dequantize(op_tau(b, tau0) @ op_a, tau)
    c2 = dequantize(op_a @ op_tau(b, tau0), tau)
    big_phi_half = tau_wigner(phi, phi, 0.5)
    big_phi_tau = tau_wigner(phi, phi, tau)
    v_b = v.compose(btau_matrix(tau))
    return CompositionReport(
        half_symbol=c,
        weyl_class_norm=sjostrand_norm(symbol_sups(c, big_phi_half), v),
        left_module_symbol=c1,
        right_module_symbol=c2,
        left_module_norm=fsjostrand_norm(symbol_sups(c1, big_phi_tau), v_b),
        right_module_norm=fsjostrand_norm(symbol_sups(c2, big_phi_tau), v_b),
    )


@dataclass(frozen=True)
class FioReport:
    envelope_l1: float
    shift: tuple
    s: float


def fio_membership(
    operator: np.ndarray,
    shift_map: np.ndarray,
    phi: np.ndarray,
    s: float,
    lattice: Lattice | None = None,
) -> FioReport:
    """l^1_{v_s} mass of the channel envelope along the graph of a shift map."""
    chan = operator_channel(operator, phi, lattice)
    env = envelope(chan, "shifted", shift_map)
    mass = ell1v(env, polynomial_weight(s))
    return FioReport(envelope_l1=mass, shift=tuple(np.asarray(shift_map, float).ravel()), s=s)


def fio_best_shift(
    operator: np.ndarray,
    phi: np.ndarray,
    candidates: list[np.ndarray],
    s: float = 0.0,
    lattice: Lattice | None = None,
) -> int:
    """Index of the candidate shift map minimizing the envelope l^1_{v_s}.

    For T1 in FIO(A1), T2 in FIO(A2) the product's best-fitting shift over a
    candidate set is expected at A1 A2.
    """
    chan = operator_channel(operator, phi, lattice)
    masses = [ell1v(envelope(chan, "shifted", a), polynomial_weight(s)) for a in candidates]
    return int(np.argmin(masses))

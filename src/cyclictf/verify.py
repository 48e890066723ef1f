"""The exact-identity suites behind `cyclictf verify`.

Each identity is one residual of its inputs, which its suite, the property tests and
the unit tests all call.  `duality_residual` divides the gap of its scalar pairing by
||sigma|| ||W_tau(g, f)||, the pairing's Cauchy-Schwarz bound; `covariance_check` and
`channel_modulus_residual` state their own scale; every other residual is relative to
the largest entry of one side, as its docstring says.  A suite `suite(n, rng)` draws
its inputs from rng at each case where its identity is exact (`covariance_taus`,
`channel_modulus_cases`) and returns np.max of the residuals, which keeps a NaN the
builtin max may drop; it passes below SUITE_TOL, which a NaN never is.

Every suite holds O(N^3) memory at most (`channel_modulus_residual` says how), so each
runs at every N, above the config's grid cap too.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics as dg
from .generators import comb_window, gaussian_window, rand_complex
from .phasespace import Lattice
from .quantize import convert_symbol, dequantize, op_tau, tau_wigner
from .transforms import _phase, _shift_index, dft, stft, stft_adjoint, stft_slabs

SUITE_TOL = 1e-10
VERIFY_TRIALS = 20
CONVERT_PAIRS = ((0.0, 0.5), (0.3, 0.8), (0.5, 1.0), (0.25, 0.25), (0.7, 0.2))


def _rel(diff, ref) -> float:
    """max |diff| relative to max |ref|."""
    return np.abs(diff).max() / max(np.abs(ref).max(), 1e-30)


def fundamental_residual(f, g):
    """V_g f(x, w) = e^{-2 pi i x w / N} V_{Fg} Ff(w, -x), relative to max |V_g f|."""
    lhs = stft(f, g)
    xg, wg = np.indices(lhs.shape)
    return _rel(lhs - np.conj(_phase(xg * wg, len(f))) * stft(dft(f), dft(g))[wg, (-xg) % len(f)], lhs)


def inversion_residual(f, g):
    """V_g* V_g f = N ||g||^2 f, relative to max |f|."""
    return _rel(stft_adjoint(stft(f, g), g) / (len(f) * np.linalg.norm(g) ** 2) - f, f)


def duality_residual(sigma, f, g, tau):
    """<Op_tau(sigma) f, g> = <sigma, W_tau(g, f)>, relative to ||sigma|| ||W_tau(g, f)||, its Cauchy-Schwarz bound."""
    w = tau_wigner(g, f, tau)
    return _rel(np.vdot(g, op_tau(sigma, tau) @ f) - np.vdot(w, sigma), np.linalg.norm(sigma) * np.linalg.norm(w))


def roundtrip_residual(sigma, tau):
    """dequantize(Op_tau(sigma), tau) = sigma, relative to max |sigma|."""
    return _rel(dequantize(op_tau(sigma, tau), tau) - sigma, sigma)


def convert_residual(sigma, tau1, tau2):
    """Op_tau2(convert_symbol(sigma, tau1, tau2)) = Op_tau1(sigma) as operators and symbols, relative to max |sigma|."""
    moved = convert_symbol(sigma, tau1, tau2)
    return np.maximum(_rel(op_tau(moved, tau2) - op_tau(sigma, tau1), sigma),
                      _rel(dequantize(op_tau(sigma, tau1), tau2) - moved, sigma))


def fundamental_identity(n, rng):
    return np.max([fundamental_residual(rand_complex(rng, n), rand_complex(rng, n)) for _ in range(VERIFY_TRIALS)])


def stft_inversion(n, rng):
    return np.max([inversion_residual(rand_complex(rng, n), rand_complex(rng, n)) for _ in range(VERIFY_TRIALS)])


def quantize_duality(n, rng):
    return np.max([duality_residual(rand_complex(rng, n, n), rand_complex(rng, n), rand_complex(rng, n), tau)
                   for tau in (0.0, 0.3, 0.5, 1.0) for _ in range(VERIFY_TRIALS // 4 + 1)])


def quantize_roundtrip(n, rng):
    return np.max([roundtrip_residual(rand_complex(rng, n, n), tau) for tau in (0.0, 0.25, 1 / 3, 0.5, 1 / np.pi, 1.0)])


def convert_consistency(n, rng):
    return np.max([convert_residual(rand_complex(rng, n, n), tau1, tau2) for tau1, tau2 in CONVERT_PAIRS])


def covariance_taus(n: int) -> tuple[float, ...]:
    """The taus where F Op_tau(sigma) F* = Op_{1-tau}(sigma o J^{-1}) is exact on Z_N.

    For N == 2 (mod 4) the chirp's one self-rotating mode (N/2, N/2) breaks
    the identity away from tau in {0, 1}.
    """
    return (0.0, 1.0) if n % 4 == 2 else (0.0, 0.3, 0.5, 1.0)


def symplectic_covariance(n, rng):
    return np.max([dg.covariance_check(rand_complex(rng, n, n), tau)
                   for tau in covariance_taus(n) for _ in range(VERIFY_TRIALS // 4 + 1)])


def channel_modulus_cases(n: int):
    """Window/tau/pair-restriction cases where the modulus identity is exact.

    Endpoints hold for any window and all pairs.  tau = 1/2 needs either an
    odd grid (all even-sum pairs) or, on grids divisible by 8, the comb
    window whose ambiguity function lives on the even sublattice.
    """
    cases = [(0.0, gaussian_window(n), "gaussian"), (1.0, gaussian_window(n), "gaussian")]
    if n % 2 == 1:
        cases.append((0.5, gaussian_window(n), "gaussian"))
    elif n % 8 == 0:
        cases.append((0.5, comb_window(n), "comb"))
    return cases


def channel_modulus_residual(channel: dg.ChannelMatrix, tau: float, slabs):
    """Worst mismatch of |<Op pi(z) phi, pi(w) phi>| = |V_Phi sigma(T_tau(w, z), J(w - z))|.

    channel is the `ChannelMatrix` of Op = Op_tau(sigma) against phi on Lattice(1, 1), tau
    is the tau of Op, in [0, 1], and slabs yields the (N, N, N) slabs V_Phi sigma(p1, ., ., .)
    (or their moduli) for p1 = 0, ..., N - 1 in order: `stft_slabs(sigma, Phi)`, or a 4-D
    array, which iterates by p1.  Only the pairs whose T_tau(w, z) =
    ((1 - tau) w0 + tau z0, tau w1 + (1 - tau) z1) lies on the grid are
    compared.  Returns the worst difference relative to the largest |entry|
    of the full channel matrix, and the number of pairs compared.

    The first coordinate of T_tau depends on (w0, z0) only and the second on
    (w1, z1) only.  So each pair (w0, z0), on the grid or not, belongs to the
    slab p1 = rint((1 - tau) w0 + tau z0) mod N, where its N x N block over
    (w1, z1) is the row block w0 of channel.bank* times the column block z0
    of channel.image.  p1 is monotone in z0, so the z0 of one w0 in a slab
    are one run, whose blocks are one product over a slice of image (for
    tau > 1/2 the w0 of one z0, bank and image swapped).  Every entry is
    computed once, and no product or comparison has more than N^3 entries.
    """
    if channel.lattice != Lattice(1, 1) or not 0.0 <= tau <= 1.0:
        raise ValueError(f"channel-modulus needs a full-grid channel and a tau in [0, 1], not {channel.lattice}, {tau}")
    n = channel.n
    x = np.arange(n)
    p1 = (1 - tau) * x[:, None] + tau * x[None, :]  # (w0, z0)
    on1 = np.abs(p1 - np.rint(p1)) <= 1e-9
    slab_of = np.rint(p1).astype(np.int64) % n
    q2 = _shift_index(n)
    # a slab's |V| read as rows (p2, q1) = (rint(p2), w1 - z1) and columns q2 = z0 - w0; at
    # (w1, z1), p2 = tau w1 + (1 - tau) z1 is p1 with w and z swapped, the same float sum
    on2, at2 = on1.T, slab_of.T * n + q2.T
    left, right = channel.bank.conj(), channel.image  # a run's blocks are (w1, z0, z1)
    if tau > 0.5:  # runs along w0 at a fixed z0, blocks (z1, w0, w1)
        left, right = channel.image.conj(), channel.bank
        slab_of, on1, on2, at2, q2 = slab_of.T, on1.T, on2.T, at2.T, q2.T
    # each row of slab_of is nondecreasing (p1 is monotone, and rint(p1) <= N - 1: % n never wraps)
    runs = [[] for _ in range(n)]  # slab -> (a, lo, hi) with slab_of[a, lo:hi] == slab
    for a, row in enumerate(slab_of):
        for k, lo, length in zip(*np.unique(row, return_index=True, return_counts=True)):
            runs[k].append((a, lo, lo + length))
    worst = scale = 0.0
    for k, slab in zip(range(n), slabs, strict=True):
        picked = []
        for a, lo, hi in runs[k]:
            block = np.abs(left[:, a * n:(a + 1) * n].T @ right[:, lo * n:hi * n]).reshape(n, hi - lo, n)
            scale = np.maximum(scale, block.max())
            picked.append(block[:, on1[a, lo:hi]])
        diff = np.concatenate(picked, axis=1)  # (w1, pair, z1), or its swap; row-major pairs, as the runs
        diff -= np.abs(slab).reshape(n * n, n)[:, q2[(slab_of == k) & on1]][at2].transpose(0, 2, 1)
        worst = np.maximum(worst, np.abs(diff, out=diff).transpose(0, 2, 1)[on2].max())
    return worst / scale, int(on1.sum()) * int(on2.sum())


def channel_modulus(n, rng):
    def residual(tau, phi):
        sigma = rand_complex(rng, n, n)
        slabs = stft_slabs(sigma, tau_wigner(phi, phi, tau))
        return channel_modulus_residual(dg.operator_channel(op_tau(sigma, tau), phi), tau, slabs)[0]

    return np.max([residual(tau, phi) for tau, phi, _label in channel_modulus_cases(n)])


VERIFY_SUITES = {
    "fundamental-identity": fundamental_identity,
    "stft-inversion": stft_inversion,
    "quantize-duality": quantize_duality,
    "quantize-roundtrip": quantize_roundtrip,
    "convert-consistency": convert_consistency,
    "symplectic-covariance": symplectic_covariance,
    "channel-modulus": channel_modulus,
}

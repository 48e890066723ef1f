"""The exact-identity suites behind `cyclictf verify`.

Each suite is `suite(n, rng) -> residual`: it draws random inputs from rng,
checks one identity of the calculus on Z_N at every case where that identity
is exact, and returns the worst relative residual (np.max keeps a NaN, which
the builtin max may drop).  A suite passes when the residual is below
SUITE_TOL, which a NaN never is.  Where an identity is exact only on part of
the grids or taus, that exact set is one function of n (`covariance_taus`,
`channel_modulus_cases`), read by the suite, the CLI and the tests alike.

Every suite holds O(N^3) memory at most: `channel-modulus` streams the symbol
STFT one `stft_slabs` slab at a time and forms the slab's blocks of the
full-grid `diagnostics.operator_channel` of Op_tau(sigma) (the channel behind
`sweep` and `channel`) in products over runs of x-rows, so it runs at every
N, above the grid cap too.
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


def fundamental_identity(n, rng):
    xg, wg = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    phase = np.conj(_phase(xg * wg, n))  # e^{-2 pi i x omega / N}, from x omega mod N

    def residual(f, g):
        lhs = stft(f, g)
        return _rel(lhs - phase * stft(dft(f), dft(g))[wg, (-xg) % n], lhs)

    return np.max([residual(rand_complex(rng, n), rand_complex(rng, n)) for _ in range(VERIFY_TRIALS)])


def stft_inversion(n, rng):
    def residual(f, g):
        return _rel(stft_adjoint(stft(f, g), g) / (n * np.linalg.norm(g) ** 2) - f, f)

    return np.max([residual(rand_complex(rng, n), rand_complex(rng, n)) for _ in range(VERIFY_TRIALS)])


def quantize_duality(n, rng):
    def residual(tau):
        sigma, f, g = rand_complex(rng, n, n), rand_complex(rng, n), rand_complex(rng, n)
        lhs = np.vdot(g, op_tau(sigma, tau) @ f)
        return _rel(lhs - np.vdot(tau_wigner(g, f, tau), sigma), lhs)

    return np.max([residual(tau) for tau in (0.0, 0.3, 0.5, 1.0) for _ in range(VERIFY_TRIALS // 4 + 1)])


def quantize_roundtrip(n, rng):
    def residual(tau):
        sigma = rand_complex(rng, n, n)
        return _rel(dequantize(op_tau(sigma, tau), tau) - sigma, sigma)

    return np.max([residual(tau) for tau in (0.0, 0.25, 1 / 3, 0.5, 1 / np.pi, 1.0)])


def convert_consistency(n, rng):
    def residual(tau1, tau2):
        sigma = rand_complex(rng, n, n)
        moved = convert_symbol(sigma, tau1, tau2)
        return np.maximum(_rel(op_tau(moved, tau2) - op_tau(sigma, tau1), sigma),
                          _rel(dequantize(op_tau(sigma, tau1), tau2) - moved, sigma))

    return np.max([residual(tau1, tau2) for tau1, tau2 in CONVERT_PAIRS])


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

"""Scalar pair loops for the channel modulus identity, and its exact set.

|<Op_tau(sigma) pi(z) phi, pi(w) phi>| = |V_Phi sigma(T_tau(w, z), J(w - z))|
with Phi = tau_wigner(phi, phi, tau), checked one pair at a time in plain
Python.  They are the independent cross-checks of the array form in
`cyclictf.verify.channel_modulus_residual`.  Each returns the worst absolute
mismatch and the number of pairs compared.
"""

import numpy as np

from cyclictf.diagnostics import channel_matrix
from cyclictf.quantize import tau_wigner
from cyclictf.transforms import stft_grid

from dense_channel import channel_entries


def phase_exact(n, j, m):
    """Whether tau = j/m (reduced, 0 <= j <= m) is in the exact set of the
    almost-diagonalization identity at N.

    There the difference envelope of the full-grid channel is sup_pos o J:
    the pairs with w - z = k meet |V_Phi sigma(., J k)| at every position.
    That holds iff tau in {0, 1}, or N is odd and (1 - tau)(N + 1) is an
    integer, i.e. m divides (m - j)(N + 1).  Decided in integers: float
    tests misclassify N = 5, tau = 5/6 and N = 17, tau = 1/3.
    """
    return m == 1 or (n % 2 == 1 and (m - j) * (n + 1) % m == 0)


def _channel_and_mags(n, tau, phi, sigma):
    chan = channel_matrix(sigma, tau, phi)
    return chan, channel_entries(chan), np.abs(stft_grid(sigma, tau_wigner(phi, phi, tau)))


def pair_loop(n, tau, phi, sigma, require_even=False):
    """Every pair (w, z) whose T_tau(w, z) is on the grid (and w + z even if asked)."""
    chan, entries, mags = _channel_and_mags(n, tau, phi, sigma)
    worst, pairs = 0.0, 0
    points = chan.lattice.points(n).tolist()
    for wi, w in enumerate(points):
        for zi, z in enumerate(points):
            if require_even and ((w[0] + z[0]) % 2 or (w[1] + z[1]) % 2):
                continue
            p1 = (1 - tau) * w[0] + tau * z[0]
            p2 = tau * w[1] + (1 - tau) * z[1]
            if abs(p1 - round(p1)) > 1e-9 or abs(p2 - round(p2)) > 1e-9:
                continue
            rhs = mags[round(p1) % n, round(p2) % n, (w[1] - z[1]) % n, (z[0] - w[0]) % n]
            worst = max(worst, abs(abs(entries[wi, zi]) - rhs))
            pairs += 1
    return worst, pairs


def inverse_map_loop(n, tau, phi, sigma):
    """The identity read backwards: every STFT point (x, y) whose paired w, z are on the grid."""
    chan, entries, mags = _channel_and_mags(n, tau, phi, sigma)
    index = {tuple(p): i for i, p in enumerate(chan.lattice.points(n).tolist())}
    worst, pairs = 0.0, 0
    for x1 in range(n):
        for x2 in range(n):
            for y1 in range(n):
                for y2 in range(n):
                    z1 = x1 + (1 - tau) * y2
                    z2 = x2 - tau * y1
                    w1 = x1 - tau * y2
                    w2 = x2 + (1 - tau) * y1
                    if any(abs(v - round(v)) > 1e-9 for v in (z1, z2, w1, w2)):
                        continue
                    z = (round(z1) % n, round(z2) % n)
                    w = (round(w1) % n, round(w2) % n)
                    rhs = abs(entries[index[w], index[z]])
                    worst = max(worst, abs(mags[x1, x2, y1, y2] - rhs))
                    pairs += 1
    return worst, pairs

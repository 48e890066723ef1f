"""The frame operator in Walnut form against its dense oracle, and the duality identities of Gabor frames.

`transforms` holds the frame operator S of G(phi, Lambda(a, b)) only as its N/b
Hermitian b x b blocks on the index classes t0 + i N/b.  These tests hold
`frame_bounds` and `canonical_dual` against the dense S = B B^H of
`frame_oracle`, over N in [2, 48], every lattice whose a and b divide N, and a
Gaussian or a random complex window.  The duality identities are drawn from the
adjoint lattice Lambda° = (N/b)Z x (N/a)Z (Groechenig 2001, ch. 7; Janssen 1995;
Ron and Shen 1997; Wexler and Raz 1990), on lattices with a != b too, so a block
scale of N/a in place of N/b fails them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictf.generators import gaussian_window, rand_complex
from cyclictf.phasespace import Lattice
from cyclictf.transforms import canonical_dual, frame_bounds, shift_bank
from cyclictf.verify import SUITE_TOL, relative_residual

from frame_oracle import adjoint_lattice, dense_frame_operator

# (N, a, b): frames of the Gaussian window with a != b, both orders, and one with a == b
DUALITY_LATTICES = [(16, 2, 4), (16, 4, 2), (24, 2, 3), (32, 4, 2), (12, 3, 2), (8, 2, 2)]


@st.composite
def gabor_systems(draw):
    """(phi, lattice): N in [2, 48], a and b divisors of N, a Gaussian or a random complex window."""
    n = draw(st.integers(2, 48))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lattice = Lattice(draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))
    if draw(st.booleans()):
        return gaussian_window(n), lattice
    return rand_complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n), lattice


class TestWalnutBlocks:
    @settings(max_examples=100, deadline=None)
    @given(system=gabor_systems())
    def test_blocks_bounds_and_dual_equal_the_dense_form(self, system):
        phi, lattice = system
        s = dense_frame_operator(phi, lattice)
        eig = np.linalg.eigvalsh(s)
        frame = eig[0] > 1e-10 * eig[-1]
        rep = frame_bounds(phi, lattice)
        assert rep.is_frame == frame
        assert abs(rep.lower - eig[0]) < SUITE_TOL * eig[-1]
        assert abs(rep.upper - eig[-1]) < SUITE_TOL * eig[-1]
        if frame:
            dual = np.linalg.solve(s, phi)
            assert relative_residual(canonical_dual(phi, lattice) - dual, dual) < 1e-13 * rep.condition
        else:
            with pytest.raises(ValueError, match="frame operator singular"):
                canonical_dual(phi, lattice)


class TestDualityIdentities:
    @pytest.mark.parametrize("n, a, b", DUALITY_LATTICES)
    def test_wexler_raz(self, n, a, b):
        # <gamma, pi(mu) phi> = (ab/N) delta_{mu,0} on Lambda° for the canonical dual gamma;
        # read at most 2.2e-16 relative to ab/N, and 0.33-1.0 with a block scale of N/a for N/b
        phi, lattice = gaussian_window(n), Lattice(a, b)
        bank = shift_bank(phi, adjoint_lattice(n, lattice).points(n))  # column 0 is mu = 0
        expected = np.zeros(bank.shape[1])
        expected[0] = a * b / n
        pairings = bank.conj().T @ canonical_dual(phi, lattice)
        assert relative_residual(pairings - expected, expected) < SUITE_TOL
        # phi is no dual of itself off a tight frame: the identity is not read off any window
        assert relative_residual(bank.conj().T @ phi - expected, expected) > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(system=gabor_systems())
    def test_janssen(self, system):
        # S = (N/(ab)) sum_{mu in Lambda°} <phi, pi(mu) phi> pi(mu), undersampled lattices too
        phi, lattice = system
        n = len(phi)
        points = adjoint_lattice(n, lattice).points(n)
        coefficients = shift_bank(phi, points).conj().T @ phi
        # column k is sum_mu c_mu pi(mu) e_k
        janssen = n / (lattice.a * lattice.b) * np.stack([shift_bank(e, points) @ coefficients
                                                          for e in np.eye(n, dtype=complex)], axis=1)
        s = dense_frame_operator(phi, lattice)
        assert relative_residual(janssen - s, s) < SUITE_TOL

    @settings(max_examples=40, deadline=None)
    @given(system=gabor_systems())
    def test_ron_shen(self, system):
        # the frame bounds are N/(ab) times the extreme eigenvalues of the Gram matrix of
        # {pi(mu) phi}, mu in Lambda°; undersampled (ab > N), both lower bounds are 0
        phi, lattice = system
        n = len(phi)
        bank = shift_bank(phi, adjoint_lattice(n, lattice).points(n))
        gram = np.linalg.eigvalsh(bank.conj().T @ bank) * n / (lattice.a * lattice.b)
        rep = frame_bounds(phi, lattice)
        assert abs(rep.lower - gram[0]) < SUITE_TOL * rep.upper
        assert abs(rep.upper - gram[-1]) < SUITE_TOL * rep.upper

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictf.generators import delta_window, gaussian_window, rand_complex
from cyclictf.phasespace import Lattice
from cyclictf.transforms import (
    canonical_dual,
    dft,
    frame_bounds,
    gabor_reconstruct,
    shift_bank,
    stft,
    stft_adjoint,
    stft_grid,
    tf_shift,
)
from cyclictf.verify import SUITE_TOL, inversion_residual

from frame_oracle import dense_frame_operator


def stft_loop(f, g):
    """Loop oracle for stft: one DFT per time shift x."""
    n = f.shape[0]
    out = np.empty((n, n), dtype=complex)
    for x in range(n):
        out[x] = np.fft.fft(f * np.conj(np.roll(g, x)))
    return out


def stft_grid_loop(sigma, window):
    """Oracle for stft_grid: the whole-array kernel, one fft2 per p1 into the output."""
    arr = np.asarray(sigma, dtype=complex)
    n = arr.shape[0]
    win = np.asarray(window, dtype=complex)
    cols = np.stack([np.conj(np.roll(win, p2, axis=1)) for p2 in range(n)])
    out = np.empty((n, n, n, n), dtype=complex)
    for p1 in range(n):
        np.multiply(arr[p1:], cols[:, : n - p1], out=out[p1, :, p1:])
        np.multiply(arr[:p1], cols[:, n - p1 :], out=out[p1, :, :p1])
        out[p1] = np.fft.fft2(out[p1], axes=(1, 2))
    return out


def stft_adjoint_loop(big_f, g):
    """Loop oracle for stft_adjoint: accumulate one shifted window per x."""
    n = g.shape[0]
    rows = np.fft.ifft(big_f, axis=1) * n
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        out += rows[x] * np.roll(g, x)
    return out


class TestDft:
    def test_impulse(self):
        out = dft(delta_window(8))
        assert np.allclose(out, np.full(8, 8**-0.5))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        f = rand_complex(rng, 16)
        assert np.linalg.norm(dft(f)) == pytest.approx(np.linalg.norm(f))

    def test_fourth_power_is_identity(self):
        rng = np.random.default_rng(1)
        f = rand_complex(rng, 8)
        out = dft(dft(dft(dft(f))))
        assert np.abs(out - f).max() < 1e-12

    def test_matrix_matches(self):
        rng = np.random.default_rng(3)
        f = rand_complex(rng, 8)
        t = np.arange(8)
        matrix = np.exp(-2j * np.pi * np.outer(t, t) / 8) / np.sqrt(8)  # the unitary DFT by its definition
        assert np.allclose(matrix @ f, dft(f))


class TestTfShift:
    def test_identity_shift(self):
        rng = np.random.default_rng(4)
        f = rand_complex(rng, 8)
        assert np.allclose(tf_shift((0, 0), f), f)

    def test_unitary(self):
        rng = np.random.default_rng(5)
        f = rand_complex(rng, 8)
        assert np.linalg.norm(tf_shift((3, 5), f)) == pytest.approx(np.linalg.norm(f))

    def test_commutation_phase_exhaustive(self):
        # pi(z) pi(z') = e^{-2 pi i x w' / N} pi(z + z') for z = (x, w), z' = (x', w'),
        # with pi(z') applied first
        n = 8
        rng = np.random.default_rng(6)
        f = rand_complex(rng, n)
        for x in range(n):
            for w in range(n):
                for xp in range(n):
                    for wp in range(n):
                        lhs = tf_shift((x, w), tf_shift((xp, wp), f))
                        phase = np.exp(-2j * np.pi * x * wp / n)
                        rhs = phase * tf_shift((x + xp, w + wp), f)
                        assert np.abs(lhs - rhs).max() < 1e-12


class TestKernelEquivalence:
    """Array kernels against their per-point definitions, over grid sizes."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_stft_grid_matches_definition(self, n, seed):
        # V_W sigma(p, q) = sum_r sigma(r) conj(W(r - p)) e^{-2 pi i q.r / N}
        rng = np.random.default_rng(seed)
        sigma = rand_complex(rng, n, n)
        window = rand_complex(rng, n, n)
        t = np.arange(n)
        fourier = np.exp(-2j * np.pi * np.outer(t, t) / n)
        direct = np.empty((n, n, n, n), dtype=complex)
        for p1 in range(n):
            for p2 in range(n):
                shifted = window[(t[:, None] - p1) % n, (t[None, :] - p2) % n]
                direct[p1, p2] = fourier @ (sigma * np.conj(shifted)) @ fourier
        err = np.abs(stft_grid(sigma, window) - direct).max()
        assert err <= 1e-12 * np.abs(direct).max()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
    def test_stft_grid_equals_fft2_loop(self, n, seed):
        # the in-place per-p1 slabs run the two passes of fft2 in its order
        rng = np.random.default_rng(seed)
        sigma = rand_complex(rng, n, n)
        window = rand_complex(rng, n, n)
        assert np.array_equal(stft_grid(sigma, window), stft_grid_loop(sigma, window))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_shift_bank_is_stacked_tf_shift(self, n, seed):
        rng = np.random.default_rng(seed)
        phi = rand_complex(rng, n)
        lattices = [Lattice(1, 1)] + ([Lattice(2, 2)] if n % 2 == 0 else [])
        for lattice in lattices:
            pts = lattice.points(n)
            stacked = np.stack([tf_shift(p, phi) for p in pts], axis=1)
            assert np.array_equal(shift_bank(phi, pts), stacked)

    def test_phases_are_the_roots_of_unity_at_omega_t_mod_n(self):
        # omega t reaches (N - 1)^2 >> N; each phase is e^{2 pi i k / N} at k = omega t mod N, bit for bit
        n = 1024
        t = np.arange(n)

        def root(k):
            return np.exp(2j * np.pi * (k % n) / n)

        assert np.array_equal(tf_shift((0, n - 1), np.ones(n)), root((n - 1) * t))
        phi = rand_complex(np.random.default_rng(0), n)
        pts = np.array([[0, n - 1], [3, n // 2 + 1]])
        expected = np.stack([root(omega * t) * np.roll(phi, x) for x, omega in pts], axis=1)
        assert np.array_equal(shift_bank(phi, pts), expected)


class TestStft:
    def test_value_at_origin(self):
        rng = np.random.default_rng(7)
        f, g = rand_complex(rng, 8), rand_complex(rng, 8)
        assert stft(f, g)[0, 0] == pytest.approx(np.vdot(g, f))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(8)
        f, g = rand_complex(rng, 16), rand_complex(rng, 16)
        bound = np.linalg.norm(f) * np.linalg.norm(g)
        assert np.abs(stft(f, g)).max() <= bound + 1e-12

    def test_matches_direct_sum(self):
        # independent slow oracle for the STFT definition
        rng = np.random.default_rng(9)
        n = 6
        f, g = rand_complex(rng, n), rand_complex(rng, n)
        grid = stft(f, g)
        for x in range(n):
            for w in range(n):
                direct = sum(
                    f[y] * np.conj(g[(y - x) % n]) * np.exp(-2j * np.pi * y * w / n)
                    for y in range(n)
                )
                assert grid[x, w] == pytest.approx(direct, abs=1e-12)

    def test_fundamental_identity(self):
        rng = np.random.default_rng(10)
        n = 8
        f, g = rand_complex(rng, n), rand_complex(rng, n)
        lhs = stft(f, g)
        hat = stft(dft(f), dft(g))
        for x in range(n):
            for w in range(n):
                rhs = np.exp(-2j * np.pi * x * w / n) * hat[w, (-x) % n]
                assert lhs[x, w] == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(2, 40), st.just(64)), seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        f, g = rand_complex(rng, n), rand_complex(rng, n)
        assert np.array_equal(stft(f, g), stft_loop(f, g))
        coeff = rand_complex(rng, n, n)
        ref = stft_adjoint_loop(coeff, g)
        assert np.abs(stft_adjoint(coeff, g) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            stft(np.ones(4), np.zeros(4))


class TestStftAdjoint:
    def test_adjointness(self):
        rng = np.random.default_rng(11)
        n = 8
        f, g = rand_complex(rng, n), rand_complex(rng, n)
        coeff = rand_complex(rng, n, n)
        lhs = np.vdot(coeff, stft(f, g))  # <V_g f, F>
        rhs = np.vdot(stft_adjoint(coeff, g), f)  # <f, V_g* F>
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_zero_coefficients(self):
        assert np.allclose(stft_adjoint(np.zeros((8, 8)), gaussian_window(8)), 0)

    def test_inversion_constant_from_delta_oracle(self):
        # Brute-force V_g* V_g delta_0 at N=4 pins the constant: the composition
        # is N ||g||^2 times the identity, so the calibrated constant is 1/N.
        n = 4
        rng = np.random.default_rng(12)
        g = rand_complex(rng, n)
        delta = np.zeros(n, dtype=complex)
        delta[0] = 1.0
        out = np.zeros(n, dtype=complex)
        for x in range(n):
            for w in range(n):
                coeff = sum(
                    delta[y] * np.conj(g[(y - x) % n]) * np.exp(-2j * np.pi * y * w / n)
                    for y in range(n)
                )
                out += coeff * tf_shift((x, w), g)
        measured = out[0] / (np.linalg.norm(g) ** 2 * delta[0])
        assert measured == pytest.approx(n, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_inversion_all_signals(self, n):
        rng = np.random.default_rng(13)
        assert inversion_residual(rand_complex(rng, n), rand_complex(rng, n)) < SUITE_TOL


class TestFrames:
    def test_full_grid_tight(self):
        # brute-force oracle at N=4: S = sum_z pi(z) phi <pi(z) phi, .> summed directly
        n = 4
        rng = np.random.default_rng(14)
        phi = rand_complex(rng, n)
        s = np.zeros((n, n), dtype=complex)
        for x in range(n):
            for w in range(n):
                v = tf_shift((x, w), phi)
                s += np.outer(v, v.conj())
        expected = n * np.linalg.norm(phi) ** 2 * np.eye(n)
        assert np.abs(s - expected).max() < 1e-10
        assert np.abs(dense_frame_operator(phi, Lattice(1, 1)) - expected).max() < 1e-10

    def test_translation_frame_diagonal(self):
        n = 4
        phi = delta_window(n)
        assert np.abs(dense_frame_operator(phi, Lattice(1, n)) - np.eye(n)).max() < 1e-12

    def test_hermitian_psd(self):
        # Hermitian PSD, and zero off the index classes t == s (mod N/b): the Walnut blocks are all of S
        rng = np.random.default_rng(15)
        phi = rand_complex(rng, 8)
        s = dense_frame_operator(phi, Lattice(2, 4))
        assert np.abs(s - s.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(s).min() > -1e-12
        t = np.arange(8)
        assert np.abs(s[(t[:, None] - t[None, :]) % 2 != 0]).max() < 1e-12

    def test_commutes_with_lattice_shifts(self):
        rng = np.random.default_rng(16)
        phi = rand_complex(rng, 8)
        lat = Lattice(2, 2)
        s = dense_frame_operator(phi, lat)
        for p in lat.points(8):
            shift = np.stack([tf_shift(p, e) for e in np.eye(8, dtype=complex).T], axis=1)
            assert np.abs(s @ shift - shift @ s).max() < 1e-10

    @pytest.mark.parametrize("r, frame", [(1e-8, True), (1e-12, False)])
    def test_frame_rtol_boundary(self, r, frame):
        # on Lattice(N, 1) the blocks are 1 x 1 and S = N diag(|phi|^2), so lower / upper is the
        # smallest |phi|^2 / the largest: 1e-8 is a frame and 1e-12 is not under FRAME_RTOL = 1e-10
        # (a FRAME_RTOL of 1e-6 read 1e-8 as no frame)
        phi = np.ones(8, dtype=complex)
        phi[3] = np.sqrt(r)
        rep = frame_bounds(phi, Lattice(8, 1))
        assert rep.is_frame == frame
        assert rep.lower / rep.upper == pytest.approx(r, rel=1e-6)

    def test_full_grid_bounds(self):
        phi = gaussian_window(8)  # unit norm
        rep = frame_bounds(phi, Lattice(1, 1))
        assert rep.lower == pytest.approx(8.0, abs=1e-10)
        assert rep.upper == pytest.approx(8.0, abs=1e-10)
        assert rep.is_frame

    def test_undersampled_not_frame(self):
        rep = frame_bounds(gaussian_window(4), Lattice(2, 4))
        assert not rep.is_frame
        assert rep.condition == np.inf

    def test_gaussian_oversampled_regression(self):
        rep = frame_bounds(gaussian_window(16), Lattice(2, 2))
        assert rep.is_frame
        # frozen regression values from the eigenvalue oracle
        assert rep.lower == pytest.approx(3.970176713771, rel=1e-9)
        assert rep.upper == pytest.approx(4.029934881184, rel=1e-9)

    @pytest.mark.parametrize("phi, lattice, frame", [(gaussian_window(16), Lattice(2, 2), True),
                                                     (gaussian_window(4), Lattice(2, 4), False)])
    def test_scale_free(self, phi, lattice, frame):
        # the threshold is relative to the upper bound: at 1e-6 phi the frame at Lattice(2, 2)
        # (lower 3.97e-12, condition 1.015) read as no frame, and canonical_dual raised
        reference = frame_bounds(phi, lattice)
        assert reference.is_frame == frame
        for scale in (1e-8, 1.0, 1e8):
            rep = frame_bounds(scale * phi, lattice)
            assert rep.is_frame == frame
            if frame:
                assert rep.condition == pytest.approx(reference.condition, rel=1e-12)
                f = rand_complex(np.random.default_rng(20), 16)
                dual = canonical_dual(scale * phi, lattice)
                assert np.abs(gabor_reconstruct(f, scale * phi, dual, lattice) - f).max() < 1e-12
            else:
                assert rep.condition == np.inf

    def test_bounds_ordered(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            phi = rand_complex(rng, 8)
            rep = frame_bounds(phi, Lattice(2, 2))
            assert rep.lower <= rep.upper + 1e-12

    def test_frame_bound_sandwich(self):
        rng = np.random.default_rng(17)
        phi = gaussian_window(16)
        lat = Lattice(2, 2)
        rep = frame_bounds(phi, lat)
        pts = lat.points(16)
        for _ in range(100):
            f = rand_complex(rng, 16)
            energy = sum(abs(np.vdot(tf_shift(p, phi), f)) ** 2 for p in pts)
            norm2 = np.linalg.norm(f) ** 2
            assert rep.lower * norm2 - 1e-8 <= energy <= rep.upper * norm2 + 1e-8


class TestCanonicalDual:
    def test_full_grid_dual(self):
        phi = gaussian_window(4)
        dual = canonical_dual(phi, Lattice(1, 1))
        assert np.abs(dual - phi / 4).max() < 1e-12

    def test_delta_dual(self):
        dual = canonical_dual(delta_window(4), Lattice(1, 1))
        assert np.abs(dual - delta_window(4) / 4).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(18)
        phi = gaussian_window(16)
        lat = Lattice(2, 2)
        dual = canonical_dual(phi, lat)
        f = rand_complex(rng, 16)
        recon = gabor_reconstruct(f, phi, dual, lat)
        assert np.abs(recon - f).max() < 1e-8

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            canonical_dual(gaussian_window(4), Lattice(2, 4))


class TestInputValidation:
    def test_signal_must_be_vector(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            dft(np.ones((4, 4)))

    def test_stft_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ: 8 != 6"):
            stft(np.ones(8), gaussian_window(6))

    def test_adjoint_grid_shape(self):
        from cyclictf.transforms import stft_adjoint

        with pytest.raises(ValueError, match="N x N"):
            stft_adjoint(np.ones((4, 5)), gaussian_window(4))

    def test_grid_stft_zero_window(self):
        with pytest.raises(ValueError, match="non-zero"):
            stft_grid(np.ones((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(8, 8), (4, 8), (8, 4), (3, 3), (4,)])
    def test_grid_stft_window_shape(self, shape):
        # unchecked, a larger window is cut to its top-left block and a smaller one ends in an IndexError
        with pytest.raises(ValueError, match=re.escape(f"(4, 4) and {shape}")):
            stft_grid(np.ones((4, 4)), np.ones(shape))

    def test_frame_operator_zero_window(self):
        # the frame operator's bounds and its dual refuse a zero window, and a lattice that does not divide N
        for call in (frame_bounds, canonical_dual):
            with pytest.raises(ValueError, match="window must be non-zero"):
                call(np.zeros(4), Lattice(1, 1))
            with pytest.raises(ValueError, match="lattice must divide grid"):
                call(np.ones(4), Lattice(3, 1))

    def test_shift_bank_zero_window(self):
        with pytest.raises(ValueError, match="non-zero"):
            shift_bank(np.zeros(4), Lattice(1, 1).points(4))

    def test_gabor_reconstruct_zero_windows(self):
        # either zero window is refused, where the expansion would return zeros
        phi = gaussian_window(4)
        with pytest.raises(ValueError, match="non-zero"):
            gabor_reconstruct(np.ones(4), np.zeros(4), phi, Lattice(1, 1))
        with pytest.raises(ValueError, match="non-zero"):
            gabor_reconstruct(np.ones(4), phi, np.zeros(4), Lattice(1, 1))

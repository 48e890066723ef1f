import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictf.generators import delta_symbol, delta_window, gaussian_symbol, gaussian_window, rand_complex, random_symbol
from cyclictf.normbank import (
    fsjostrand_norm,
    mixed_norm,
    modulation_norm,
    sjostrand_norm,
    symbol_sups,
)
from cyclictf.phasespace import polynomial_weight
from cyclictf.quantize import tau_wigner
from cyclictf.transforms import stft_grid

INF = float("inf")


def dft2(grid):
    n = grid.shape[0]
    return np.fft.fft2(grid) / n


class TestMixedNorm:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (1, INF), (INF, 1), (INF, INF)])
    def test_single_entry(self, p, q):
        grid = np.zeros((8, 8), dtype=complex)
        grid[3, 5] = 2.0 - 1.0j
        assert mixed_norm(grid, p, q) == pytest.approx(abs(grid[3, 5]))

    def test_frobenius(self):
        rng = np.random.default_rng(0)
        grid = rand_complex(rng, 8, 8)
        assert mixed_norm(grid, 2, 2) == pytest.approx(np.linalg.norm(grid))

    def test_sup_then_sum(self):
        # row of ones at omega = 0: sup over x is 1, a single omega term
        grid = np.zeros((8, 8))
        grid[:, 0] = 1.0
        assert mixed_norm(grid, INF, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (3, 1.5), (2, INF), (INF, 2)])
    def test_direct_formula(self, p, q):
        # (sum_omega (sum_x |g|^p)^(q/p))^(1/q), a maximum for an infinite exponent
        rng = np.random.default_rng(7)
        for n in (2, 5, 8, 16):
            grid = rand_complex(rng, n, n)
            mags = np.abs(grid)
            inner = mags.max(axis=0) if p == INF else (mags**p).sum(axis=0) ** (1 / p)
            expected = inner.max() if q == INF else (inner**q).sum() ** (1 / q)
            assert mixed_norm(grid, p, q) == pytest.approx(expected, rel=1e-14)

    def test_exponent_validation(self):
        grid = np.ones((4, 4))
        for p, q in [(0.5, 2), (2, 0.5), (float("nan"), 2), (2, float("nan"))]:
            with pytest.raises(ValueError, match="p, q >= 1"):
                mixed_norm(grid, p, q)

    def test_grid_validation(self):
        for grid in (np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=re.escape(f"2-D grid, got shape {grid.shape}")):
                mixed_norm(grid, 2, 2)


class TestModulationNorm:
    def test_delta_delta_value(self):
        # |V_delta delta(x, w)| = [x == 0], so the L^{2,2} mass is sqrt(N);
        # value frozen from the direct STFT oracle at N = 4
        value = modulation_norm(delta_window(4), delta_window(4), 2, 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        f, g = rand_complex(rng, 8), gaussian_window(8)
        assert modulation_norm(3.5j * f, g, 1, INF) == pytest.approx(3.5 * modulation_norm(f, g, 1, INF))

    def test_window_equivalence_band(self):
        # ratios across two Gaussian windows stay in a fixed band (measured
        # [0.954, 1.031] at build time; asserted with margin)
        rng = np.random.default_rng(3)
        g1, g2 = gaussian_window(16, 1.0), gaussian_window(16, 2.0)
        for _ in range(50):
            f = rand_complex(rng, 16)
            ratio = modulation_norm(f, g1, 1, 1) / modulation_norm(f, g2, 1, 1)
            assert 0.90 <= ratio <= 1.10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        g = gaussian_window(8)
        for p, q in ((1, 1), (2, 2), (INF, 1)):
            for _ in range(10):
                f1, f2 = rand_complex(rng, 8), rand_complex(rng, 8)
                lhs = modulation_norm(f1 + f2, g, p, q)
                assert lhs <= modulation_norm(f1, g, p, q) + modulation_norm(f2, g, p, q) + 1e-10

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            modulation_norm(np.ones(8), np.zeros(8), 2, 2)


class TestSymbolClassNorms:
    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_symbol_sups_are_the_two_maxima(self, n):
        sigma, window = random_symbol(n, n), gaussian_symbol(n)
        mags = np.abs(stft_grid(sigma, window))
        sup_pos, sup_freq = symbol_sups(sigma, window)
        assert np.array_equal(sup_pos, mags.max(axis=(0, 1)))
        assert np.array_equal(sup_freq, mags.max(axis=(2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 24), kind=st.sampled_from(["gaussian", "random", "tau-wigner"]),
           tau=st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_streamed_sups_equal_the_full_stft(self, n, kind, tau, seed):
        rng = np.random.default_rng(seed)
        sigma = rand_complex(rng, n, n)
        if kind == "gaussian":
            window = gaussian_symbol(n)
        elif kind == "random":
            window = rand_complex(rng, n, n)
        else:
            window = tau_wigner(gaussian_window(n), rand_complex(rng, n), tau)
        mags = np.abs(stft_grid(sigma, window))
        sup_pos, sup_freq = symbol_sups(sigma, window)
        assert np.array_equal(sup_pos, mags.max(axis=(0, 1)))
        assert np.array_equal(sup_freq, mags.max(axis=(2, 3)))

    def test_sups_peak_memory_at_n32(self, traced_peak):
        # one (N, N, N) slab, its magnitudes' buffer and the window's 2N x 2N tiling (1.1 MB); a
        # gathered table of the window's N^3 shifts took 1.7 MB, the full N^4 STFT and its abs 25.2 MB
        n = 32
        sigma, window = random_symbol(n, 0), tau_wigner(gaussian_window(n), gaussian_window(n), 0.5)
        peak = traced_peak(symbol_sups, sigma, window)
        assert peak <= 1.4e6, peak

    def test_sjostrand_brute_force_regression(self):
        # direct quadruple-sum oracle at N=4 froze this value at build time
        sigma = np.ones((4, 4), dtype=complex)
        window = gaussian_symbol(4, width=1.0)
        value = sjostrand_norm(symbol_sups(sigma, window), polynomial_weight(0.0))
        assert value == pytest.approx(16.000223190689, rel=1e-10)

    def test_sjostrand_matches_quadruple_sum(self):
        # independent slow evaluation on a random symbol
        n = 4
        sigma = random_symbol(n, 6)
        window = gaussian_symbol(n, width=1.0)
        acc = 0.0
        for q1 in range(n):
            for q2 in range(n):
                sup = 0.0
                for p1 in range(n):
                    for p2 in range(n):
                        s = 0.0
                        for r1 in range(n):
                            for r2 in range(n):
                                s += (
                                    sigma[r1, r2]
                                    * np.conj(window[(r1 - p1) % n, (r2 - p2) % n])
                                    * np.exp(-2j * np.pi * (r1 * q1 + r2 * q2) / n)
                                )
                        sup = max(sup, abs(s))
                acc += sup
        assert sjostrand_norm(symbol_sups(sigma, window), polynomial_weight(0.0)) == pytest.approx(acc, rel=1e-10)

    def test_homogeneity(self):
        sigma = random_symbol(8, 7)
        window = gaussian_symbol(8)
        v = polynomial_weight(1.0)
        assert sjostrand_norm(symbol_sups(2.5 * sigma, window), v) == pytest.approx(
            2.5 * sjostrand_norm(symbol_sups(sigma, window), v)
        )
        assert fsjostrand_norm(symbol_sups(2.5 * sigma, window), v) == pytest.approx(
            2.5 * fsjostrand_norm(symbol_sups(sigma, window), v)
        )

    def test_monotone_in_weight_order(self):
        sigma = random_symbol(8, 8)
        window = gaussian_symbol(8)
        values = [sjostrand_norm(symbol_sups(sigma, window), polynomial_weight(s)) for s in (0.0, 1.0, 2.0)]
        assert values[0] <= values[1] <= values[2]

    def test_delta_symbol_prefers_fourier_class(self):
        # point mass: fsjostrand / sjostrand == 1/N at N=16 (frozen measurement)
        window = gaussian_symbol(16, width=1.0)
        v = polynomial_weight(0.0)
        sups = symbol_sups(delta_symbol(16), window)
        ratio = fsjostrand_norm(sups, v) / sjostrand_norm(sups, v)
        assert ratio == pytest.approx(1.0 / 16.0, rel=1e-9)

    def test_fourier_swap(self):
        # fsjostrand(sigma, W) == sjostrand(F sigma, F W): grid instance of the
        # Fourier image relation between the two classes
        sigma = random_symbol(8, 9)
        window = gaussian_symbol(8)
        v = polynomial_weight(0.0)
        lhs = fsjostrand_norm(symbol_sups(sigma, window), v)
        rhs = sjostrand_norm(symbol_sups(dft2(sigma), dft2(window)), v)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_triangle_inequality(self):
        window = gaussian_symbol(8)
        v = polynomial_weight(1.0)
        for seed in range(3):
            a, b = random_symbol(8, 10 + seed), random_symbol(8, 20 + seed)
            sa, sb, sab = (symbol_sups(c, window) for c in (a, b, a + b))
            assert sjostrand_norm(sab, v) <= sjostrand_norm(sa, v) + sjostrand_norm(sb, v) + 1e-9
            assert fsjostrand_norm(sab, v) <= fsjostrand_norm(sa, v) + fsjostrand_norm(sb, v) + 1e-9


import numpy as np
import pytest

from cyclictf.generators import delta_symbol, gaussian_window, rand_complex, random_symbol
from cyclictf.quantize import (
    chirp_exponents,
    convert_symbol,
    dequantize,
    op_tau,
    rotate_symbol_j_inv,
    spreading_function,
    symbol_from_spreading,
    tau_wigner,
    twisted_product,
)
from cyclictf.transforms import dft
from cyclictf.verify import SUITE_TOL, convert_residual, duality_residual, roundtrip_residual

from endpoint_oracle import kernel_from_symbol_endpoint


def translation_matrix(n, x):
    t = np.zeros((n, n))
    for i in range(n):
        t[i, (i - x) % n] = 1.0
    return t


def modulation_matrix(n, w):
    return np.diag(np.exp(2j * np.pi * w * np.arange(n) / n))


def op_tau_slow(sigma, tau):
    """Independent oracle: explicit sum over the shift system."""
    n = sigma.shape[0]
    psi = chirp_exponents(n)
    sig_hat = np.fft.fft2(sigma) / n
    out = np.zeros((n, n), dtype=complex)
    for w in range(n):
        for u in range(n):
            phase = np.exp(-2j * np.pi * (1 - tau) * psi[w, u] / n)
            out += sig_hat[w, u] * phase * (translation_matrix(n, -u) @ modulation_matrix(n, w))
    return out / n


def chirp_by_orbits(n):
    """The chirp table as first built: walk each orbit of R(omega, u) = (-u, omega).

    The lexicographically first orbit point gets kappa * c(omega) c(u)
    (centered representatives, kappa = N+1 for odd N else 1) and the value
    alternates in sign along the orbit.  Rotation-fixed points get 0, except
    (N/2, N/2) for N == 2 (mod 4), where the product constraint wins.
    """

    def centered(a):
        a %= n
        return a - n if a >= (n + 1) // 2 else a

    kappa = n + 1 if n % 2 else 1
    psi = np.zeros((n, n), dtype=np.int64)
    seen = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            if seen[a, b]:
                continue
            orbit = [(a, b)]
            while True:
                w, u = orbit[-1]
                nxt = ((-u) % n, w)
                if nxt == orbit[0]:
                    break
                orbit.append(nxt)
            if len(orbit) == 1 and (a * b) % n != 0:
                # only (N/2, N/2) with N == 2 (mod 4); antisymmetry unattainable
                value = kappa * centered(a) * centered(b)
            else:
                value = 0 if len(orbit) == 1 else kappa * centered(a) * centered(b)
            sign = 1
            for (w, u) in orbit:
                psi[w, u] = sign * value
                seen[w, u] = True
                sign = -sign
    return psi


class TestChirpTable:
    def test_closed_form_equals_orbit_walk(self):
        for n in range(2, 129):
            psi = chirp_exponents(n)
            assert psi.dtype == np.int64 and not psi.flags.writeable, n
            assert np.array_equal(psi, chirp_by_orbits(n)), n

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 16])
    def test_congruent_to_index_product(self, n):
        psi = chirp_exponents(n)
        for w in range(n):
            for u in range(n):
                assert (psi[w, u] - w * u) % n == 0

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 16])
    def test_rotation_antisymmetry(self, n):
        psi = chirp_exponents(n)
        for w in range(n):
            for u in range(n):
                assert psi[(-u) % n, w] == -psi[w, u]


class TestOpTau:
    @pytest.mark.parametrize("tau", [0.0, 0.37, 0.5, 1.0])
    def test_constant_symbol_is_identity(self, tau):
        assert np.abs(op_tau(np.ones((8, 8)), tau) - np.eye(8)).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_multiplication_symbol(self, tau):
        rng = np.random.default_rng(0)
        m = rand_complex(rng, 8)
        sigma = np.tile(m[:, None], (1, 8))
        assert np.abs(op_tau(sigma, tau) - np.diag(m)).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.8, 1.0])
    def test_fourier_multiplier(self, tau):
        rng = np.random.default_rng(1)
        g = rand_complex(rng, 8)
        sigma = np.tile(g[None, :], (8, 1))
        t = np.arange(8)
        f = np.exp(-2j * np.pi * np.outer(t, t) / 8) / np.sqrt(8)  # the unitary DFT matrix
        expected = f.conj().T @ np.diag(g) @ f
        assert np.abs(op_tau(sigma, tau) - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_matches_slow_oracle(self, n, tau):
        sigma = random_symbol(n, seed=2)
        assert np.abs(op_tau(sigma, tau) - op_tau_slow(sigma, tau)).max() < 1e-12

    def test_linear_in_symbol(self):
        a, b = random_symbol(8, 3), random_symbol(8, 4)
        lhs = op_tau(2.0 * a + 1j * b, 0.3)
        rhs = 2.0 * op_tau(a, 0.3) + 1j * op_tau(b, 0.3)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_real_weyl_symbol_self_adjoint(self):
        sigma = random_symbol(8, 5).real.astype(complex)
        t = op_tau(sigma, 0.5)
        assert np.abs(t - t.conj().T).max() < 1e-12

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            op_tau(np.ones((4, 4)), 1.2)

    @pytest.mark.parametrize("tau", [1.2, -0.1])
    def test_dequantize_tau_out_of_range(self, tau):
        with pytest.raises(ValueError, match="out of range"):
            dequantize(np.eye(4), tau)

    def test_continuity_in_tau(self):
        # Lipschitz regression: HS distance bounded by a frozen constant times
        # |tau - tau'| for the seeded symbol; constant measured at build time.
        rng = np.random.default_rng(5)
        sigma = rand_complex(rng, 16, 16)
        taus = np.linspace(0.1, 0.9, 9)
        for t1, t2 in zip(taus[:-1], taus[1:]):
            dist = np.linalg.norm(op_tau(sigma, t1) - op_tau(sigma, t2))
            assert dist <= 50.0 * (t2 - t1)

    def test_continuity_constant_grows_with_spreading_mass(self):
        # the measured Lipschitz constant tracks the chirp-weighted spreading
        # mass: band-limited symbols move less under tau than full-band ones
        from cyclictf.generators import graded_corpus

        def lipschitz(sigma):
            taus = np.linspace(0.1, 0.9, 5)
            return max(
                np.linalg.norm(op_tau(sigma, t1) - op_tau(sigma, t2)) / (t2 - t1)
                for t1, t2 in zip(taus[:-1], taus[1:])
            )

        corpus = graded_corpus(16, 10, 2024)
        constants = [lipschitz(s) for s in corpus]
        assert constants[0] < constants[4] < constants[-1]


class TestDequantize:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_identity_gives_constant(self, tau):
        sigma = dequantize(np.eye(8, dtype=complex), tau)
        assert np.abs(sigma - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("tau", [0.0, 0.25, 1 / 3, 0.5, 0.7, 1.0])
    def test_round_trip(self, n, tau):
        assert roundtrip_residual(random_symbol(n, seed=6), tau) < SUITE_TOL

    def test_round_trip_irrational(self):
        assert roundtrip_residual(random_symbol(8, 7), 1 / np.pi) < SUITE_TOL

    def test_multiplication_inverse(self):
        rng = np.random.default_rng(8)
        m = rand_complex(rng, 8)
        sigma = dequantize(np.diag(m), 0.4)
        assert np.abs(sigma - m[:, None]).max() < 1e-12


class TestSpreading:
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_round_trip(self, tau):
        sigma = random_symbol(8, 9)
        coeff = spreading_function(sigma, tau)
        assert np.abs(symbol_from_spreading(coeff, tau) - sigma).max() < 1e-12

    def test_constant_symbol_spreads_to_origin(self):
        coeff = spreading_function(np.ones((8, 8)), 0.3)
        expected = np.zeros((8, 8))
        expected[0, 0] = 8.0
        assert np.abs(coeff - expected).max() < 1e-12


class TestEndpointKernels:
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_integral_form_matches(self, n, tau):
        sigma = random_symbol(n, seed=10)
        assert np.abs(op_tau(sigma, tau) - kernel_from_symbol_endpoint(sigma, tau)).max() < 1e-12

    def test_interior_tau_rejected(self):
        with pytest.raises(ValueError, match="tau in"):
            kernel_from_symbol_endpoint(np.ones((4, 4)), 0.5)

    @pytest.mark.parametrize("tau", [0, 1])
    def test_entrywise_definition(self, tau):
        # k(x, y) = (1/N) sum_omega sigma((1-tau) x + tau y, omega) e^{2 pi i (x - y) omega / N}
        n = 6
        sigma = random_symbol(n, seed=3)
        kernel = kernel_from_symbol_endpoint(sigma, tau)
        omega = np.arange(n)
        for x in range(n):
            for y in range(n):
                row = sigma[x if tau == 0 else y]
                expected = np.sum(row * np.exp(2j * np.pi * (x - y) * omega / n)) / n
                assert abs(kernel[x, y] - expected) < 1e-12


class TestRotateSymbolJInv:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    def test_index_permutation_exhaustive(self, n):
        sigma = random_symbol(n, seed=n)
        out = rotate_symbol_j_inv(sigma)
        assert not np.shares_memory(out, sigma)
        for x in range(n):
            for w in range(n):
                assert out[x, w] == sigma[(-w) % n, x]


class TestConvertSymbol:
    def test_same_tau_is_identity(self):
        sigma = random_symbol(8, 11)
        assert np.abs(convert_symbol(sigma, 0.3, 0.3) - sigma).max() < 1e-12

    @pytest.mark.parametrize("tau1,tau2", [(0.0, 0.5), (0.3, 0.8), (0.5, 1.0)])
    def test_operator_consistency(self, tau1, tau2):
        assert convert_residual(random_symbol(8, 12), tau1, tau2) < SUITE_TOL

    @pytest.mark.parametrize("tau1,tau2", [(0.0, 1.0), (0.25, 0.6)])
    def test_matches_dequantize_path(self, tau1, tau2):
        assert convert_residual(random_symbol(8, 13), tau1, tau2) < SUITE_TOL

    def test_constant_invariant(self):
        for tau1, tau2 in [(0.0, 1.0), (0.3, 0.7)]:
            out = convert_symbol(np.ones((8, 8)), tau1, tau2)
            assert np.abs(out - 1.0).max() < 1e-12


class TestTauWigner:
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_duality(self, tau):
        rng = np.random.default_rng(14)
        assert duality_residual(random_symbol(8, 15), rand_complex(rng, 8), rand_complex(rng, 8), tau) < SUITE_TOL

    def test_rihaczek_at_zero(self):
        # W_0(f, g)(x, w) = N^{-1/2} f(x) conj(Fg(w)) e^{-2 pi i x w / N}
        rng = np.random.default_rng(16)
        n = 8
        f = rand_complex(rng, n)
        g = rand_complex(rng, n)
        ghat = dft(g)
        x = np.arange(n)
        direct = (
            f[:, None]
            * ghat.conj()[None, :]
            * np.exp(-2j * np.pi * np.outer(x, x) / n)
            / np.sqrt(n)
        )
        assert np.abs(tau_wigner(f, g, 0.0) - direct).max() < 1e-12

    def test_conjugate_rihaczek_at_one(self):
        rng = np.random.default_rng(17)
        n = 8
        f = rand_complex(rng, n)
        g = rand_complex(rng, n)
        fhat = dft(f)
        x = np.arange(n)
        direct = (
            g.conj()[:, None]
            * fhat[None, :]
            * np.exp(2j * np.pi * np.outer(x, x) / n)
            / np.sqrt(n)
        )
        assert np.abs(tau_wigner(f, g, 1.0) - direct).max() < 1e-12

    def test_half_point_marginal(self):
        # sum_w W_{1/2}(f, f)(x, w) is proportional to |f(x)|^2; the delta
        # oracle at N=4 measures the constant as exactly 1
        n = 4
        delta = np.zeros(n, dtype=complex)
        delta[0] = 1.0
        marg = tau_wigner(delta, delta, 0.5).sum(axis=1)
        constant = marg[0].real  # |delta(0)|^2 = 1
        assert constant == pytest.approx(1.0, abs=1e-12)
        assert np.abs(marg - constant * np.abs(delta) ** 2).max() < 1e-12
        rng = np.random.default_rng(18)
        f = rand_complex(rng, n)
        marg = tau_wigner(f, f, 0.5).sum(axis=1)
        assert np.abs(marg - np.abs(f) ** 2).max() < 1e-10

    def test_bilinear_zero(self):
        f = np.zeros(8, dtype=complex)
        g = gaussian_window(8)
        assert np.abs(tau_wigner(f, g, 0.3)).max() == 0.0
        assert np.abs(tau_wigner(g, f, 0.3)).max() == 0.0


class TestTwistedProduct:
    def test_unit_element(self):
        sigma = random_symbol(8, 19)
        one = np.ones((8, 8))
        assert np.abs(twisted_product(sigma, one) - sigma).max() < 1e-10
        assert np.abs(twisted_product(one, sigma) - sigma).max() < 1e-10

    def test_associativity(self):
        a, b, c = (random_symbol(8, s) for s in (20, 21, 22))
        lhs = twisted_product(twisted_product(a, b), c)
        rhs = twisted_product(a, twisted_product(b, c))
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_defining_property(self):
        a, b = random_symbol(8, 23), random_symbol(8, 24)
        lhs = op_tau(twisted_product(a, b), 0.5)
        rhs = op_tau(a, 0.5) @ op_tau(b, 0.5)
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_adjoint_symbol_is_conjugate(self, n):
        sigma = random_symbol(n, 25)
        adj = dequantize(op_tau(sigma, 0.5).conj().T, 0.5)
        assert np.abs(adj - sigma.conj()).max() < 1e-10


class TestInputValidation:
    def test_symbol_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            op_tau(np.ones((4, 5)), 0.5)

    def test_operator_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            dequantize(np.ones((4, 5)), 0.5)

    def test_wigner_signal_shapes(self):
        with pytest.raises(ValueError, match="equal length"):
            tau_wigner(np.ones(4), np.ones(5), 0.5)
        with pytest.raises(ValueError, match="equal length"):
            tau_wigner(np.ones((4, 4)), np.ones(4), 0.5)


def test_delta_symbol_is_scaled_parity_at_odd_n():
    # on odd grids the half-point calculus is exact: Op_{1/2}(delta) = parity / N
    n = 5
    t = op_tau(delta_symbol(n), 0.5)
    parity = np.zeros((n, n))
    for x in range(n):
        parity[x, (-x) % n] = 1.0
    assert np.abs(t - parity / n).max() < 1e-12

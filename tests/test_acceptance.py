"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are the contract values, fixed here and not tunable.

Criterion 5 (the point-mass symbol's difference/sum envelope contrast reaches
the factor 10) is checked where the grid admits it.  The contrast has a
ceiling: the exact Weyl point-mass operator is the parity f(x) -> f(-x), and
its contrast equals the constant symbol's reverse contrast (sum mass over
difference mass), because op_tau(1, tau) is the identity and z -> -z maps the
identity's channel onto the parity's.  On odd grids the ceiling is N/2 and the
quantizer gives the exact parity, so the point mass sits on the ceiling; the
factor 10 is asserted at N = 21, the smallest odd grid with N/2 >= 10 (10.50).
At N = 16 the 2-coset structure of the even grid sets the ceiling at 7.28 < 10,
and the even-grid chirp at tau = 1/2 is not the parity, so the point mass
(3.25) concentrates along the sum but stays below the ceiling.  Both facts are
asserted.  The companion test shows the same pipeline clearing the factor on
an odd grid with a polynomial weight.
"""

import json

import numpy as np
import pytest

from cyclictf.cli import main
from cyclictf.diagnostics import (
    boundedness_report,
    envelope,
    almost_diag_report,
    operator_channel,
    spearman_rank,
)
from cyclictf.generators import (
    comb_window,
    delta_symbol,
    gaussian_symbol,
    gaussian_window,
    graded_corpus,
    rand_complex,
)
from cyclictf.normbank import ell1v, sjostrand_norm, symbol_sups
from cyclictf.phasespace import Lattice, polynomial_weight
from cyclictf.quantize import dequantize, op_tau, tau_wigner, twisted_product
from cyclictf.transforms import (
    canonical_dual,
    frame_bounds,
    gabor_reconstruct,
    stft_grid,
    stft_slabs,
    tf_shift,
)
from cyclictf.verify import VERIFY_SUITES, channel_modulus_cases, channel_modulus_residual

from dense_channel import channel_entries
from modulus_oracle import inverse_map_loop, pair_loop

GRIDS = (4, 8, 16)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestCriterion1ExactIdentities:
    TOL = 1e-10
    SEEDS = 20  # per grid; at least 100 random draws per identity and grid

    def test_exact_identity_suite(self):
        # the verify suites at their exact sets; criterion 2 covers channel-modulus
        worst = {
            name: max(suite(n, np.random.default_rng([1000 + n, seed]))
                      for n in GRIDS for seed in range(self.SEEDS))
            for name, suite in VERIFY_SUITES.items()
            if name != "channel-modulus"
        }
        bad = {k: v for k, v in worst.items() if not v < self.TOL}
        detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        report("criterion 1 (exact identities)", not bad, detail)
        assert len(worst) == 6
        assert not bad, f"identities above tolerance: {bad}"


class TestCriterion2ChannelModulusIdentity:
    TOL = 1e-10

    def test_exhaustive_at_n8(self):
        n = 8
        rng = np.random.default_rng(2)
        sigma = rand_complex(rng, n, n)
        results = {}
        for tau in (0.0, 1.0):
            worst, pairs = pair_loop(n, tau, gaussian_window(n), sigma, False)
            assert pairs == n**4
            results[f"tau={tau} all pairs"] = worst
        worst, pairs = pair_loop(n, 0.5, comb_window(n), sigma, True)
        assert pairs == n**4 // 4
        results["tau=0.5 even pairs"] = worst
        worst, pairs = inverse_map_loop(n, 0.5, comb_window(n), sigma)
        assert pairs > 0
        results["tau=0.5 inverse map"] = worst
        bad = {k: v for k, v in results.items() if not v < self.TOL}
        report(
            "criterion 2 (channel modulus identity)",
            not bad,
            ", ".join(f"{k}: {v:.2e}" for k, v in results.items()),
        )
        assert not bad

    @pytest.mark.parametrize("n", [4, 8, 9, 15, 16, 21])
    def test_verify_oracle_matches_pair_loop(self, n):
        # the verify suite's streamed form against the scalar pair loop above,
        # on every case the suite runs at this grid; the channel blocks are
        # other matrix products than the loop's full channel, and |.| of an
        # array and of a Python complex may differ in the last bit
        rng = np.random.default_rng(20 + n)
        for tau, phi, label in channel_modulus_cases(n):
            sigma = rand_complex(rng, n, n)
            slabs = stft_slabs(sigma, tau_wigner(phi, phi, tau))
            channel = operator_channel(op_tau(sigma, tau), phi)
            residual, pairs = channel_modulus_residual(channel, tau, slabs)
            worst, loop_pairs = pair_loop(n, tau, phi, sigma, False)
            assert pairs == loop_pairs, (tau, label)
            expected = worst / np.abs(channel_entries(channel)).max()
            assert abs(residual - expected) <= 1e-14, (tau, label)

    @pytest.mark.parametrize(
        "n, tau, window",
        [(10, 0.5, gaussian_window), (8, 0.25, gaussian_window), (12, 0.5, comb_window),
         (8, 0.75, gaussian_window), (9, 1 / 3, gaussian_window)],
    )
    def test_verify_oracle_matches_pair_loop_off_identity(self, n, tau, window):
        # where the identity is not exact the residual is of order 1, so
        # agreement within 1e-14 shows the streamed residual is the pair
        # loop's, and not just that both are tiny; tau = 1/4 also puts
        # off-grid pairs in slabs that compare nothing for them, and
        # tau = 3/4 and 1/3 take runs of several pairs along w0 and along z0
        phi = window(n)
        sigma = rand_complex(np.random.default_rng(5), n, n)
        slabs = stft_slabs(sigma, tau_wigner(phi, phi, tau))
        channel = operator_channel(op_tau(sigma, tau), phi)
        residual, pairs = channel_modulus_residual(channel, tau, slabs)
        worst, loop_pairs = pair_loop(n, tau, phi, sigma, False)
        assert pairs == loop_pairs
        expected = worst / np.abs(channel_entries(channel)).max()
        assert expected > 1e-2
        assert abs(residual - expected) <= 1e-14

    @staticmethod
    def _suite_case(n, tau=0.5, sigma=None):
        # the suite's case at tau, with |V_Phi sigma| as one array to nudge
        # and the residual's scale max |entries| of the full channel
        (phi,) = [phi for case_tau, phi, _label in channel_modulus_cases(n) if case_tau == tau]
        if sigma is None:
            sigma = rand_complex(np.random.default_rng(3), n, n)
        mags = np.abs(stft_grid(sigma, tau_wigner(phi, phi, tau)))
        channel = operator_channel(op_tau(sigma, tau), phi)
        return channel, mags, np.abs(channel_entries(channel)).max()

    def test_verify_oracle_sees_one_exact_pair(self):
        n, delta = 9, 1e-6
        channel, mags, scale = self._suite_case(n)
        base, _ = channel_modulus_residual(channel, 0.5, mags)
        assert base < self.TOL
        # w = (0, 0), z = (2, 2): T_tau(w, z) = (1, 1) and J(w - z) = (-2, 2)
        nudged = mags.copy()
        nudged[1, 1, n - 2, 2] += delta * scale
        residual, _ = channel_modulus_residual(channel, 0.5, nudged)
        # the pair's mismatch is delta relative to the full channel's max |entry|
        assert residual == pytest.approx(delta, rel=1e-6)

    def test_verify_oracle_sees_one_exact_pair_at_tau_one(self):
        # tau = 1 puts every w0 of one z0 in the slab p1 = z0, as one run
        n, delta = 9, 1e-6
        channel, mags, scale = self._suite_case(n, 1.0)
        base, _ = channel_modulus_residual(channel, 1.0, mags)
        assert base < self.TOL
        # w = (0, 0), z = (2, 2): T_tau(w, z) = (2, 0) and J(w - z) = (-2, 2)
        nudged = mags.copy()
        nudged[2, 0, n - 2, 2] += delta * scale
        residual, _ = channel_modulus_residual(channel, 1.0, nudged)
        assert residual == pytest.approx(delta, rel=1e-6)

    def test_verify_oracle_scales_by_the_full_channel(self):
        # Op = pi(1, 0) with the comb window has its channel on the odd-sum
        # pairs, which tau = 1/2 never compares; the scale still counts them
        n, delta = 8, 1e-6
        shift = np.stack([tf_shift((1, 0), e) for e in np.eye(n)], axis=1)
        sigma = dequantize(shift, 0.5)
        assert np.abs(op_tau(sigma, 0.5) - shift).max() < self.TOL
        channel, mags, scale = self._suite_case(n, sigma=sigma)
        base, _ = channel_modulus_residual(channel, 0.5, mags)
        assert base < self.TOL
        nudged = mags.copy()
        nudged[1, 1, n - 2, 2] += delta * scale  # the exact pair w = (0, 0), z = (2, 2)
        residual, _ = channel_modulus_residual(channel, 0.5, nudged)
        assert residual == pytest.approx(delta, rel=1e-6)

    def test_verify_oracle_skips_odd_sum_pairs(self):
        # at tau = 1/2 a pair with w + z odd has no grid point T_tau(w, z), so
        # the STFT points only such pairs would meet are never read
        n = 9
        channel, mags, scale = self._suite_case(n)
        base, pairs = channel_modulus_residual(channel, 0.5, mags)
        reached = np.zeros(mags.shape, dtype=bool)
        for w0, w1, z0, z1 in np.ndindex(n, n, n, n):
            if (w0 + z0) % 2 == 0 and (w1 + z1) % 2 == 0:
                reached[(w0 + z0) // 2, (w1 + z1) // 2, (w1 - z1) % n, (z0 - w0) % n] = True
        assert pairs == reached.sum()  # each exact pair meets its own point
        nudged = mags.copy()
        nudged[np.unravel_index(np.argmin(reached), reached.shape)] += 1e-6 * scale
        assert channel_modulus_residual(channel, 0.5, nudged) == (base, pairs)


class TestCriterion3FrameMachinery:
    def test_frames(self):
        checks = {}
        phi = gaussian_window(8) * 1.7  # non-unit norm: bounds scale with energy
        rep = frame_bounds(phi, Lattice(1, 1))
        target = 8 * np.linalg.norm(phi) ** 2
        checks["tight"] = abs(rep.lower - target) < 1e-10 and abs(rep.upper - target) < 1e-10

        checks["undersampled"] = not frame_bounds(gaussian_window(4), Lattice(2, 4)).is_frame

        rng = np.random.default_rng(3)
        phi16 = gaussian_window(16)
        lat = Lattice(2, 2)
        dual = canonical_dual(phi16, lat)
        err = 0.0
        for _ in range(5):
            f = rand_complex(rng, 16)
            err = max(err, np.abs(gabor_reconstruct(f, phi16, dual, lat) - f).max())
        checks["reconstruction"] = err < 1e-8

        ok = all(checks.values())
        report("criterion 3 (frame machinery)", ok, f"reconstruction err {err:.2e}")
        assert ok, checks


class TestCriterion4AlmostDiagAssociation:
    def test_rank_correlation(self):
        n = 16
        corpus = graded_corpus(n, 10, 2024)
        phi = gaussian_window(n)
        lat = Lattice(2, 2)
        rhos = {}
        for s in (0.0, 1.0):
            reports = [almost_diag_report(sig, 0.5, phi, lat, s) for sig in corpus]
            rho = spearman_rank(
                [r.envelope_l1 for r in reports], [r.class_norm for r in reports]
            )
            rhos[s] = rho
        ok = all(r >= 0.9 for r in rhos.values())
        report(
            "criterion 4 (almost-diagonalization association)",
            ok,
            ", ".join(f"s={s}: rho={r:.3f}" for s, r in rhos.items()),
        )
        assert ok, rhos


class TestCriterion5FclassConcentration:
    @staticmethod
    def envelope_masses(n, symbol, v):
        """Difference- and sum-envelope masses of the symbol's tau = 1/2 channel."""
        chan = operator_channel(op_tau(symbol, 0.5), gaussian_window(n))
        return ell1v(envelope(chan, "difference"), v), ell1v(envelope(chan, "sum"), v)

    def test_point_mass_concentration_factor(self):
        v0 = polynomial_weight(0.0)
        # the ceiling is the constant symbol's reverse contrast (the identity's
        # channel, reflected z -> -z, is the exact parity's)
        # N = 21: smallest odd grid whose ceiling N/2 reaches the factor 10;
        # there the point mass is the exact parity and sits on the ceiling
        diff_d, sum_d = self.envelope_masses(21, delta_symbol(21), v0)
        diff_o, sum_o = self.envelope_masses(21, np.ones((21, 21)), v0)
        factor21, ceiling21 = diff_d / sum_d, sum_o / diff_o
        on_ceiling = np.isclose(factor21, ceiling21, rtol=1e-10, atol=0.0)
        # N = 16: the even grid's ceiling is below 10 (a named limit), and the
        # point mass still concentrates along the sum, short of that ceiling
        diff_d, sum_d = self.envelope_masses(16, delta_symbol(16), v0)
        diff_o, sum_o = self.envelope_masses(16, np.ones((16, 16)), v0)
        factor16, ceiling16 = diff_d / sum_d, sum_o / diff_o
        rev_ok = sum_o > diff_o

        ok = (
            factor21 >= 10.0 and on_ceiling and ceiling16 < 10.0
            and 1.0 < factor16 < ceiling16 and rev_ok
        )
        report(
            "criterion 5 (F-class concentration)",
            ok,
            f"N=21 delta diff/sum = {factor21:.2f} (needs >= 10, ceiling {ceiling21:.2f}); "
            f"N=16 delta diff/sum = {factor16:.2f} (ceiling {ceiling16:.2f}), reverse ordering {rev_ok}",
        )
        assert rev_ok
        assert factor21 >= 10.0, f"N=21 point-mass contrast {factor21:.2f} is below the factor 10"
        assert on_ceiling, (
            f"N=21 point-mass contrast {factor21:.12g} differs from the parity ceiling {ceiling21:.12g}"
        )
        assert ceiling16 < 10.0, (
            f"N=16 ceiling {ceiling16:.2f}: the even grid's 2-coset limit (7.28 < 10) no longer holds"
        )
        assert 1.0 < factor16 < ceiling16, (
            f"N=16 point-mass contrast {factor16:.2f} left (1, ceiling {ceiling16:.2f})"
        )

    def test_concentration_clears_factor_on_odd_grid(self):
        # same pipeline, odd grid and polynomial weight: the contrast is real
        n = 15
        phi = gaussian_window(n)
        v1 = polynomial_weight(1.0)
        chan = operator_channel(op_tau(delta_symbol(n), 0.5), phi)
        factor = ell1v(envelope(chan, "difference"), v1) / ell1v(envelope(chan, "sum"), v1)
        assert factor >= 10.0


class TestCriterion6Boundedness:
    def test_ratio_bound_and_association(self):
        n = 16
        corpus = graded_corpus(n, 10, 2024)
        phi = gaussian_window(n)
        ratios = [boundedness_report(op_tau(s, 0.5), 20, 7) for s in corpus]
        bounds = [sjostrand_norm(symbol_sups(s, tau_wigner(phi, phi, 0.5)), polynomial_weight(0.0)) for s in corpus]
        corpus_constant = 0.032  # recorded once from the build-time run
        bounded = all(r <= corpus_constant * b for r, b in zip(ratios, bounds))
        rho = spearman_rank(ratios, bounds)
        ok = bounded and rho >= 0.9
        report(
            "criterion 6 (boundedness)",
            ok,
            f"C = {corpus_constant}, max ratio/bound = "
            f"{max(r / b for r, b in zip(ratios, bounds)):.4f}, rho = {rho:.3f}",
        )
        assert ok


class TestCriterion7WienerExperiment:
    def test_perturbed_identity_inverse(self):
        n = 16
        tau = 0.5
        sigma = np.ones((n, n), dtype=complex) + 0.1 * gaussian_symbol(n, 2.0)
        operator = op_tau(sigma, tau)
        condition = np.linalg.cond(operator)
        invertible = condition < 1e10
        inverse = np.linalg.inv(operator)

        phi = gaussian_window(n)
        inv_mass = ell1v(
            envelope(operator_channel(inverse, phi), "difference"), polynomial_weight(1.0)
        )
        band = (85.0, 110.0)  # frozen from the build-time measurement (97.4)
        in_band = band[0] <= inv_mass <= band[1]

        b = dequantize(inverse, 1.0 - tau)
        resid = np.abs(op_tau(b, 1.0 - tau) @ operator - np.eye(n)).max()

        # complementary-quantization inverse away from the symmetric point
        sigma2 = np.ones((n, n), dtype=complex) + 0.1 * gaussian_symbol(n, 2.0)
        op2 = op_tau(sigma2, 0.3)
        b2 = dequantize(np.linalg.inv(op2), 0.7)
        resid2 = np.abs(op_tau(b2, 0.7) @ op2 - np.eye(n)).max()

        ok = invertible and in_band and resid < 1e-9 and resid2 < 1e-9
        report(
            "criterion 7 (Wiener experiment)",
            ok,
            f"cond {condition:.3f}, inverse envelope {inv_mass:.2f} in {band}, "
            f"residuals {resid:.2e} / {resid2:.2e}",
        )
        assert ok


class TestCriterion8CompositionSymmetry:
    def test_composition_and_associativity(self):
        n = 8
        rng = np.random.default_rng(8)
        worst_comp = 0.0
        for tau in (0.25, 0.5, 0.75):
            a, b = rand_complex(rng, n, n), rand_complex(rng, n, n)
            product = op_tau(a, tau) @ op_tau(b, 1.0 - tau)
            c = dequantize(product, 0.5)
            worst_comp = max(worst_comp, np.abs(op_tau(c, 0.5) - product).max())

        a, b, c = (rand_complex(rng, n, n) for _ in range(3))
        lhs = twisted_product(twisted_product(a, b), c)
        rhs = twisted_product(a, twisted_product(b, c))
        assoc = np.abs(lhs - rhs).max()

        ok = worst_comp < 1e-10 and assoc < 1e-9
        report(
            "criterion 8 (composition symmetry)",
            ok,
            f"composition residual {worst_comp:.2e}, associativity {assoc:.2e}",
        )
        assert ok


class TestCriterion9CliDeterminism:
    def test_verify_and_sweep_reproduce_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "n": 16,
                    "tau": [0.2, 0.5, 0.8],
                    "symbol": {"name": "random-seeded", "seed": 5},
                    "seed": 5,
                    "trials": 5,
                }
            )
        )
        outs = []
        for run in ("a", "b"):
            assert main(["verify", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        verify_ok = outs[0] == outs[1]

        blobs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert main(["sweep", "--config", str(cfg), "--out", str(out_dir), "--quiet"]) == 0
            capsys.readouterr()
            blobs.append((out_dir / "sweep.csv").read_bytes())
        sweep_ok = blobs[0] == blobs[1]

        ok = verify_ok and sweep_ok
        report(
            "criterion 9 (CLI determinism)",
            ok,
            f"verify bytes equal: {verify_ok}, sweep bytes equal: {sweep_ok}",
        )
        assert ok

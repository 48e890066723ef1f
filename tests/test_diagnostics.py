import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictf.diagnostics import (
    ChannelMatrix,
    almost_diag_report,
    boundedness_report,
    composition_symmetry_check,
    covariance_check,
    envelope,
    envelopes,
    fclass_mode,
    operator_channel,
    spearman_rank,
    wiener_experiment,
)
from cyclictf.generators import (
    comb_window,
    delta_symbol,
    gaussian_symbol,
    gaussian_window,
    graded_corpus,
    rand_complex,
    random_symbol,
    separable_x_symbol,
)
from cyclictf.normbank import ell1v, fsjostrand_norm, symbol_sups
from cyclictf.phasespace import (
    J_MATRIX,
    Lattice,
    btau_matrix,
    polynomial_weight,
    utau_matrix,
)
from cyclictf.quantize import (
    convert_symbol,
    dequantize,
    op_tau,
    spreading_function,
    symbol_from_spreading,
    tau_wigner,
)
from cyclictf.transforms import shift_bank, stft, tf_shift

from dense_channel import channel_entries, dense_channel, recording_rows
from modulus_oracle import inverse_map_loop, pair_loop

V0 = polynomial_weight(0.0)
V1 = polynomial_weight(1.0)


# The envelope as it was before every mode shared one (P, Q) bin rule: an
# integer cast for difference/sum, float nearest-index tables for
# shifted/ttau.  Kept unchanged as the oracle for the one-path envelope.


def _nearest_indices(vals: np.ndarray, n: int) -> np.ndarray:
    """Nearest grid point of real coordinates; ties toward the smaller representative."""
    r = np.mod(vals, n)
    lo = np.floor(r)
    frac = r - lo
    lo_idx = lo.astype(np.int64) % n
    hi_idx = (lo.astype(np.int64) + 1) % n
    tie = np.minimum(lo_idx, hi_idx)
    out = np.where(frac < 0.5 - 1e-9, lo_idx, np.where(frac > 0.5 + 1e-9, hi_idx, tie))
    return out.astype(np.int64)


def envelope_oracle(channel: ChannelMatrix, mode: str, param=None) -> np.ndarray:
    """Decay envelope table of a channel matrix.

    mode "difference" bins |entry(w, z)| by w - z, "sum" by w + z, "shifted"
    by the nearest grid point of w - A z for the 2x2 map A given as param,
    and "ttau" by the nearest grid point of the convex pairing of (w, z) at
    the tau given as param (the weak endpoint form).
    """
    n = channel.n
    pts = np.asarray(channel.lattice.points(n), dtype=float)
    wx = pts[:, 0][:, None]
    ww = pts[:, 1][:, None]
    zx = pts[:, 0][None, :]
    zw = pts[:, 1][None, :]
    if mode == "difference":
        k1 = (wx - zx).astype(np.int64) % n
        k2 = (ww - zw).astype(np.int64) % n
    elif mode == "sum":
        k1 = (wx + zx).astype(np.int64) % n
        k2 = (ww + zw).astype(np.int64) % n
    elif mode == "shifted":
        if np.shape(param) != (2, 2):
            raise ValueError(f"mode='shifted' needs a 2x2 shift map, not {np.shape(param)}")
        a = np.asarray(param, dtype=float)
        k1 = _nearest_indices(wx - (a[0, 0] * zx + a[0, 1] * zw), n)
        k2 = _nearest_indices(ww - (a[1, 0] * zx + a[1, 1] * zw), n)
    elif mode == "ttau":
        if param is None:
            raise ValueError("weak envelope needs tau")
        t = param
        k1 = _nearest_indices((1 - t) * wx + t * zx, n)
        k2 = _nearest_indices(t * ww + (1 - t) * zw, n)
    else:
        raise ValueError(f"unknown envelope mode {mode!r}")
    table = np.zeros((n, n))
    np.maximum.at(table, (k1.ravel(), k2.ravel()), np.abs(channel_entries(channel)).ravel())
    return table


class TestChannelMatrix:
    def test_identity_symbol_reduces_to_ambiguity(self):
        n = 8
        phi = gaussian_window(n)
        chan = operator_channel(op_tau(np.ones((n, n)), 0.5), phi)
        amb = np.abs(stft(phi, phi))
        pts = chan.lattice.points(n)
        k = (pts[:, None, :] - pts[None, :, :]) % n  # w - z
        assert np.allclose(np.abs(channel_entries(chan)), amb[k[..., 0], k[..., 1]], rtol=0, atol=1e-10)

    def test_entries_match_direct_recomputation(self):
        n = 8
        phi = gaussian_window(n)
        sigma = random_symbol(n, 0)
        t = op_tau(sigma, 0.3)
        chan = operator_channel(op_tau(sigma, 0.3), phi)
        entries = channel_entries(chan)
        rng = np.random.default_rng(1)
        pts = chan.lattice.points(n)
        for _ in range(20):
            wi, zi = rng.integers(0, len(pts), size=2)
            w, z = pts[wi], pts[zi]
            direct = np.vdot(tf_shift(w, phi), t @ tf_shift(z, phi))
            assert entries[wi, zi] == pytest.approx(direct, abs=1e-12)

    def test_lattice_restriction_of_full(self):
        n = 8
        phi = gaussian_window(n)
        sigma = random_symbol(n, 2)
        full = operator_channel(op_tau(sigma, 0.5), phi)
        lat = Lattice(2, 4)
        sub = operator_channel(op_tau(sigma, 0.5), phi, lat)
        assert full.lattice == Lattice(1, 1)
        rows = lat.points(n) @ [n, 1]  # full-grid index x N + omega
        assert np.allclose(channel_entries(sub), channel_entries(full)[np.ix_(rows, rows)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lattice", [Lattice(1, 1), Lattice(2, 2)], ids=["full", "lattice"])
    def test_holds_the_analysis_operator(self, lattice):
        # C_phi is the conjugated bank of shifted windows
        n = 8
        phi = gaussian_window(n)
        chan = operator_channel(op_tau(random_symbol(n, 3), 0.25), phi, lattice)
        assert np.array_equal(chan.analysis, shift_bank(phi, lattice.points(n)).conj().T)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            operator_channel(op_tau(np.ones((4, 4)), 0.5), np.zeros(4))

    def test_operator_channel_zero_window_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            operator_channel(np.eye(4, dtype=complex), np.zeros(4))


class TestModulusIdentity:
    """|channel entry| equals the symbol-STFT magnitude where the pairing is on-grid."""

    def _check(self, n, tau, phi, require_even=False):
        return pair_loop(n, tau, phi, random_symbol(n, 3), require_even)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_endpoints_generic_window(self, tau):
        worst, pairs = self._check(8, tau, gaussian_window(8))
        assert pairs == 8**4
        assert worst < 1e-10

    def test_half_point_odd_grid(self):
        worst, pairs = self._check(9, 0.5, gaussian_window(9), require_even=True)
        assert pairs > 0
        assert worst < 1e-10

    def test_half_point_comb_window(self):
        worst, pairs = self._check(8, 0.5, comb_window(8), require_even=True)
        assert pairs == 8**4 // 4
        assert worst < 1e-10

    def test_quarter_point_comb_window(self):
        # tau = 1/4 needs the step-4 comb (ambiguity on (4Z)^2); N = 16
        worst, pairs = self._check(16, 0.25, comb_window(16, step=4))
        assert pairs > 0
        assert worst < 1e-10

    def test_half_point_generic_window_obstructed_on_even_grids(self):
        # characterization, not a wish: on even grids with a generic window
        # the half-point identity cannot hold (the required phase match has
        # nonzero holonomy around the frequency cycles), so the residual is
        # order one.  A silent pass here would mean the calculus changed.
        worst, pairs = self._check(8, 0.5, gaussian_window(8), require_even=True)
        assert pairs == 8**4 // 4
        assert worst > 0.1

    def test_inverse_map_direction(self):
        # read the identity backwards: (x, y) with the paired points on-grid
        n = 8
        worst, checked = inverse_map_loop(n, 0.5, comb_window(n), random_symbol(n, 4))
        assert worst < 1e-10
        assert checked > 0


class TestEnvelope:
    def test_single_entry_difference(self):
        entries = np.zeros((64, 64), dtype=complex)
        entries[1 * 8 + 2, 4 * 8 + 5] = 3.0  # w = (1, 2), z = (4, 5), full-grid index x N + omega
        chan = dense_channel(entries=entries, lattice=Lattice(1, 1), n=8)
        env = envelope(chan, "difference")
        expected = np.zeros((8, 8))
        expected[(1 - 4) % 8, (2 - 5) % 8] = 3.0
        assert np.array_equal(env, expected)

    def test_identity_symbol_difference_even(self):
        n = 8
        chan = operator_channel(op_tau(np.ones((n, n)), 0.5), gaussian_window(n))
        h = envelope(chan, "difference")
        for k1 in range(n):
            for k2 in range(n):
                assert h[k1, k2] == pytest.approx(h[(-k1) % n, (-k2) % n], abs=1e-10)

    def test_identity_symbol_peak_is_window_energy(self):
        n = 8
        phi = gaussian_window(n)
        chan = operator_channel(op_tau(np.ones((n, n)), 0.5), phi)
        h = envelope(chan, "difference")
        assert h[0, 0] == pytest.approx(np.linalg.norm(phi) ** 2, abs=1e-10)

    def test_shifted_minus_identity_equals_sum(self):
        n = 8
        chan = operator_channel(op_tau(delta_symbol(n), 0.5), gaussian_window(n))
        shifted = envelope(chan, "shifted", utau_matrix(0.5))
        summed = envelope(chan, "sum")
        assert np.array_equal(shifted, summed)

    def test_max_property(self):
        n = 8
        chan = operator_channel(op_tau(random_symbol(n, 5), 0.3), gaussian_window(n))
        h = envelope(chan, "difference")
        pts = chan.lattice.points(n)
        k = (pts[:, None, :] - pts[None, :, :]) % n  # w - z
        assert np.all(h[k[..., 0], k[..., 1]] >= np.abs(channel_entries(chan)) - 1e-12)

    def test_nearest_grid_tie_break(self):
        # w - A z = (0.5, 0): candidates 0 and 1 tie, smaller representative wins
        entries = np.zeros((64, 64), dtype=complex)
        entries[1 * 8, 1 * 8] = 1.0  # w = z = (1, 0)
        chan = dense_channel(entries=entries, lattice=Lattice(1, 1), n=8)
        env = envelope(chan, "shifted", np.diag([0.5, 1.0]))
        assert env[0, 0] == 1.0
        assert env.sum() == 1.0

    def test_needs_shift_map(self):
        chan = operator_channel(op_tau(np.ones((4, 4)), 0.5), gaussian_window(4))
        with pytest.raises(ValueError, match="shift map"):
            envelope(chan, "shifted")
        with pytest.raises(ValueError, match=r"2x2 shift map, not \(3, 3\)"):
            envelope(chan, "shifted", np.eye(3))
        with pytest.raises(ValueError, match="mode"):
            envelope(chan, "diagonal")

    def test_weak_mode_needs_tau(self):
        chan = operator_channel(np.eye(4, dtype=complex), gaussian_window(4))
        with pytest.raises(ValueError, match=r"tau, in \[0, 1\], not None"):
            envelope(chan, "ttau")

    @pytest.mark.parametrize("tau", [np.nan, -0.25, 1.5, np.inf])
    def test_channel_tau_outside_unit_interval_refused(self, tau):
        # a NaN tau would reach the ttau bins as the int32 minimum
        chan = dense_channel(entries=np.eye(16), lattice=Lattice(1, 1), n=4)
        with pytest.raises(ValueError, match=r"tau, in \[0, 1\]"):
            envelope(chan, "ttau", tau)


ORACLE_TAUS = sorted({j / m for m in range(1, 9) for j in range(m + 1)} | {1 / np.pi})


@st.composite
def envelope_cases(draw):
    """A random channel on the full grid or a lattice, a tau and two diagonal 2x2 maps."""
    n = draw(st.integers(2, 24))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lattice = Lattice(draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))
    tau = draw(st.sampled_from(ORACLE_TAUS))
    # entries are multiples of 1/8, so w - A z hits exact ties
    eighths = draw(st.lists(st.integers(-16, 16), min_size=2, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (lattice.count(n), lattice.count(n))
    entries = rand_complex(rng, *size)
    chan = dense_channel(entries=entries, lattice=lattice, n=n)
    return chan, tau, [np.diag(eighths) / 8, np.diag(3 * rng.standard_normal(2))]


def assert_shared_pass_matches_oracle(chan, runs):
    """One `envelopes` pass over every (mode, param) run, each table bit for bit the oracle's."""
    for (mode, a), env in zip(runs, envelopes(chan, runs)):
        assert np.array_equal(env, envelope_oracle(chan, mode, a)), (mode, a)


class TestEnvelopeOracle:
    """The one (p, q) bin rule gives bit for bit the old per-mode envelope."""

    @settings(max_examples=60, deadline=None)
    @given(case=envelope_cases())
    def test_every_mode_equals_old_envelope(self, case):
        chan, tau, maps = case
        maps = maps + ([utau_matrix(tau)] if 0 < tau < 1 else [])
        runs = [("difference", None), ("sum", None), ("ttau", tau)]
        runs += [("shifted", a) for a in maps]
        for mode, a in runs:
            new = envelope(chan, mode, a)
            assert new.shape == (chan.n, chan.n)
            assert np.array_equal(new, envelope_oracle(chan, mode, a)), (mode, a)
        # every mode at once, from one pass over the channel's rows
        shared = envelopes(chan, runs)
        assert len(shared) == len(runs)
        for (mode, a), env in zip(runs, shared):
            assert np.array_equal(env, envelope_oracle(chan, mode, a)), (mode, a)

    def test_wrap_tie_goes_to_bin_zero(self):
        # w - A z = (7 + 2/4, 0) = (N - 1/2, 0): bins N - 1 and 0 tie, and 0
        # is the smaller canonical representative
        entries = np.zeros((64, 64), dtype=complex)
        entries[7 * 8, 2 * 8] = 1.0  # w = (7, 0), z = (2, 0)
        chan = dense_channel(entries=entries, lattice=Lattice(1, 1), n=8)
        a = np.diag([-0.25, 1.0])
        table = envelope(chan, "shifted", a)
        assert table[0, 0] == 1.0
        assert table.sum() == 1.0
        assert np.array_equal(table, envelope_oracle(chan, "shifted", a))

    @pytest.mark.parametrize("n", [12, 15, 16])
    def test_dense_shift_map_on_every_lattice(self, n):
        # a dense map mixes both coordinates of z, so no envelope takes it; the
        # non-dyadic diagonal maps leave no bin sum exact in binary
        a = np.array([[1 / 3, 1 / np.pi], [-2 / np.pi, 5 / 3]])
        rng = np.random.default_rng(n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for lattice in (Lattice(da, db) for da in divisors for db in divisors):
            size = (lattice.count(n), lattice.count(n))
            entries = rand_complex(rng, *size)
            chan = dense_channel(entries=entries, lattice=lattice, n=n)
            for dense in (a, -a.T):
                with pytest.raises(ValueError, match="diagonal shift map"):
                    envelope(chan, "shifted", dense)
            diagonal = np.diag([1 / 3, 5 / 3])
            for mode, shift in (("shifted", diagonal), ("shifted", -diagonal), ("ttau", 1 / np.pi)):
                new = envelope(chan, mode, shift)
                assert np.array_equal(new, envelope_oracle(chan, mode, shift)), (lattice, mode)

    @pytest.mark.parametrize("lattice", [Lattice(1, 1), Lattice(2, 4), Lattice(4, 2)])
    def test_reduce_and_scatter_in_one_pass(self, lattice):
        # every diagonal mode reduces its x-row blocks and scatters the maxima,
        # from the same blocks; J and -J are not diagonal, and are refused
        n, tau = 16, 1 / 3
        chan = operator_channel(op_tau(random_symbol(n, 3), tau), gaussian_window(n), lattice)
        runs = [("difference", None), ("ttau", tau), ("shifted", utau_matrix(tau)), ("sum", None)]
        assert_shared_pass_matches_oracle(chan, runs)
        for j in (J_MATRIX, -J_MATRIX):
            with pytest.raises(ValueError, match="diagonal shift map"):
                envelopes(chan, runs + [("shifted", j)])

    def test_one_block_per_x_row(self):
        # Lattice(2, 2) at N = 8 has 4 x-rows of 4 points: one product per x-row
        # of w, each reduced in the layout it comes in
        chan = operator_channel(op_tau(random_symbol(8, 2), 0.5), gaussian_window(8), Lattice(2, 2))
        blocks = []
        table = envelope(recording_rows(chan, blocks), "difference")
        assert blocks == [(0, 4), (4, 8), (8, 12), (12, 16)]
        assert np.array_equal(table, envelope_oracle(chan, "difference"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_map_refused(self, bad):
        chan = operator_channel(op_tau(random_symbol(8, 1), 0.5), gaussian_window(8))
        with pytest.raises(ValueError, match="finite diagonal shift map"):
            envelope(chan, "shifted", np.diag([bad, 1.0]))

    def test_peak_memory_at_n32(self, traced_peak):
        # the old difference mode peaked at 25.2 MB, shifted/ttau at 85.0 MB;
        # the one bin rule on every pair of points at 19.9 MB for every mode
        n = 32
        chan = operator_channel(op_tau(random_symbol(n, 0), 0.25), gaussian_window(n))
        for mode, a in (("difference", None), ("sum", None), ("shifted", utau_matrix(0.25)),
                        ("ttau", 0.25)):
            peak = traced_peak(envelope, chan, mode, a)
            assert peak <= 13.5e6, (mode, peak)


class TestEll1v:
    def test_point_mass(self):
        table = np.zeros((8, 8))
        table[0, 0] = 1.0
        assert ell1v(table, polynomial_weight(3.0)) == 1.0

    def test_unweighted_is_plain_sum(self):
        rng = np.random.default_rng(6)
        table = np.abs(rng.standard_normal((8, 8)))
        assert ell1v(table, V0) == pytest.approx(table.sum())

    def test_identity_symbol_regression(self):
        # frozen at build time: s = 1 mass of the difference envelope, N = 16
        chan = operator_channel(op_tau(np.ones((16, 16)), 0.5), gaussian_window(16))
        env = envelope(chan, "difference")
        assert ell1v(env, V1) == pytest.approx(97.39998506604, rel=1e-9)

    def test_monotone_in_weight_order(self):
        chan = operator_channel(op_tau(random_symbol(8, 7), 0.5), gaussian_window(8))
        env = envelope(chan, "difference")
        assert ell1v(env, V0) <= ell1v(env, V1) <= ell1v(env, polynomial_weight(2.0))


class TestAlmostDiagReport:
    def test_identity_symbol_self_calibration(self):
        # full-grid envelope mass equals the class norm exactly for sigma == 1
        rep = almost_diag_report(np.ones((8, 8)), 0.5, gaussian_window(8), Lattice(1, 1), 0.0)
        assert rep.envelope_l1 == pytest.approx(15.522112529092, rel=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.warnings == ()  # the full grid is a tight frame

    def test_smooth_vs_rough_ordering(self):
        smooth, rough = gaussian_symbol(16, width=2.0), random_symbol(16, 8)
        smooth, rough = smooth / np.linalg.norm(smooth), rough / np.linalg.norm(rough)
        phi = gaussian_window(16)
        lat = Lattice(2, 2)
        rep_s = almost_diag_report(smooth, 0.5, phi, lat, 1.0)
        rep_r = almost_diag_report(rough, 0.5, phi, lat, 1.0)
        assert rep_s.envelope_l1 < rep_r.envelope_l1
        assert rep_s.class_norm < rep_r.class_norm

    def test_scaling_leaves_ratio_invariant(self):
        sigma = random_symbol(8, 9)
        phi = gaussian_window(8)
        rep1 = almost_diag_report(sigma, 0.3, phi, Lattice(1, 1), 1.0)
        rep2 = almost_diag_report(5.0 * sigma, 0.3, phi, Lattice(1, 1), 1.0)
        assert rep2.envelope_l1 == pytest.approx(5.0 * rep1.envelope_l1, rel=1e-9)
        assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-9)

    def test_non_frame_warning(self):
        rep = almost_diag_report(np.ones((4, 4)), 0.5, gaussian_window(4), Lattice(2, 4), 0.0)
        assert any("frame" in w for w in rep.warnings)

    def test_carries_its_envelope(self):
        sigma, phi, lat = random_symbol(8, 2), gaussian_window(8), Lattice(2, 2)
        rep = almost_diag_report(sigma, 0.3, phi, lat, 1.0)
        fresh = envelope(operator_channel(op_tau(sigma, 0.3), phi, lat), "difference")
        assert rep.envelope.shape == (8, 8)
        assert np.array_equal(rep.envelope, fresh)
        assert rep.envelope_l1 == ell1v(rep.envelope, polynomial_weight(1.0))


class TestFclassDiagReport:
    def test_delta_concentrates_on_sum_diagonal(self):
        chan = operator_channel(op_tau(delta_symbol(16), 0.5), gaussian_window(16))
        diff_mass = ell1v(envelope(chan, "difference"), V0)
        assert ell1v(envelope(chan, *fclass_mode(0.5)), V0) < diff_mass  # sum-aligned mass is the smaller one

    def test_delta_channel_shape(self):
        # the point-mass channel is peaked in the sum index and flat in the
        # difference index: peak-to-mean contrast high for sum, low for diff
        n = 16
        chan = operator_channel(op_tau(delta_symbol(n), 0.5), gaussian_window(n))
        h_sum = envelope(chan, "sum")
        h_diff = envelope(chan, "difference")
        assert h_sum.max() / h_sum.mean() > 3 * h_diff.max() / h_diff.mean()

    def test_identity_symbol_contrast_grows_with_n(self):
        # for sigma == 1 the U_tau-shifted mass outgrows the difference mass
        ratios = []
        for n in (8, 16, 32):
            chan = operator_channel(op_tau(np.ones((n, n)), 0.3), gaussian_window(n))
            diff = ell1v(envelope(chan, "difference"), V0)
            shifted = ell1v(envelope(chan, "shifted", utau_matrix(0.3)), V0)
            ratios.append(shifted / diff)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[0] > 1.0

    def test_endpoint_requires_weak_form(self):
        chan = operator_channel(op_tau(delta_symbol(8), 0.0), gaussian_window(8))
        assert fclass_mode(0.0) == ("ttau", 0.0)
        env = envelope(chan, *fclass_mode(0.0))
        assert np.isfinite(ell1v(env, V0))

    def test_utau_shift_maps_invert_each_other(self):
        for tau in (0.2, 0.5, 0.7):
            prod = utau_matrix(tau) @ utau_matrix(1 - tau)
            assert np.abs(prod - np.eye(2)).max() < 1e-12


class TestCovariance:
    def test_identity_symbol(self):
        for tau in (0.0, 0.5, 1.0):
            assert covariance_check(np.ones((8, 8)), tau) < 1e-14

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_tau_grid(self, n):
        sigma = random_symbol(n, 10)
        for tau in np.linspace(0.0, 1.0, 11):
            assert covariance_check(sigma, tau) < 1e-10

    def test_weyl_self_dual(self):
        n = 8
        sigma = random_symbol(n, 11)
        t = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(t, t) / n) / np.sqrt(n)  # the unitary DFT matrix, as the oracle
        lhs = f @ op_tau(sigma, 0.5) @ f.conj().T
        from cyclictf.quantize import rotate_symbol_j_inv

        rhs = op_tau(rotate_symbol_j_inv(sigma), 0.5)
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_two_mod_four_defect_is_one_mode(self, n):
        # N == 2 (mod 4): the defect lives in the spreading mode (N/2, N/2)
        # alone, and is absent at the endpoints
        half = n // 2
        unit = np.zeros((n, n), dtype=complex)
        unit[half, half] = 1.0
        for tau in (0.0, 1.0):
            assert covariance_check(symbol_from_spreading(unit, tau), tau) < 1e-10
        for tau in (0.3, 0.5, 1 / np.pi):
            assert covariance_check(symbol_from_spreading(unit, tau), tau) > 0.1
            coeff = spreading_function(random_symbol(n, 12), tau)
            assert covariance_check(symbol_from_spreading(coeff, tau), tau) > 1e-3
            coeff[half, half] = 0.0
            assert covariance_check(symbol_from_spreading(coeff, tau), tau) < 1e-10


class TestBoundedness:
    def test_identity_symbol_ratio_one(self):
        ones = np.ones((8, 8))
        for tau in (0.0, 0.3, 0.5, 1.0):
            rep = boundedness_report(ones, tau, gaussian_window(8), 10, 0)
            assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_unimodular_multiplier_unitary(self):
        rng = np.random.default_rng(11)
        m = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        sigma = np.tile(m[:, None], (1, 8))
        rep = boundedness_report(sigma, 0.3, gaussian_window(8), 10, 1)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_spearman_ranks_ties_by_position(self):
        # the tied 2s and 9s rank in the order they stand, as y's distinct values do
        x = [3.0, 1.0, 2.0, 2.0, 5.0, 0.0, 2.0, 2.0, 9.0, 9.0]
        y = [6.0, 1.0, 2.0, 3.0, 7.0, 0.0, 4.0, 5.0, 8.0, 9.0]
        assert spearman_rank(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_corpus_association(self):
        corpus = graded_corpus(16, 10, 2024)
        reports = [
            boundedness_report(s, 0.5, gaussian_window(16), 10, 7) for s in corpus
        ]
        rho = spearman_rank(
            [r.max_ratio for r in reports], [r.norm_bound for r in reports]
        )
        assert rho >= 0.9
        assert all(r.max_ratio <= r.norm_bound for r in reports)

    def test_nan_ratio_is_kept(self):
        # every trial's ratio is NaN: max_ratio is NaN, not the 0 the maximum starts from
        sigma = np.ones((8, 8), dtype=complex)
        sigma[0, 0] = np.nan
        rep = boundedness_report(sigma, 0.0, gaussian_window(8), 3, 0)
        assert np.isnan(rep.max_ratio)

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            boundedness_report(np.ones((4, 4)), 0.5, gaussian_window(4), 0, 0)


class TestWienerExperiment:
    def test_identity_symbol_trivial_inverse(self):
        rep = wiener_experiment(np.ones((8, 8)), 0.3, gaussian_window(8), 1.0)
        assert rep.invertible
        assert np.abs(rep.inverse_symbol - 1.0).max() < 1e-10
        assert np.abs(rep.inverse_symbol_complement - 1.0).max() < 1e-10

    def test_perturbed_identity(self):
        n = 16
        sigma = np.ones((n, n), dtype=complex) + 0.1 * gaussian_symbol(n, 2.0)
        rep = wiener_experiment(sigma, 0.5, gaussian_window(n), 1.0)
        assert rep.invertible
        assert rep.condition < 2.0
        assert np.isfinite(rep.weyl_track_norm)
        assert np.isfinite(rep.fclass_track_norm)

    def test_rank_deficient_multiplier_not_invertible(self):
        m = np.ones(8, dtype=complex)
        m[0] = 0.0
        sigma = np.tile(m[:, None], (1, 8))
        rep = wiener_experiment(sigma, 0.5, gaussian_window(8), 1.0)
        assert not rep.invertible
        assert rep.weyl_track_norm is None

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("entry, invertible", [(1e-9, True), (1e-11, False)])
    def test_condition_limit_boundary(self, tau, entry, invertible):
        # mutant: CONDITION_LIMIT 1e10 -> 1e12.  sigma(x, omega) = m(x) is multiplication by m at every
        # tau, so the condition is max |m| / min |m| = 2 / entry: 2e9 is invertible and 2e11 is not
        m = np.linspace(1.0, 2.0, 8)
        m[3] = entry
        rep = wiener_experiment(separable_x_symbol(8, values=m), tau, gaussian_window(8), 1.0)
        assert rep.invertible == invertible
        # 2e11 read 2.00004e11: the SVD resolves the singular value 1e-11 to about 1e-16
        assert rep.condition == pytest.approx(2.0 / entry, rel=1e-3)


class TestCompositionSymmetry:
    def test_left_identity(self):
        b = random_symbol(8, 12)
        rep = composition_symmetry_check(np.ones((8, 8)), b, 0.3, gaussian_window(8), 0.0)
        expected = convert_symbol(b, 0.7, 0.5)
        assert np.abs(rep.half_symbol - expected).max() < 1e-10

    def test_right_identity(self):
        a = random_symbol(8, 13)
        rep = composition_symmetry_check(a, np.ones((8, 8)), 0.3, gaussian_window(8), 0.0)
        expected = convert_symbol(a, 0.3, 0.5)
        assert np.abs(rep.half_symbol - expected).max() < 1e-10

    def test_defining_property(self):
        a, b = random_symbol(8, 14), random_symbol(8, 15)
        rep = composition_symmetry_check(a, b, 0.25, gaussian_window(8), 0.0)
        lhs = op_tau(rep.half_symbol, 0.5)
        rhs = op_tau(a, 0.25) @ op_tau(b, 0.75)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_bimodule_symbols_reproduce_products(self):
        a, b = random_symbol(8, 16), random_symbol(8, 17)
        rep = composition_symmetry_check(a, b, 0.3, gaussian_window(8), 0.0)
        assert np.abs(op_tau(rep.left_module_symbol, 0.3) - op_tau(b, 0.5) @ op_tau(a, 0.3)).max() < 1e-10
        assert np.abs(op_tau(rep.right_module_symbol, 0.3) - op_tau(a, 0.3) @ op_tau(b, 0.5)).max() < 1e-10

    def test_no_go_contrast_for_point_masses(self):
        # frozen build-time measurement: dequantizing the mixed product at the
        # symmetric midpoint keeps the Sjostrand mass smaller than the
        # Fourier-image mass of the same product forced into tau = 0.3
        n = 16
        phi = gaussian_window(n)
        a = b = delta_symbol(n)
        rep = composition_symmetry_check(a, b, 0.3, phi, 0.0)
        product = op_tau(a, 0.3) @ op_tau(b, 0.7)
        forced = dequantize(product, 0.3)
        forced_mass = fsjostrand_norm(
            symbol_sups(forced, tau_wigner(phi, phi, 0.3)), V0.compose(btau_matrix(0.3))
        )
        assert rep.weyl_class_norm == pytest.approx(0.9355948459933, rel=1e-8)
        assert forced_mass == pytest.approx(1.0733117615340, rel=1e-8)
        assert forced_mass > rep.weyl_class_norm

    def test_requires_interior_tau(self):
        with pytest.raises(ValueError, match="\\(0, 1\\)"):
            composition_symmetry_check(np.ones((4, 4)), np.ones((4, 4)), 0.0, gaussian_window(4), 0.0)

import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclictf.cli as cli
from cyclictf import diagnostics, verify
from cyclictf.generators import gaussian_window, rand_complex, random_symbol
from cyclictf.phasespace import Lattice
from cyclictf.quantize import op_tau, tau_wigner
from cyclictf.transforms import stft_grid, stft_slabs
from cyclictf.verify import (
    SUITE_TOL,
    VERIFY_SUITES,
    channel_modulus,
    channel_modulus_cases,
    channel_modulus_residual,
    duality_residual,
    fundamental_identity,
    quantize_roundtrip,
    symplectic_covariance,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# functions on each suite's sides of its identity: (module it is read from, name)
PERTURBED = {
    "fundamental-identity": [(verify, "dft")],
    "stft-inversion": [(verify, "stft_adjoint")],
    "quantize-duality": [(verify, "tau_wigner")],
    "quantize-roundtrip": [(verify, "dequantize")],
    "convert-consistency": [(verify, "convert_symbol")],
    "symplectic-covariance": [(diagnostics, "rotate_symbol_j_inv")],
    # the STFT side through its window, and the production channel's operator and bank
    "channel-modulus": [(verify, "tau_wigner"), (verify, "op_tau"), (diagnostics, "shift_bank")],
}


class TestSuites:
    @pytest.mark.parametrize("name", list(VERIFY_SUITES))
    def test_relative_error_of_1e_6_fails_the_suite(self, name, monkeypatch):
        # no suite may pass by comparing a quantity with itself
        suite = VERIFY_SUITES[name]
        assert suite(8, np.random.default_rng(0)) < SUITE_TOL
        for module, attr in PERTURBED[name]:
            exact = getattr(module, attr)
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, lambda *args, exact=exact, **kwargs: (1 + 1e-6) * exact(*args, **kwargs))
                assert suite(8, np.random.default_rng(0)) > SUITE_TOL, attr

    def test_fundamental_identity_residual_does_not_grow_with_n(self):
        # the phase reads x omega mod N: with x omega up to (N - 1)^2 in the
        # exponent the residual grew to 2.0e-13 at N = 256
        assert fundamental_identity(256, np.random.default_rng(0)) < 1e-14

    def test_symplectic_covariance_residual_at_n256(self):
        # F Op F* by FFT along each axis; the two dense N^3 products with the
        # DFT matrix left 4.2e-14 at N = 256
        assert symplectic_covariance(256, np.random.default_rng(0)) < 2e-14

    def test_duality_residual_is_relative_to_the_cauchy_schwarz_bound(self):
        # g orthogonal to Op_{1/2}(sigma) f leaves both sides rounding noise: relative to
        # |<g, Op f>| the residual would read 6.3, relative to ||sigma|| ||W_{1/2}(g, f)|| 1.9e-17
        rng = np.random.default_rng(1)
        sigma, f, g = rand_complex(rng, 8, 8), rand_complex(rng, 8), rand_complex(rng, 8)
        image = op_tau(sigma, 0.5) @ f
        g -= np.vdot(image, g) / np.vdot(image, image) * image
        assert duality_residual(sigma, f, g, 0.5) < 1e-15
        assert duality_residual(0 * sigma, 0 * f, 0 * g, 0.5) == 0.0  # a guarded scale, not 0/0

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_duality_residual_reads_a_known_gap(self, tau, monkeypatch):
        # mutant: the residual divided by a further N.  Op + c g f^H opens the gap c ||f||^2 ||g||^2,
        # and ||W_tau(g, f)|| = ||f|| ||g|| / sqrt(N), so the residual is c ||f|| ||g|| sqrt(N) / ||sigma||
        n, c = 8, 1e-3
        rng = np.random.default_rng(2)
        sigma, f, g = rand_complex(rng, n, n), rand_complex(rng, n), rand_complex(rng, n)
        monkeypatch.setattr(verify, "op_tau", lambda s, t: op_tau(s, t) + c * np.outer(g, f.conj()))
        expected = c * np.linalg.norm(f) * np.linalg.norm(g) * np.sqrt(n) / np.linalg.norm(sigma)
        assert duality_residual(sigma, f, g, tau) == pytest.approx(expected, rel=0.01)

    def test_default_suites_pin_their_taus(self, monkeypatch):
        # mutant: the quantize-duality suite at tau in {0, 1} only.  Each suite's residual calls are
        # recorded, so the taus and the number of cases `cyclictf verify` runs are fixed here
        calls = []

        def record(module, name, *taus):
            exact = getattr(module, name)

            def residual(*args):
                calls.append((name, *(args[i] for i in taus)))
                return exact(*args)

            monkeypatch.setattr(module, name, residual)

        record(verify, "duality_residual", 3)
        record(verify, "roundtrip_residual", 1)
        record(verify, "convert_residual", 1, 2)
        record(diagnostics, "covariance_check", 1)
        runs = {
            verify.quantize_duality: [("duality_residual", tau) for tau in (0.0, 0.3, 0.5, 1.0) for _ in range(6)],
            verify.quantize_roundtrip: [("roundtrip_residual", tau) for tau in (0.0, 0.25, 1 / 3, 0.5, 1 / np.pi, 1.0)],
            verify.convert_consistency: [("convert_residual", *pair) for pair in
                                         ((0.0, 0.5), (0.3, 0.8), (0.5, 1.0), (0.25, 0.25), (0.7, 0.2))],
            verify.symplectic_covariance: [("covariance_check", tau) for tau in (0.0, 0.3, 0.5, 1.0) for _ in range(6)],
        }
        for suite, expected in runs.items():
            calls.clear()
            assert suite(8, np.random.default_rng(0)) < SUITE_TOL
            assert calls == expected, suite.__name__
        calls.clear()
        symplectic_covariance(6, np.random.default_rng(0))  # N == 2 (mod 4): the endpoints only
        assert calls == [("covariance_check", tau) for tau in (0.0, 1.0) for _ in range(6)]


class TestNaNResiduals:
    # a NaN residual must fail its suite: the builtin max keeps its first
    # argument when the second is NaN, so it would drop one that is not first

    @staticmethod
    def _nan_at_half(patch):
        exact = verify.dequantize

        def dequantize(operator, tau):
            out = exact(operator, tau)
            if tau == 0.5:
                out[0, 0] = np.nan
            return out

        patch.setattr(verify, "dequantize", dequantize)

    def test_suite_keeps_a_nan_case(self, monkeypatch):
        # tau = 1/2 is the fourth of quantize-roundtrip's six cases
        self._nan_at_half(monkeypatch)
        assert np.isnan(quantize_roundtrip(8, np.random.default_rng(0)))

    def test_cli_fails_a_nan_suite(self, monkeypatch, tmp_path, capsys):
        self._nan_at_half(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 8, "suites": "quantize-roundtrip"}))
        assert cli.main(["verify", "--config", str(config)]) == 1
        row = capsys.readouterr().out.splitlines()[0].split()
        assert row[0] == "quantize-roundtrip" and row[1] == "nan" and row[2] == "FAIL"

    def test_channel_modulus_keeps_a_nan_slab(self):
        # the slabs before and after slab 3 match to rounding
        n, phi = 9, gaussian_window(9)
        sigma = random_symbol(n, 0)
        mags = np.abs(stft_grid(sigma, tau_wigner(phi, phi, 0.0)))
        channel = diagnostics.operator_channel(op_tau(sigma, 0.0), phi)
        assert channel_modulus_residual(channel, 0.0, mags)[0] < SUITE_TOL
        mags[3] = np.nan
        assert np.isnan(channel_modulus_residual(channel, 0.0, mags)[0])


class TestChannelModulusScale:
    @staticmethod
    def _passes(n):
        assert channel_modulus(n, np.random.default_rng(0)) < SUITE_TOL

    def test_peak_memory_at_the_cap(self, traced_peak):
        # the full channel matrix and |stft_grid| alone take 24 MB at N = 32;
        # the suite keeps O(N^3): one STFT slab, the channel's two factors and
        # products of at most N x N^2 entries over runs of x-rows (3.7 MB); a
        # conjugated copy of a factor and an N^3 table of window shifts took 4.9 MB
        peak = traced_peak(self._passes, 32)
        assert peak <= 4.2e6, peak

    def test_peak_memory_above_the_cap(self, traced_peak):
        # the same O(N^3) at N = 48 (9.2 MB; 13.5 MB with those copies), where the
        # full channel matrix alone takes 85 MB
        peak = traced_peak(self._passes, 48)
        assert peak <= 11e6, peak

    def test_every_slab_is_required(self):
        # a short slab sequence would leave pairs unchecked
        sigma = np.ones((8, 8))
        phi = gaussian_window(8)
        slabs = itertools.islice(stft_slabs(sigma, tau_wigner(phi, phi, 0.0)), 7)
        with pytest.raises(ValueError):
            channel_modulus_residual(diagnostics.operator_channel(op_tau(sigma, 0.0), phi), 0.0, slabs)

    @pytest.mark.parametrize("lattice, tau", [(Lattice(2, 2), 0.0), (Lattice(1, 1), np.nan), (Lattice(1, 1), 1.5)],
                             ids=["lattice", "nan-tau", "tau-above-one"])
    def test_needs_a_full_grid_channel_with_its_tau(self, lattice, tau):
        sigma, phi = np.ones((8, 8)), gaussian_window(8)
        slabs = stft_slabs(sigma, tau_wigner(phi, phi, 0.0))
        with pytest.raises(ValueError, match=r"full-grid channel and a tau in \[0, 1\]"):
            channel_modulus_residual(diagnostics.operator_channel(op_tau(sigma, 0.0), phi, lattice), tau, slabs)

    @pytest.mark.parametrize("n, window", [(33, "gaussian"), (40, "comb")])
    def test_identity_above_the_full_grid_cap(self, n, window):
        # the config refuses these grids, the library does not; the suite
        # checks them through the production channel, tau = 1/2 included
        assert n > cli.FULL_CHANNEL_CAP
        assert [(tau, label) for tau, _phi, label in channel_modulus_cases(n)][-1] == (0.5, window)
        assert channel_modulus(n, np.random.default_rng(n)) < SUITE_TOL


class TestBenchmarkHooks:
    def test_tracer_wraps_and_restores_every_hook(self, monkeypatch):
        # perfbench/spans.py wraps these names from outside; a refactor that
        # moves or renames one breaks its --trace 1 run, so fail here first
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spans = importlib.import_module("spans")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "cyclictf"]
        bound = {}
        for layer, names in spans.LAYERS.items():
            home = importlib.import_module(f"cyclictf.{layer}")
            for fname in names:
                assert callable(getattr(home, fname, None)), f"{layer}.{fname}"
                bound.update({(m.__name__, fname): getattr(m, fname) for m in modules
                              if getattr(m, fname, None) is getattr(home, fname)})
        suites = dict(cli.VERIFY_SUITES)
        tracer = spans.Tracer()
        tracer.install()
        try:
            during = {key: getattr(sys.modules[key[0]], key[1]) for key in bound}
            wrapped = dict(cli.VERIFY_SUITES)
        finally:
            tracer.uninstall()
        assert ("cyclictf.verify", "stft") in bound
        for key, fn in bound.items():
            assert during[key].__wrapped__ is fn, key
            assert getattr(sys.modules[key[0]], key[1]) is fn, key
        # run_verify looks the suites up in this dict, the one the tracer wraps
        assert cli.VERIFY_SUITES is VERIFY_SUITES
        assert wrapped.keys() == suites.keys()
        for name, fn in suites.items():
            assert wrapped[name].__wrapped__ is fn, name
            assert cli.VERIFY_SUITES[name] is fn, name

    @pytest.mark.parametrize("lattice, points", [({"a": 1, "b": 1}, 64), ({"a": 2, "b": 2}, 16)])
    def test_traced_channel_run_counts_entries(self, lattice, points, tmp_path, monkeypatch):
        # the entries hook binds operator_channel's `operator` and `lattice`
        # by name, so a renamed parameter would break only a traced run
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spans = importlib.import_module("spans")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 8, "tau": [0.5], "lattice": lattice}))
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.start_pass()
            code = cli.main(["channel", "--config", str(config), "--out", str(tmp_path), "--quiet"])
            tracer.end_pass()
        finally:
            tracer.uninstall()
        assert code == 0
        metrics = tracer.metrics()
        assert metrics["diagnostics.operator_channel.calls"] == 1
        assert metrics["diagnostics.operator_channel.entries"] == points**2

    def test_traced_run_of_every_subcommand(self, tmp_path, monkeypatch):
        # every bound-argument hook (operator, lattice, sigma, mode) binds its
        # parameter on some path of the five subcommands
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spans = importlib.import_module("spans")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 8, "tau": [0.0, 0.5, 1.0], "lattice": {"a": 2, "b": 2}}))
        commands = ["verify", "sweep", "wiener", "norms", "channel"]
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.start_pass()
            codes = [cli.main([command, "--config", str(config), "--out", str(tmp_path / command), "--quiet"])
                     for command in commands]
            tracer.end_pass()
        finally:
            tracer.uninstall()
        assert codes == [0] * len(commands)
        metrics = tracer.metrics()
        assert metrics["diagnostics.operator_channel.entries"] > 0
        assert metrics["diagnostics.boundedness_report.calls"] == 3

import importlib
import itertools
import json
import sys
import tracemalloc
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
    def _traced_peak(n):
        tracemalloc.start()
        try:
            residual = channel_modulus(n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < SUITE_TOL
        return peak

    def test_peak_memory_at_the_cap(self):
        # the full channel matrix and |stft_grid| alone take 24 MB at N = 32;
        # the suite keeps O(N^3): one STFT slab, the channel's two factors and
        # products of at most N x N^2 entries over runs of x-rows
        peak = self._traced_peak(32)
        assert peak <= 7.5e6, peak

    def test_peak_memory_above_the_cap(self):
        # the same O(N^3) at N = 48, where the full channel matrix alone takes 85 MB
        peak = self._traced_peak(48)
        assert peak <= 18e6, peak

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

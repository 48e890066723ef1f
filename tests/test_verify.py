import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclictf.cli as cli
from cyclictf import diagnostics, verify
from cyclictf.verify import SUITE_TOL, VERIFY_SUITES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one function on each suite's side of its identity: (module it is read from, name)
PERTURBED = {
    "fundamental-identity": (verify, "dft"),
    "stft-inversion": (verify, "stft_adjoint"),
    "quantize-duality": (verify, "tau_wigner"),
    "quantize-roundtrip": (verify, "dequantize"),
    "convert-consistency": (verify, "convert_symbol"),
    "symplectic-covariance": (diagnostics, "rotate_symbol_j_inv"),
    "channel-modulus": (verify, "stft_grid"),
}


class TestSuites:
    @pytest.mark.parametrize("name", list(VERIFY_SUITES))
    def test_relative_error_of_1e_6_fails_the_suite(self, name, monkeypatch):
        # no suite may pass by comparing a quantity with itself
        suite = VERIFY_SUITES[name]
        assert suite(8, np.random.default_rng(0)) < SUITE_TOL
        module, attr = PERTURBED[name]
        exact = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args, **kwargs: (1 + 1e-6) * exact(*args, **kwargs))
        assert suite(8, np.random.default_rng(0)) > SUITE_TOL


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

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclictf
from cyclictf import generators as gen
from cyclictf.cli import (MAX_TRIALS, MAX_VALUE, MAX_WEIGHT, MAX_WIDTH, ConfigError, ExperimentConfig, main,
                          run_channel, run_sweep, run_wiener)
from cyclictf.normbank import fsjostrand_norm, sjostrand_norm, symbol_sups
from cyclictf.phasespace import polynomial_weight
from cyclictf.quantize import tau_wigner
from cyclictf.serialize import envelope_csv_lines
from cyclictf.verify import VERIFY_SUITES

from dense_channel import recording_rows


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def count_calls(monkeypatch, names):
    """Live call counts of each name, wherever a cyclictf module binds it."""
    calls = dict.fromkeys(names, 0)
    for module in (cyclictf.cli, cyclictf.diagnostics, cyclictf.normbank, cyclictf.transforms):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "7 suites, 7 passed, 0 failed" in out

    def test_unreadable_config(self, capsys):
        assert main(["verify", "--config", "/dev/null"]) == 2  # empty file: bad JSON
        capsys.readouterr()

    def test_deterministic_output(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "seed": 42})
        assert main(["verify", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--config", str(cfg)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_is_not_created(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 8, "suites": "quantize-roundtrip"})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a" / "b"), "--quiet"]) == 0
        assert not (tmp_path / "a").exists()
        capsys.readouterr()

    def test_suite_subset(self):
        cfg = ExperimentConfig()
        cfg.suites = ["quantize-roundtrip"]
        from cyclictf.cli import run_verify

        assert run_verify(cfg, quiet=True) == 0

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": ["spectral-gap"]})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "unknown suites" in capsys.readouterr().err

    def test_single_suite_as_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": "channel-modulus"})
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("channel-modulus ")
        assert "1 suites, 1 passed, 0 failed" in out

    def test_empty_suites_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 8, "suites": []})
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "suites must name at least one suite" in captured.err
        assert captured.out == ""

    def test_suites_of_wrong_type_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suites": 3})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "suites must be" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 6, 9, 10, 16, 21, 24, 32])
    def test_other_grid_sizes_pass(self, n):
        # odd grids (9, 21) exercise the tau = 1/2 channel-identity leg with a
        # generic window, grids divisible by 8 (16, 24, 32) the comb-window
        # leg; n = 4 runs the endpoint legs only; at n = 6, 10 (2 mod 4) the
        # covariance suite checks its exact set tau in {0, 1}
        cfg = ExperimentConfig()
        cfg.n = n
        from cyclictf.cli import run_verify

        assert run_verify(cfg, quiet=True) == 0

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_two_mod_four_notes_the_defect(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, {"n": n})
        assert main(["verify", "--config", str(cfg)]) == 0
        first = capsys.readouterr()
        assert "7 suites, 7 passed, 0 failed" in first.out
        notes = first.err.splitlines()
        assert len(notes) == 1
        assert notes[0].startswith(f"note: N = {n} is 2 mod 4")
        assert f"({n // 2}, {n // 2})" in notes[0]
        assert main(["verify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first.out

    def test_no_note_off_two_mod_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 8})
        assert main(["verify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""


class TestConfigValidation:
    def test_lattice_must_divide(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 6, "lattice": {"a": 4, "b": 1}})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "lattice must divide grid" in capsys.readouterr().err

    def test_tau_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": 1.5})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_empty_tau_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": []})
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "empty tau list" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": 8})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_symbol(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"symbol": {"name": "chirped"}})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "symbol generator" in capsys.readouterr().err

    def test_grid_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 64})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "too large" in capsys.readouterr().err

    def test_grid_cap_names_the_bound_with_a_lattice_set(self, tmp_path, capsys):
        # the cap holds for every subcommand, so a lattice does not lift it
        cfg = write_config(tmp_path, {"n": 64, "lattice": {"a": 4, "b": 4}})
        assert main(["channel", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "32" in err and "too large" in err
        assert "use a lattice" not in err

    def test_grid_size_floor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 1})
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "grid size must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], 5.0, [[1.0] * 8], ["a"] * 8])
    @pytest.mark.parametrize("name", ["separable-x", "separable-omega"])
    def test_separable_values_length(self, tmp_path, capsys, name, values):
        cfg = write_config(tmp_path, {"n": 8, "symbol": {"name": name, "values": values}})
        assert main(["norms", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "values must be a list of n = 8 numbers" in capsys.readouterr().err
        assert not (tmp_path / "norms.json").exists()

    @pytest.mark.parametrize("step", [3, 0, -2, 2.5])
    def test_comb_step(self, tmp_path, capsys, step):
        cfg = write_config(tmp_path, {"n": 8, "window": {"name": "comb", "step": step}})
        assert main(["norms", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "step^2 dividing n" in capsys.readouterr().err

    def test_comb_step_that_divides_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "window": {"name": "comb", "step": 2}})
        assert main(["norms", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0

    @pytest.mark.parametrize("width", [0, -1.0, float("nan")])
    @pytest.mark.parametrize("kind", ["symbol", "window"])
    def test_gaussian_width_positive(self, tmp_path, capsys, kind, width):
        spec = {"name": "gaussian", "width": width}
        cfg = write_config(tmp_path, {"n": 8, kind: spec})
        for command, out in (("norms", "norms.json"), ("sweep", "sweep.csv")):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert f"gaussian {kind} width must be positive" in capsys.readouterr().err
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("kind", ["symbol", "window"])
    def test_gaussian_width_bound(self, tmp_path, capsys, kind):
        widest = write_config(tmp_path, {"n": 2, kind: {"name": "gaussian", "width": MAX_WIDTH}})
        assert main(["norms", "--config", str(widest), "--out", str(tmp_path), "--quiet"]) == 0
        wider = write_config(tmp_path, {"n": 2, kind: {"name": "gaussian", "width": MAX_WIDTH * (1 + 1e-15)}})
        assert main(["norms", "--config", str(wider), "--out", str(tmp_path / "wider")]) == 2
        assert f"gaussian {kind} width must be positive, at most {MAX_WIDTH:g}," in capsys.readouterr().err
        assert not (tmp_path / "wider").exists()

    def test_narrowest_gaussian_window_is_silent(self, tmp_path, capsys):
        # n * width^2 > 0 admits width 1e-160 at n = 8, the delta window, whose wraps
        # overflow to exp(-inf) = 0 at every t != 0: that printed a RuntimeWarning
        cfg = write_config(tmp_path, {"n": 8, "window": {"name": "gaussian", "width": 1e-160}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norms", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
            assert np.array_equal(gen.make_window(n=8, name="gaussian", width=1e-160), gen.delta_window(8))
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize(
        "data, message",
        [
            ({"lattice": 5}, "lattice must be a JSON object"),
            ({"symbol": 5}, "symbol must be a JSON object"),
            ({"tau": None}, "tau must be a number"),
            ({"seed": -1}, "seed must be nonnegative"),
            ({"s": float("nan")}, "weight order must be finite and nonnegative"),
            ({"s": float("inf")}, "weight order must be finite and nonnegative"),
            ({"n": 8.7}, "grid size n must be an integer"),
            ({"n": 8, "lattice": {"a": 2, "bb": 4}}, "unknown lattice keys: ['bb']"),
            (5, "config must be a JSON object"),
            (None, "config must be a JSON object"),
            ([1, 2], "config must be a JSON object"),
            ("abc", "config must be a JSON object"),
            ({"suites": [["quantize-roundtrip"]]}, "suites must be a suite name or a list of suite names"),
            ({"suites": ["bogus"]}, "unknown suites: ['bogus']"),
            ({"trials": 0}, "trials must be at least 1"),
        ],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, data, message):
        cfg = write_config(tmp_path, data)
        for command, out in (("sweep", "sweep.csv"), ("channel", "channel_report.json")):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"symbol": {"name": "random-seeded", "extra": 1}},
             "unknown symbol keys for 'random-seeded': ['extra']"),
            ({"window": {"name": "gaussian", "widht": 2}}, "unknown window keys for 'gaussian': ['widht']"),
            ({"window": {"name": "gaussian", "width": None}}, "gaussian window width must be a number"),
            ({"n": 16, "window": {"name": "comb", "step": None}}, "comb window step must be a number"),
            ({"symbol": {"name": "gaussian", "width": "x"}}, "gaussian symbol width must be a number"),
            ({"symbol": {"name": "gaussian", "width": True}}, "gaussian symbol width must be a number"),
            ({"n": 16, "window": {"name": "comb", "step": "2"}}, "comb window step must be a number"),
            ({"symbol": {"name": ["x"]}}, "symbol name must be a string"),
            ({"window": {"name": {"a": 1}}}, "window name must be a string"),
            ({"symbol": {"name": "separable-x", "values": [True, 1, 1, 1, 1, 1, 1, 1]}},
             "separable-x symbol values must be a list of n = 8 numbers"),
            # n * width^2 underflows to 0 (an all-NaN generator) or overflows
            ({"n": 8, "window": {"name": "gaussian", "width": 1e-200}}, "gaussian window width must be positive"),
            ({"n": 8, "window": {"name": "gaussian", "width": 1e200}}, "gaussian window width must be positive"),
            ({"n": 8, "symbol": {"name": "gaussian", "width": 1e-200}}, "gaussian symbol width must be positive"),
            ({"n": 8, "symbol": {"name": "gaussian", "width": 1e200}}, "gaussian symbol width must be positive"),
            # step^2 overflowed: an OverflowError traceback
            ({"n": 2, "window": {"name": "comb", "step": 1.3407807929942597e154}},
             "comb window step must be a positive integer"),
            # nan in sweep.csv and a LinAlgError traceback from wiener
            ({"n": 8, "symbol": {"name": "separable-x", "values": [1e308] * 8}},
             "separable-x symbol values must be at most 1e+50 in magnitude"),
            ({"n": 8, "symbol": {"name": "separable-omega", "values": [1.0] * 7 + [float("nan")]}},
             "separable-omega symbol values must be at most 1e+50 in magnitude"),
            # the inverse of a tiny symbol is huge: Infinity for both wiener track norms,
            # and a composition norm of 0.0 (the square underflowed)
            ({"n": 8, "s": 263, "tau": [0.5], "symbol": {"name": "separable-x", "values": [
                1e-200, 2e-200, 1e-200, 3e-200, 1e-200, 1e-200, 2e-200, 1e-200]}},
             "separable-x symbol values must be 0 or at least 1e-50 in magnitude"),
            ({"n": 8, "symbol": {"name": "separable-omega", "values": [1.0] * 7 + [1e-50 * (1 - 1e-9)]}},
             "separable-omega symbol values must be 0 or at least 1e-50 in magnitude"),
        ],
    )
    def test_generator_sections_exit_2(self, tmp_path, capsys, data, message):
        cfg = write_config(tmp_path, data)
        for command, out in (("norms", "norms.json"), ("sweep", "sweep.csv")):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / out).exists()

    def test_trials_bound(self):
        # an unbounded count is an endless boundedness loop: 1e300 trials is a 301-digit int
        for trials in (1e300, MAX_TRIALS + 1):
            with pytest.raises(ConfigError, match=f"trials must be at least 1 and at most MAX_TRIALS = {MAX_TRIALS}"):
                ExperimentConfig.from_dict({"trials": trials})
        assert ExperimentConfig.from_dict({"trials": MAX_TRIALS}).trials == MAX_TRIALS

    @pytest.mark.parametrize("n", [8, 32])
    def test_weight_order_bound(self, tmp_path, capsys, n):
        # the largest weight (1 + 2 (n/2)^2)^(s/2) reaches MAX_WEIGHT at s_max;
        # s = 1000 at n = 8 wrote "ratio": NaN to channel_report.json and inf to sweep.csv
        s_max = 2 * math.log(MAX_WEIGHT) / math.log1p(2 * (n / 2) ** 2)
        over = write_config(tmp_path, {"n": n, "s": s_max * (1 + 1e-9)}, "over.json")
        for command, out in (("sweep", "sweep.csv"), ("channel", "channel_report.json")):
            assert main([command, "--config", str(over), "--out", str(tmp_path)]) == 2
            assert "weight order s = " in capsys.readouterr().err
            assert not (tmp_path / out).exists()
        under = write_config(tmp_path, {"n": n, "s": s_max * (1 - 1e-9)}, "under.json")
        for command in ("sweep", "channel"):
            assert main([command, "--config", str(under), "--out", str(tmp_path), "--quiet"]) == 0
        sweep = [float(x) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
                 for x in line.split(",")]
        report = json.loads((tmp_path / "channel_report.json").read_text())
        channel = [report[k] for k in ("envelope_l1", "class_norm", "ratio")]
        assert all(math.isfinite(x) for x in sweep + channel), (sweep, channel)
        assert report["class_norm"] > 1e150  # the weight is really near its bound

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("name", ["separable-x", "separable-omega"])
    def test_separable_values_bound(self, tmp_path, capsys, name, n):
        # wiener squares the symbol under the largest weight: values of 1e308 wrote
        # nan to sweep.csv and ended wiener in a LinAlgError traceback; the headroom
        # for the sums is tightest at n = 32 with s just under its bound
        s_max = 2 * math.log(MAX_WEIGHT) / math.log1p(2 * (n / 2) ** 2)
        profile = [1.0, -0.5, 0.75, -1.0, 0.6, -0.8, 0.9, -0.7] * (n // 8)
        data = {"n": n, "s": s_max * (1 - 1e-9), "tau": [0.0, 0.25, 0.5, 1.0]}
        over = write_config(tmp_path, data | {"symbol": {"name": name, "values": [
            MAX_VALUE * (1 + 1e-9) * v for v in profile]}}, "over.json")
        for command, out in (("sweep", "sweep.csv"), ("wiener", "wiener.json")):
            assert main([command, "--config", str(over), "--out", str(tmp_path)]) == 2
            assert f"{name} symbol values must be at most 1e+50 in magnitude" in capsys.readouterr().err
            assert not (tmp_path / out).exists()
        under = write_config(tmp_path, data | {"symbol": {"name": name, "values": [
            MAX_VALUE * (1 - 1e-9) * v for v in profile]}}, "under.json")
        for command in ("sweep", "wiener", "norms", "channel"):
            assert main([command, "--config", str(under), "--out", str(tmp_path), "--quiet"]) == 0
        numbers = [float(x) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
                   for x in line.split(",")]
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        assert all(row["invertible"] for row in rows)
        assert sum("composition_weyl_norm" in row for row in rows) == 2  # the two taus inside (0, 1)
        numbers += [v for row in rows for v in row.values() if isinstance(v, float)]
        numbers += [r["value"] for r in json.loads((tmp_path / "norms.json").read_text())["reports"]]
        report = json.loads((tmp_path / "channel_report.json").read_text())
        numbers += [report[k] for k in ("envelope_l1", "class_norm", "ratio")]
        assert all(math.isfinite(x) for x in numbers), numbers

    def test_tiny_separable_values_bound(self, tmp_path):
        # the smallest allowed values under the largest weight at n = 8: every norm finite,
        # with no overflow or underflow on the way
        values = [1e-50, -2e-50, 3e-50, -1.5e-50, 2.5e-50, -1e-50, 1.25e-50, -3e-50]
        cfg = write_config(tmp_path, {"n": 8, "s": 263, "tau": [0.0, 0.3, 0.5, 1.0],
                                      "symbol": {"name": "separable-x", "values": values}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("wiener", "sweep", "norms", "channel"):
                assert main([command, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        assert all(row["invertible"] for row in rows)
        assert all(row["composition_weyl_norm"] > 0 for row in rows if 0 < row["tau"] < 1)
        numbers = [v for row in rows for v in row.values() if isinstance(v, float)]
        numbers += [float(x) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
                    for x in line.split(",")]
        numbers += [r["value"] for r in json.loads((tmp_path / "norms.json").read_text())["reports"]]
        report = json.loads((tmp_path / "channel_report.json").read_text())
        numbers += [report[k] for k in ("envelope_l1", "class_norm", "ratio")]
        assert all(math.isfinite(x) for x in numbers), numbers

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_tau_bound(self, tmp_path, capsys, n):
        # U_tau and B_tau scale by up to (n - 1) / tau: tau = 1e-320 at n = 8 wrote NaN to
        # wiener.json and ended sweep in a ValueError traceback (an IndexError at n = 32)
        smallest = n / sys.float_info.max  # the smallest tau with n / tau finite
        while not math.isfinite(n / smallest):
            smallest = float(np.nextafter(smallest, 1.0))
        below = write_config(tmp_path, {"n": n, "tau": [0.5, float(np.nextafter(smallest, 0.0))]}, "below.json")
        for command in ("verify", "sweep", "wiener", "norms", "channel"):
            assert main([command, "--config", str(below), "--out", str(tmp_path)]) == 2
            assert "a nonzero tau must keep n / tau finite" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["below.json"]
        above = write_config(tmp_path, {"n": n, "tau": [0.0, smallest, 0.5]}, "above.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("sweep", "wiener"):
                assert main([command, "--config", str(above), "--out", str(tmp_path), "--quiet"]) == 0
        numbers = [float(x) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]
                   for x in line.split(",")]
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        numbers += [v for row in rows for v in row.values() if isinstance(v, float)]
        assert len(rows) == 3 and all(math.isfinite(x) for x in numbers), numbers

    def test_zero_separable_values_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "symbol": {"name": "separable-x", "values": [0.0] + [1e-50] * 7}})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        assert not any(row["invertible"] for row in rows)

    def test_generator_keys_that_are_read_are_accepted(self, tmp_path):
        sections = [{"symbol": {"name": "separable-x", "seed": 3}}, {"symbol": {"name": "gaussian", "width": 3}},
                    {"window": {"name": "gaussian", "width": 2.0}}, {"n": 16, "window": {"name": "comb", "step": 2.0}}]
        for data in sections:
            cfg = write_config(tmp_path, {"n": 8, **data})
            assert main(["norms", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0, data


class TestSweep:
    def test_rows_and_determinism(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "n": 16,
                "tau": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                "symbol": {"name": "delta"},
                "seed": 11,
                "trials": 5,
            },
        )
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
        data1 = (out1 / "sweep.csv").read_bytes()
        data2 = (out2 / "sweep.csv").read_bytes()
        assert data1 == data2
        lines = data1.decode().strip().splitlines()
        assert len(lines) == 10  # header + 9 tau rows
        header = lines[0].split(",")
        taus = [float(row.split(",")[0]) for row in lines[1:]]
        sums = [float(row.split(",")[header.index("env_sum_l1")]) for row in lines[1:]]
        assert taus[int(np.argmin(sums))] == pytest.approx(0.5)

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "tau": [0.5], "seed": 1})
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(a), "--quiet", "--seed", "2"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(b), "--quiet"]) == 0
        assert (a / "sweep.csv").read_bytes() != (b / "sweep.csv").read_bytes()

    BASELINE = {"n": 32, "tau": [0.0, 0.25, 0.5, 0.75, 1.0], "s": 1.0, "trials": 20}

    def test_one_symbol_stft_and_one_channel_per_tau(self, tmp_path, monkeypatch):
        # one symbol STFT per inner tau; the endpoint rows read the channel's envelopes
        calls = count_calls(monkeypatch, ["symbol_sups", "operator_channel", "op_tau"])
        cfg = write_config(tmp_path, {**self.BASELINE, "n": 8})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == {"symbol_sups": 3, "operator_channel": 5, "op_tau": 5}

    def test_ratio_and_channel_read_one_operator(self, tmp_path, monkeypatch):
        # per tau, the ratio measures the very array the channel is built from, and before it
        calls = []
        for name in ("boundedness_report", "operator_channel"):
            def recorded(operator, *args, _fn=getattr(cyclictf.diagnostics, name), _name=name):
                calls.append((_name, operator))
                return _fn(operator, *args)

            monkeypatch.setattr(cyclictf.diagnostics, name, recorded)
        cfg = write_config(tmp_path, {**self.BASELINE, "n": 8})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert [name for name, _ in calls] == ["boundedness_report", "operator_channel"] * len(self.BASELINE["tau"])
        assert all(ratio_op is channel_op for (_, ratio_op), (_, channel_op) in zip(calls[::2], calls[1::2]))

    def test_endpoints_take_no_symbol_stft(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ["symbol_sups", "tau_wigner"])
        cfg = write_config(tmp_path, {**self.BASELINE, "n": 8, "tau": [0.0, 1.0]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == {"symbol_sups": 0, "tau_wigner": 0}

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 10, 16, 32])
    def test_endpoint_class_norms_are_the_symbol_stft_norms(self, n, tmp_path):
        # at tau in {0, 1} the rows read sjostrand and fsjostrand from the difference and
        # weak envelopes of the channel; the symbol STFT of W_tau(phi, phi) is the oracle
        windows = ["gaussian", "delta"] + (["comb"] if n % 4 == 0 else [])
        for window, s in itertools.product(windows, (0.0, 1.0, 2.5)):
            cfg = ExperimentConfig.from_dict({"n": n, "tau": [0.0, 1.0], "s": s, "window": {"name": window}})
            run_sweep(cfg, tmp_path)
            lines = (tmp_path / "sweep.csv").read_text().splitlines()
            header = lines[0].split(",")
            sigma, phi = gen.make_symbol(n=n, **cfg.symbol), gen.make_window(n=n, **cfg.window)
            v = polynomial_weight(s)
            for line in lines[1:]:
                row = dict(zip(header, map(float, line.split(","))))
                sups = symbol_sups(sigma, tau_wigner(phi, phi, row["tau"]))
                assert row["sjostrand"] == pytest.approx(sjostrand_norm(sups, v), rel=1e-10, abs=0)
                assert row["fsjostrand"] == pytest.approx(fsjostrand_norm(sups, v), rel=1e-10, abs=0)

    def test_one_row_pass_per_tau(self, tmp_path, monkeypatch):
        # the three envelopes of a tau share one pass over the channel's rows,
        # one x-row of w at a time (N rows on the full grid), and no CLI path
        # stacks the P x P entries
        blocks = []

        def recorded(*args, _fn=cyclictf.diagnostics.operator_channel):
            return recording_rows(_fn(*args), blocks)

        monkeypatch.setattr(cyclictf.diagnostics, "operator_channel", recorded)
        cfg = write_config(tmp_path, {**self.BASELINE, "n": 8})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(blocks) == 5 * math.ceil(8 * 8 / 8) == 40
        assert {stop - start for start, stop in blocks} == {8}

    def test_streamed_peak_memory_at_n32(self, tmp_path, traced_peak):
        # the channel as its two factors and one row block at a time (2.3 MB);
        # with its N^4 entries built once per tau the sweep peaked at 18.4 MB;
        # the channel is freed before the next tau's symbol STFT (42.1 MB with
        # the N^4 channel and that STFT alive together)
        cfg = ExperimentConfig.from_dict(self.BASELINE)
        peak = traced_peak(run_sweep, cfg, tmp_path)
        assert peak <= 4e6, peak


class TestWienerCommand:
    def test_trivial_symbol(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "tau": [0.3], "symbol": {"name": "constant"}})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "wiener.json").read_text())
        row = report["rows"][0]
        assert row["invertible"] is True
        assert row["condition"] == pytest.approx(1.0)

    def test_default_symbol_name_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "tau": [0.3], "symbol": {"seed": 3}})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        row = json.loads((tmp_path / "wiener.json").read_text())["rows"][0]
        assert row["class_tag"] == "random-seeded"

    def test_singular_symbol(self, tmp_path):
        # separable-x with a zero in the profile: singular multiplication operator
        values = [0.0] + [1.0] * 7
        cfg = write_config(
            tmp_path,
            {"n": 8, "tau": [0.5], "symbol": {"name": "separable-x", "values": values}},
        )
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        row = json.loads((tmp_path / "wiener.json").read_text())["rows"][0]
        assert row["invertible"] is False
        assert "weyl_track_norm" not in row

    def test_one_symbol_stft_per_distinct_pair(self, tmp_path, monkeypatch):
        # 5 per inner tau (2 tracks, 3 composition symbols), less the repeats at tau = 1/2: one of
        # the two tracks and two of the three composition symbols; the endpoint rows read both
        # tracks from one channel of the inverse and run none
        calls = count_calls(monkeypatch, ["symbol_sups"])
        cfg = write_config(tmp_path, {**TestSweep.BASELINE, "n": 8})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        assert all(row["invertible"] for row in rows)
        assert calls == {"symbol_sups": 12}

    def test_endpoints_take_one_channel_and_no_symbol_stft(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ["symbol_sups", "operator_channel"])
        cfg = write_config(tmp_path, {**TestSweep.BASELINE, "n": 8, "tau": [0.0, 1.0]})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        rows = json.loads((tmp_path / "wiener.json").read_text())["rows"]
        assert all(row["invertible"] for row in rows)
        assert calls == {"symbol_sups": 0, "operator_channel": 2}

    def test_peak_memory_at_n32(self, tmp_path, traced_peak):
        # one symbol-STFT slab at a time (2.1 MB); the full N^4 STFT peaked at 25.4 MB
        cfg = ExperimentConfig.from_dict(TestSweep.BASELINE)
        peak = traced_peak(run_wiener, cfg, tmp_path)
        assert peak <= 4e6, peak

    def test_perturbed_identity_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"n": 16, "tau": [0.5], "symbol": {"name": "gaussian", "width": 2.0}},
        )
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        row = json.loads((tmp_path / "wiener.json").read_text())["rows"][0]
        if row["invertible"]:
            assert np.isfinite(row["weyl_track_norm"])


class TestNormsAndChannel:
    def test_norms_report(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 8, "tau": [0.5], "seed": 3})
        assert main(["norms", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads((tmp_path / "norms.json").read_text())
        spaces = {r["space"] for r in report["reports"]}
        assert {"M^{p,q}", "sjostrand", "fsjostrand"} <= spaces
        assert all(r["value"] >= 0 for r in report["reports"])

    def test_channel_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"n": 8, "tau": [0.5], "lattice": {"a": 2, "b": 2}, "s": 1.0, "seed": 4},
        )
        assert main(["channel", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        csv_lines = (tmp_path / "envelope.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "k_x,k_omega,h,v_s,h_times_v"
        assert len(csv_lines) == 1 + 8 * 8
        report = json.loads((tmp_path / "channel_report.json").read_text())
        assert report["ratio"] > 0

    @pytest.mark.parametrize("lattice", [{"a": 1, "b": 1}, {"a": 2, "b": 2}])
    def test_channel_builds_one_channel_matrix(self, tmp_path, monkeypatch, lattice):
        calls = count_calls(monkeypatch, ["operator_channel"])
        cfg = write_config(tmp_path, {"n": 8, "tau": [0.5], "lattice": lattice})
        assert main(["channel", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == {"operator_channel": 1}

    def test_full_grid_peak_memory_at_n32(self, tmp_path, traced_peak):
        # one row block of the channel at a time (2.2 MB); its N^4 entries peaked at 18.4 MB
        cfg = ExperimentConfig.from_dict({"n": 32, "tau": [0.5]})
        peak = traced_peak(run_channel, cfg, tmp_path)
        assert peak <= 4e6, peak

    @pytest.mark.parametrize("command", ["norms", "verify"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_at_a_file_exits_1(self, tmp_path, capsys, command, under):
        # an --out that names a file, or a path under one, is not a directory:
        # one error line and exit 1, as for a failed write, not a traceback
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = write_config(tmp_path, {"n": 8})
        out = taken / "sub" if under else taken
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command, names", [
        ("sweep", ["sweep.csv"]),
        ("wiener", ["wiener.json"]),
        ("norms", ["norms.json"]),
        ("channel", ["envelope.csv", "channel_report.json"]),
    ])
    def test_wrote_line_names_every_file(self, tmp_path, capsys, command, names):
        cfg = write_config(tmp_path, {"n": 4, "tau": [0.0, 0.5]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "wrote " + " and ".join(str(out / name) for name in names) + "\n"
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "quiet"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestSerialization:
    def test_envelope_csv_values(self):
        table = np.zeros((4, 4))
        table[1, 2] = 2.0
        lines = envelope_csv_lines(table, polynomial_weight(2.0))
        row = [ln for ln in lines if ln.startswith("1,2,")][0]
        cells = row.split(",")
        assert float(cells[2]) == 2.0
        assert float(cells[3]) == 6.0  # (1 + 1 + 4)
        assert float(cells[4]) == 12.0


# arbitrary JSON values, non-finite floats and unbounded integers included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
CONFIG_KEYS = ["n", "tau", "symbol", "window", "lattice", "s", "trials", "seed", "suites"]
SECTION_KEYS = [(kind, name, key) for kind, table in (("symbol", gen.SYMBOL_PARAMS), ("window", gen.WINDOW_PARAMS))
                  for name, (_, keys) in table.items() for key in ("name", *keys)]


class TestConfigContract:
    """from_dict either raises ConfigError or returns a config that is safe to run."""

    @staticmethod
    def check(data):
        try:
            cfg = ExperimentConfig.from_dict(data)
        except ConfigError:
            return
        assert 2 <= cfg.n <= 32
        assert cfg.tau and all(0.0 <= t <= 1.0 for t in cfg.tau)
        assert cfg.suites and set(cfg.suites) <= set(VERIFY_SUITES)
        cfg.lattice.validate(cfg.n)
        assert math.isfinite(cfg.s) and cfg.s >= 0
        assert 1 <= cfg.trials <= MAX_TRIALS and cfg.seed >= 0
        symbol = gen.make_symbol(n=cfg.n, **cfg.symbol)
        window = gen.make_window(n=cfg.n, **cfg.window)
        assert symbol.shape == (cfg.n, cfg.n) and np.abs(symbol).max() <= MAX_VALUE
        assert window.shape == (cfg.n,) and np.all(np.isfinite(window))

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_whole_config(self, data):
        self.check(data)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONFIG_KEYS), JSON_VALUES)
    @example("n", 10**400)
    @example("tau", [0.5, -(10**400)])
    def test_each_top_level_key(self, key, value):
        self.check({key: value})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SECTION_KEYS), JSON_VALUES, st.sampled_from([2, 3, 4, 16]))
    @example(("window", "gaussian", "width"), 1e-200, 8)
    @example(("window", "gaussian", "width"), 1e200, 8)
    @example(("symbol", "gaussian", "width"), 1e-200, 8)
    @example(("symbol", "gaussian", "width"), 1e200, 8)
    def test_each_generator_key(self, where, value, n):
        kind, name, key = where
        self.check({"n": n, kind: {"name": name, key: value}})

    def test_generator_defaults(self):
        for kind, name in {(kind, name) for kind, name, _ in SECTION_KEYS}:
            for n in range(2, 33):
                self.check({"n": n, kind: {"name": name}})

    def test_defaults_are_canonical(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    def test_module_entry_point_rejects_a_non_object(self, tmp_path):
        cfg = write_config(tmp_path, 5)
        src = str(Path(cyclictf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cyclictf", "verify", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "config must be a JSON object" in proc.stderr
        assert "Traceback" not in proc.stderr

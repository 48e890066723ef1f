"""Experiment runner.

Subcommands:
  verify   -- run the exact-identity suites, print a pass/fail table
  sweep    -- tau sweep of envelope masses, class norms, boundedness ratios (CSV)
  wiener   -- inverse-symbol and composition reports (JSON)
  norms    -- norm bank report for the configured symbol and a probe signal (JSON)
  channel  -- channel-matrix envelope table (CSV) and diagnostic report (JSON)

Configuration is a JSON file (--config); every field has a default and is
validated before any computation.  Runs are deterministic for a fixed config
and seed: randomness comes only from numpy's PCG64 seeded generators, and all
numeric output is rendered at 12 significant digits.

Exit codes: 0 success (verify: all suites pass), 1 suite failure, 2 invalid
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import generators as gen
from .normbank import MixedNormSpec, fsjostrand_norm, modulation_norm, sjostrand_norm, symbol_sups
from .phasespace import Lattice, polynomial_weight, utau_matrix
from .quantize import tau_wigner
from .serialize import envelope_csv_lines, format_float, write_json
from .verify import SUITE_TOL, VERIFY_SUITES, covariance_taus, rand_complex


class ConfigError(ValueError):
    pass


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    return float(value)


def _integer(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer")
    return int(value)


@dataclass
class ExperimentConfig:
    n: int = 8
    tau: list[float] = field(default_factory=lambda: [0.5])
    symbol: dict = field(default_factory=lambda: {"name": "random-seeded"})
    window: dict = field(default_factory=lambda: {"name": "gaussian"})
    lattice: Lattice = Lattice(1, 1)
    s: float = 1.0
    trials: int = 20
    seed: int = 0
    suites: list[str] | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("symbol", "window", "lattice"):
            if not isinstance(data.get(key, {}), dict):
                raise ConfigError(f"{key} must be a JSON object")
        cfg = cls()
        cfg.n = _integer(data.get("n", cfg.n), "grid size n")
        tau = data.get("tau", [0.5])
        cfg.tau = [_number(t, "tau") for t in (tau if isinstance(tau, list) else [tau])]
        cfg.symbol = dict(data.get("symbol", cfg.symbol))
        cfg.window = dict(data.get("window", cfg.window))
        lat = data.get("lattice", {})
        unknown = set(lat) - {"a", "b"}
        if unknown:
            raise ConfigError(f"unknown lattice keys: {sorted(unknown)}")
        cfg.lattice = Lattice(*(_integer(lat.get(k, 1), f"lattice {k}") for k in ("a", "b")))
        cfg.s = _number(data.get("s", cfg.s), "weight order s")
        cfg.trials = _integer(data.get("trials", cfg.trials), "trials")
        cfg.seed = _integer(data.get("seed", cfg.seed), "seed")
        suites = data.get("suites")
        cfg.suites = [suites] if isinstance(suites, str) else suites
        return cfg

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("grid size must be at least 2")
        if not self.tau:
            raise ConfigError("empty tau list")
        for t in self.tau:
            if not 0.0 <= t <= 1.0:
                raise ConfigError("quantization parameter out of range")
        try:
            self.lattice.validate(self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.n > dg.FULL_CHANNEL_CAP:
            raise ConfigError("full channel matrix too large; use a lattice")
        if not 0 <= self.s < np.inf:
            raise ConfigError("weight order must be finite and nonnegative")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        for key, seed in (("seed", self.seed), ("symbol seed", self.symbol.get("seed", 0))):
            if _integer(seed, key) < 0:
                raise ConfigError(f"{key} must be nonnegative")
        if self.suites is not None and not isinstance(self.suites, list):
            raise ConfigError("suites must be a suite name or a list of suite names")
        if self.suites == []:
            raise ConfigError("suites must name at least one suite")
        name = self.symbol.get("name", "random-seeded")
        if name not in gen.SYMBOL_PARAMS:
            raise ConfigError(f"unknown symbol generator {name!r}")
        wname = self.window.get("name", "gaussian")
        if wname not in gen.WINDOW_PARAMS:
            raise ConfigError(f"unknown window generator {wname!r}")
        for kind, gname, spec, params in (("symbol", name, self.symbol, gen.SYMBOL_PARAMS),
                                          ("window", wname, self.window, gen.WINDOW_PARAMS)):
            unknown = set(spec) - {"name", *params[gname]}
            if unknown:
                raise ConfigError(f"unknown {kind} keys for {gname!r}: {sorted(unknown)}")
            if gname == "gaussian" and not _number(spec.get("width", 1.0), f"gaussian {kind} width") > 0:
                raise ConfigError(f"gaussian {kind} width must be positive")
        values = self.symbol.get("values")
        if name.startswith("separable") and values is not None:
            profile = np.asarray(values)
            if profile.shape != (self.n,) or profile.dtype.kind not in "biufc":
                raise ConfigError(f"separable symbol values must be a list of n = {self.n} numbers")
        step = _number(self.window.get("step", 2), "comb window step")
        if wname == "comb" and not (step.is_integer() and step >= 1 and self.n % step**2 == 0):
            raise ConfigError("comb window step must be a positive integer with step^2 dividing n")

    def make_symbol(self) -> np.ndarray:
        params = {k: v for k, v in self.symbol.items() if k not in ("name", "seed")}
        return gen.make_symbol(
            self.symbol.get("name", "random-seeded"),
            self.n,
            seed=int(self.symbol.get("seed", self.seed)),
            **params,
        )

    def make_window(self) -> np.ndarray:
        params = {k: v for k, v in self.window.items() if k != "name"}
        return gen.make_window(self.window.get("name", "gaussian"), self.n, **params)


def run_verify(cfg: ExperimentConfig, quiet: bool = False) -> int:
    names = cfg.suites or list(VERIFY_SUITES)
    unknown = [s for s in names if s not in VERIFY_SUITES]
    if unknown:
        raise ConfigError(f"unknown suites: {unknown}")
    if not quiet and "symplectic-covariance" in names and covariance_taus(cfg.n) == (0.0, 1.0):
        half = cfg.n // 2
        print(f"note: N = {cfg.n} is 2 mod 4, so symplectic-covariance checks tau in {{0, 1}} only:"
              f" the chirp defect at mode ({half}, {half}) breaks it elsewhere", file=sys.stderr)
    rows = [(name, VERIFY_SUITES[name](cfg.n, np.random.default_rng(cfg.seed))) for name in names]
    failures = sum(not residual < SUITE_TOL for _, residual in rows)
    if not quiet:
        width = max(len(name) for name, _ in rows)
        for name, residual in rows:
            print(f"{name:<{width}}  {format_float(residual):>12}  {'pass' if residual < SUITE_TOL else 'FAIL'}")
        print(f"{len(rows)} suites, {len(rows) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# sweep / wiener / norms / channel


SWEEP_COLUMNS = [
    "tau",
    "env_diff_l1",
    "env_sum_l1",
    "env_shift_l1",
    "sjostrand",
    "fsjostrand",
    "max_ratio_m22",
]


def _envelope_masses(sigma, tau, phi, v) -> list[float]:
    """l^1_v masses of the difference, sum and shifted (weak ttau at the endpoints) envelopes."""
    chan = dg.channel_matrix(sigma, tau, phi)  # freed on return, before the next symbol STFT
    shifted = ("shifted", utau_matrix(tau)) if 0.0 < tau < 1.0 else ("ttau", None)
    return [dg.ell1v(dg.envelope(chan, m, a), v) for m, a in (("difference", None), ("sum", None), shifted)]


def run_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    sigma = cfg.make_symbol()
    phi = cfg.make_window()
    v = polynomial_weight(cfg.s)
    lines = [",".join(SWEEP_COLUMNS)]
    for tau in cfg.tau:
        # one symbol STFT per tau: both class norms read the sups of the bound
        rep = dg.boundedness_report(sigma, tau, MixedNormSpec(2.0, 2.0), cfg.trials, cfg.seed, window=phi)
        sj, fsj = sjostrand_norm(rep.sups, v), fsjostrand_norm(rep.sups, v)
        row = [tau, *_envelope_masses(sigma, tau, phi, v), sj, fsj, rep.max_ratio]
        lines.append(",".join(format_float(x) for x in row))
    out = out_dir / "sweep.csv"
    out.write_text("\n".join(lines) + "\n")
    if not quiet:
        print(f"wrote {out}")
    return 0


def run_wiener(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    sigma = cfg.make_symbol()
    phi = cfg.make_window()
    rows = []
    for tau in cfg.tau:
        rep = dg.wiener_experiment(sigma, tau, cfg.s, window=phi,
                                   class_tag=cfg.symbol.get("name", "unspecified"))
        row = {
            "tau": tau,
            "invertible": rep.invertible,
            "condition": rep.condition,
            "class_tag": rep.class_tag,
        }
        if rep.invertible:
            row["weyl_track_norm"] = rep.weyl_track_norm
            row["fclass_track_norm"] = rep.fclass_track_norm
            if 0.0 < tau < 1.0:
                comp = dg.composition_symmetry_check(sigma, sigma, tau, window=phi, s=cfg.s)
                row["composition_weyl_norm"] = comp.weyl_class_norm
                row["left_module_norm"] = comp.left_module_norm
                row["right_module_norm"] = comp.right_module_norm
        rows.append(row)
    out = out_dir / "wiener.json"
    write_json(out, {"rng": gen.RNG_ALGORITHM, "rows": rows})
    if not quiet:
        print(f"wrote {out}")
    return 0


def run_norms(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    sigma = cfg.make_symbol()
    phi = cfg.make_window()
    rng = np.random.default_rng(cfg.seed)
    probe = rand_complex(rng, cfg.n)
    v = polynomial_weight(cfg.s)
    tau = cfg.tau[0]
    sups = symbol_sups(sigma, tau_wigner(phi, phi, tau))
    reports = [
        {"space": "M^{p,q}", "p": 2.0, "q": 2.0, "s": 0.0,
         "value": modulation_norm(probe, phi, MixedNormSpec(2.0, 2.0))},
        {"space": "M^{p,q}", "p": 1.0, "q": float("inf"), "s": 0.0,
         "value": modulation_norm(probe, phi, MixedNormSpec(1.0, float("inf")))},
        {"space": "sjostrand", "p": float("inf"), "q": 1.0, "s": cfg.s,
         "value": sjostrand_norm(sups, v)},
        {"space": "fsjostrand", "p": float("inf"), "q": 1.0, "s": cfg.s,
         "value": fsjostrand_norm(sups, v)},
    ]
    out = out_dir / "norms.json"
    write_json(out, {"rng": gen.RNG_ALGORITHM, "tau": tau, "reports": reports})
    if not quiet:
        print(f"wrote {out}")
    return 0


def run_channel(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    sigma = cfg.make_symbol()
    phi = cfg.make_window()
    tau = cfg.tau[0]
    lattice = None if cfg.lattice == Lattice(1, 1) else cfg.lattice
    rep = dg.almost_diag_report(sigma, tau, phi, lattice, cfg.s)
    csv_out = out_dir / "envelope.csv"
    csv_out.write_text("\n".join(envelope_csv_lines(rep.envelope, polynomial_weight(cfg.s))) + "\n")
    json_out = out_dir / "channel_report.json"
    write_json(
        json_out,
        {
            "rng": gen.RNG_ALGORITHM,
            "n": rep.n,
            "tau": rep.tau,
            "s": rep.s,
            "mode": rep.mode,
            "envelope_l1": rep.envelope_l1,
            "class_norm": rep.class_norm,
            "ratio": rep.ratio,
            "warnings": list(rep.warnings),
        },
    )
    if not quiet:
        print(f"wrote {csv_out} and {json_out}")
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclictf",
        description="Finite time-frequency calculus experiments on Z_N.",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "command",
        choices=["verify", "sweep", "wiener", "norms", "channel"],
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config is not None:
            data = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(data)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "verify":
            return run_verify(cfg, quiet=args.quiet)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, quiet=args.quiet)
        if args.command == "wiener":
            return run_wiener(cfg, args.out, quiet=args.quiet)
        if args.command == "norms":
            return run_norms(cfg, args.out, quiet=args.quiet)
        return run_channel(cfg, args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

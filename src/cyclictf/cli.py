"""Experiment runner.

Subcommands:
  verify   -- run the exact-identity suites, print a pass/fail table
  sweep    -- tau sweep of envelope masses, class norms, boundedness ratios (CSV)
  wiener   -- inverse-symbol and composition reports (JSON)
  norms    -- norm bank report for the configured symbol and a probe signal (JSON), first tau only
  channel  -- channel-matrix envelope table (CSV) and diagnostic report (JSON), first tau only

Configuration is a JSON file (--config); every field has a default and is
validated before any computation.  Runs are deterministic for a fixed config
and seed: randomness comes only from numpy's PCG64 seeded generators, and all
numeric output is rendered at 12 significant digits.

Exit codes: 0 success (verify: all suites pass), 1 suite failure or an output
that cannot be written (--out included), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import generators as gen
from .generators import MAX_WIDTH, _width_ok
from .normbank import ell1v, fsjostrand_norm, modulation_norm, sjostrand_norm, symbol_sups
from .phasespace import Lattice, polynomial_weight
from .quantize import op_tau, tau_wigner
from .serialize import envelope_csv_lines, format_float, write_json
from .verify import SUITE_TOL, VERIFY_SUITES, covariance_taus


# the largest weight a report may multiply by; the rest of the float range (1e108)
# is headroom for the weighted sums over the N^2 grid points
MAX_WEIGHT = 1e200
# the largest |value| of a separable symbol profile, and 1 / MAX_VALUE the smallest nonzero
# one: `wiener` squares the symbol and inverts it (entries up to 1 / the smallest |value|),
# and either times MAX_WEIGHT leaves 1e8 of headroom for the sums (N^5 <= 3.4e7)
MAX_VALUE = 1e50
MAX_TRIALS = 10**5  # boundedness trials per tau: about 13 us each at n = 32 on a 2-vCPU Xeon, 1.3 s in all
FULL_CHANNEL_CAP = 32  # the largest n: a full-grid channel pass takes O(N^5) time (the library takes any N)


class ConfigError(ValueError):
    pass


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of range") from None


def _integer(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer")
    return int(value)


def _seed(value, name: str, n: int) -> int:
    if _integer(value, name) < 0:
        raise ConfigError(f"{name} must be nonnegative")
    return int(value)


def _width(value, name: str, n: int) -> float:
    width = _number(value, name)
    if not _width_ok(n, width):  # the generators' own rule, with the config's message
        raise ConfigError(f"{name} must be positive, at most {MAX_WIDTH:g}, with n * width^2 > 0, not {width!r}")
    return width


def _step(value, name: str, n: int) -> int:
    step = _number(value, name)
    if not (step.is_integer() and 1 <= step <= n and n % step**2 == 0):  # step <= n: step^2 cannot overflow
        raise ConfigError(f"{name} must be a positive integer with step^2 dividing n")
    return int(step)


def _values(value, name: str, n: int) -> list[float] | None:
    if value is None:
        return None
    try:
        values = [_number(v, name) for v in value] if isinstance(value, list) and len(value) == n else None
    except ConfigError:
        values = None
    if values is None:
        raise ConfigError(f"{name} must be a list of n = {n} numbers")
    if not all(abs(v) <= MAX_VALUE for v in values):  # NaN fails too
        raise ConfigError(f"{name} must be at most {MAX_VALUE:g} in magnitude")
    if any(0 < abs(v) < 1 / MAX_VALUE for v in values):
        raise ConfigError(f"{name} must be 0 or at least {1 / MAX_VALUE:g} in magnitude")
    return values


# generator parameter -> its check and conversion, the same in every generator that reads it
GENERATOR_KEYS = {"seed": _seed, "width": _width, "step": _step, "values": _values}


def _generator(cfg: "ExperimentConfig", kind: str, spec: dict, table: dict) -> dict:
    """The canonical `kind` section: the name and every key its generator reads.

    An absent key takes the default of the generator's signature, except
    `seed`, which defaults to the config seed.
    """
    name = spec.get("name", getattr(cfg, kind)["name"])
    if not isinstance(name, str):
        raise ConfigError(f"{kind} name must be a string")
    if name not in table:
        raise ConfigError(f"unknown {kind} generator {name!r}")
    fn, keys = table[name]
    unknown = set(spec) - {"name", *keys}
    if unknown:
        raise ConfigError(f"unknown {kind} keys for {name!r}: {sorted(unknown)}")
    defaults = {k: p.default for k, p in inspect.signature(fn).parameters.items()} | {"seed": cfg.seed}
    checked = {k: GENERATOR_KEYS[k](spec.get(k, defaults[k]), f"{name} {kind} {k}", cfg.n) for k in keys}
    return {"name": name, **checked}


@dataclass
class ExperimentConfig:
    """A checked experiment config; build it from JSON with `from_dict`."""

    n: int = 8
    tau: list[float] = field(default_factory=lambda: [0.5])
    symbol: dict = field(default_factory=lambda: {"name": "random-seeded", "seed": 0})
    window: dict = field(default_factory=lambda: {"name": "gaussian", "width": 1.0})
    lattice: Lattice = Lattice(1, 1)
    s: float = 1.0
    trials: int = 20
    seed: int = 0
    suites: list[str] = field(default_factory=lambda: list(VERIFY_SUITES))

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """The config of a parsed JSON document, with every default filled in.

        This is the whole config contract: anything it returns is safe to run,
        and every violation raises ConfigError naming the constraint.
        """
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("symbol", "window", "lattice"):
            if not isinstance(data.get(key, {}), dict):
                raise ConfigError(f"{key} must be a JSON object")
        cfg = cls()
        cfg.n = _integer(data.get("n", cfg.n), "grid size n")
        if cfg.n < 2:
            raise ConfigError("grid size must be at least 2")
        if cfg.n > FULL_CHANNEL_CAP:
            raise ConfigError(f"grid size n = {cfg.n} is too large: n must be at most {FULL_CHANNEL_CAP}")
        tau = data.get("tau", cfg.tau)
        cfg.tau = [_number(t, "tau") for t in (tau if isinstance(tau, list) else [tau])]
        if not cfg.tau:
            raise ConfigError("empty tau list")
        if not all(0.0 <= t <= 1.0 for t in cfg.tau):
            raise ConfigError("quantization parameter out of range")
        if any(t > 0 and not np.isfinite(cfg.n / t) for t in cfg.tau):  # U_tau, B_tau scale by up to (n - 1) / tau
            raise ConfigError(f"a nonzero tau must keep n / tau finite (at most {sys.float_info.max:g}) at n = {cfg.n}")
        lat = data.get("lattice", {})
        unknown = set(lat) - {"a", "b"}
        if unknown:
            raise ConfigError(f"unknown lattice keys: {sorted(unknown)}")
        cfg.lattice = Lattice(*(_integer(lat.get(k, 1), f"lattice {k}") for k in ("a", "b")))
        try:
            cfg.lattice.validate(cfg.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.s = _number(data.get("s", cfg.s), "weight order s")
        if not 0 <= cfg.s < np.inf:
            raise ConfigError("weight order must be finite and nonnegative")
        # v_s peaks at (1 + 2 (n/2)^2)^(s/2) on the torus; compared in logs, so the check cannot overflow
        if cfg.s / 2 * np.log1p(2 * (cfg.n / 2) ** 2) > np.log(MAX_WEIGHT):
            raise ConfigError(f"weight order s = {cfg.s!r} is too large at n = {cfg.n}: "
                              f"the largest weight (1 + 2 (n/2)^2)^(s/2) must be at most {MAX_WEIGHT:g}")
        cfg.trials = _integer(data.get("trials", cfg.trials), "trials")
        if not 1 <= cfg.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be at least 1 and at most MAX_TRIALS = {MAX_TRIALS}")
        cfg.seed = _seed(data.get("seed", cfg.seed), "seed", cfg.n)
        suites = data.get("suites", cfg.suites)
        cfg.suites = [suites] if isinstance(suites, str) else suites
        if not (isinstance(cfg.suites, list) and all(isinstance(name, str) for name in cfg.suites)):
            raise ConfigError("suites must be a suite name or a list of suite names")
        if not cfg.suites:
            raise ConfigError("suites must name at least one suite")
        unknown = [name for name in cfg.suites if name not in VERIFY_SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        cfg.symbol = _generator(cfg, "symbol", data.get("symbol", {}), gen.SYMBOL_PARAMS)
        cfg.window = _generator(cfg, "window", data.get("window", {}), gen.WINDOW_PARAMS)
        return cfg


def _generated(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The configured symbol and window."""
    return gen.make_symbol(n=cfg.n, **cfg.symbol), gen.make_window(n=cfg.n, **cfg.window)


def run_verify(cfg: ExperimentConfig, quiet: bool = False) -> int:
    if not quiet and "symplectic-covariance" in cfg.suites and covariance_taus(cfg.n) == (0.0, 1.0):
        half = cfg.n // 2
        print(f"note: N = {cfg.n} is 2 mod 4, so symplectic-covariance checks tau in {{0, 1}} only:"
              f" the chirp defect at mode ({half}, {half}) breaks it elsewhere", file=sys.stderr)
    rows = [(name, VERIFY_SUITES[name](cfg.n, np.random.default_rng(cfg.seed))) for name in cfg.suites]
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


def _envelope_masses(operator, tau, phi, v) -> list[float]:
    """l^1_v masses of the difference, sum and Fourier-class envelopes of Op_tau(sigma)'s channel."""
    chan = dg.operator_channel(operator, phi)  # freed on return, before the next symbol STFT
    modes = [("difference", None), ("sum", None), dg.fclass_mode(tau)]
    return [ell1v(env, v) for env in dg.envelopes(chan, modes)]  # one pass over the channel's rows


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    sigma, phi = _generated(cfg)
    v = polynomial_weight(cfg.s)
    lines = [",".join(SWEEP_COLUMNS)]
    for tau in cfg.tau:
        # ratio first, then channel: the trial signals shape the heap that envelopes starts
        # from, and so its page faults; at tau in {0, 1} the difference and weak envelopes
        # are sup_pos o J and sup_freq of the symbol STFT (v is J-invariant), so both class
        # norms are their masses and no STFT runs
        operator = op_tau(sigma, tau)
        ratio = dg.boundedness_report(operator, cfg.trials, cfg.seed)
        masses = _envelope_masses(operator, tau, phi, v)
        if tau in (0.0, 1.0):
            sj, fsj = masses[0], masses[2]
        else:  # the channel is freed before the one symbol STFT of this tau
            sups = symbol_sups(sigma, tau_wigner(phi, phi, tau))
            sj, fsj = sjostrand_norm(sups, v), fsjostrand_norm(sups, v)
        row = [tau, *masses, sj, fsj, ratio]
        lines.append(",".join(format_float(x) for x in row))
    out = out_dir / "sweep.csv"
    out.write_text("\n".join(lines) + "\n")
    return [out]


def run_wiener(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    sigma, phi = _generated(cfg)
    rows = []
    for tau in cfg.tau:
        rep = dg.wiener_experiment(sigma, tau, phi, cfg.s)
        row = {
            "tau": tau,
            "invertible": rep.invertible,
            "condition": rep.condition,
            "class_tag": cfg.symbol["name"],
        }
        if rep.invertible:
            row["weyl_track_norm"] = rep.weyl_track_norm
            row["fclass_track_norm"] = rep.fclass_track_norm
            if 0.0 < tau < 1.0:
                comp = dg.composition_symmetry_check(sigma, sigma, tau, phi, cfg.s)
                row["composition_weyl_norm"] = comp.weyl_class_norm
                row["left_module_norm"] = comp.left_module_norm
                row["right_module_norm"] = comp.right_module_norm
        rows.append(row)
    out = out_dir / "wiener.json"
    write_json(out, {"rng": gen.RNG_ALGORITHM, "rows": rows})
    return [out]


def run_norms(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    sigma, phi = _generated(cfg)
    rng = np.random.default_rng(cfg.seed)
    probe = gen.rand_complex(rng, cfg.n)
    v = polynomial_weight(cfg.s)
    tau = cfg.tau[0]
    sups = symbol_sups(sigma, tau_wigner(phi, phi, tau))
    reports = [
        {"space": "M^{p,q}", "p": 2.0, "q": 2.0, "s": 0.0,
         "value": modulation_norm(probe, phi, 2.0, 2.0)},
        {"space": "M^{p,q}", "p": 1.0, "q": float("inf"), "s": 0.0,
         "value": modulation_norm(probe, phi, 1.0, float("inf"))},
        {"space": "sjostrand", "p": float("inf"), "q": 1.0, "s": cfg.s,
         "value": sjostrand_norm(sups, v)},
        {"space": "fsjostrand", "p": float("inf"), "q": 1.0, "s": cfg.s,
         "value": fsjostrand_norm(sups, v)},
    ]
    out = out_dir / "norms.json"
    write_json(out, {"rng": gen.RNG_ALGORITHM, "tau": tau, "reports": reports})
    return [out]


def run_channel(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    sigma, phi = _generated(cfg)
    tau = cfg.tau[0]
    rep = dg.almost_diag_report(sigma, tau, phi, cfg.lattice, cfg.s)
    csv_out = out_dir / "envelope.csv"
    csv_out.write_text("\n".join(envelope_csv_lines(rep.envelope, polynomial_weight(cfg.s))) + "\n")
    json_out = out_dir / "channel_report.json"
    write_json(
        json_out,
        {
            "rng": gen.RNG_ALGORITHM,
            "n": cfg.n,
            "tau": tau,
            "s": cfg.s,
            "mode": "difference",  # the envelope almost_diag_report takes
            "envelope_l1": rep.envelope_l1,
            "class_norm": rep.class_norm,
            "ratio": rep.ratio,
            "warnings": list(rep.warnings),
        },
    )
    return [csv_out, json_out]


# the subcommands that write files: each returns the paths it wrote
WRITERS = {"sweep": run_sweep, "wiener": run_wiener, "norms": run_norms, "channel": run_channel}


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
    parser.add_argument("command", choices=["verify", *WRITERS])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config is not None:
            data = json.loads(Path(args.config).read_text())
        if args.seed is not None and isinstance(data, dict):
            data["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(data)
    except (ValueError, OSError) as exc:  # ConfigError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":  # writes no file: --out is checked as mkdir would, not made
            existing = next(path for path in (args.out, *args.out.parents) if path.exists())
            if not existing.is_dir():
                raise NotADirectoryError(f"--out {args.out}: {existing} is not a directory")
            return run_verify(cfg, quiet=args.quiet)
        args.out.mkdir(parents=True, exist_ok=True)
        written = WRITERS[args.command](cfg, args.out)
        if not args.quiet:
            print("wrote " + " and ".join(map(str, written)))
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

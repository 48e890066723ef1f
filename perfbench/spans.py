"""Outside-in span tracer for the cyclictf layers.

The tracer wraps public functions of the program from the benchmark's side:
every module namespace that binds a traced name (``cli``, ``diagnostics``
and ``normbank`` import names with ``from .x import y``) gets the same
wrapper, ``Weight.on_grid`` is wrapped on its class, and the entries of
``cli.VERIFY_SUITES`` are wrapped in place.  ``uninstall`` puts every
original back, so untraced passes run the unmodified program.

Each call records a span [name, parent index, start, end] in memory; a
span's self time is its duration minus the durations of its direct
children.  Per-point helpers (``weight_eval``, ``wrapped_dist``,
``apply_j_inv``, ``format_float``) run hundreds of thousands of times per
pass and are deliberately not wrapped, because a wrapper would measure
itself; their work is counted as ``Weight.on_grid.points`` instead.

Counts marked computed (``bytes_out``, ``entries``, ``points``) are derived
from argument shapes, not measured.  ``repeat_frac`` is the share of a
function's calls in one pass whose arguments (hashed by their bytes) were
already seen earlier in that pass.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

# layer (module) -> public names wrapped wherever a cyclictf module binds them
LAYERS = {
    "transforms": ("stft_grid", "stft", "tf_shift", "frame_bounds"),
    "quantize": ("op_tau", "dequantize", "tau_wigner", "rotate_symbol_j_inv"),
    "normbank": ("sjostrand_norm", "fsjostrand_norm", "modulation_norm"),
    "diagnostics": (
        "operator_channel",
        "envelope",
        "boundedness_report",
        "wiener_experiment",
        "composition_symmetry_check",
        "covariance_check",
        "almost_diag_report",
    ),
    "generators": ("make_symbol", "make_window"),
    "serialize": ("write_json", "envelope_csv_lines"),
}
ENVELOPE_MODES = ("difference", "sum", "shifted", "ttau")
REPEAT_KEYED = ("stft_grid", "op_tau", "tau_wigner")  # calls hashed for repeat_frac


def _stft_grid_bytes(bound) -> int:
    n = np.shape(bound["sigma"])[0]
    return 16 * n**4  # complex128 output of shape (N, N, N, N)


def _channel_entries(bound) -> int:
    n = np.shape(bound["operator"])[0]
    lattice = bound.get("lattice")
    points = n * n if lattice is None else lattice.count(n)
    return points * points


# name -> (computed stat, its value from the bound arguments of one call)
SIZED = {
    "stft_grid": ("bytes_out", _stft_grid_bytes),
    "operator_channel": ("entries", _channel_entries),
}


def _arg_digest(values) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.digest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._stats: dict[str, tuple[str, ...]] = {}  # span name -> its reported stats
        self._seen: dict[str, set] = {}
        self._pass_counts: dict[str, float] = {}
        self._passes: list[dict[str, float]] = []
        self._restore: list = []  # undo actions of install(), in order

    # -- wrapping -----------------------------------------------------------

    def _register(self, name: str, *extra: str) -> None:
        self._stats[name] = ("calls", "self_s", *extra)

    def _count(self, key: str, value: float) -> None:
        self._pass_counts[key] = self._pass_counts.get(key, 0) + value

    def _wrap(self, fn, name_of, bound_hook=None):
        """Wrap fn; name_of(args, kwargs) gives the span name of one call."""
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if bound_hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if bound_hook is not None:
                bound_hook(name, sig.bind(*args, **kwargs).arguments)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()

        return wrapper

    def _layer_hook(self, fname: str):
        keyed, sized = fname in REPEAT_KEYED, SIZED.get(fname)
        if not (keyed or sized):
            return None

        def hook(name, bound):
            if keyed:
                digest = _arg_digest(bound.values())
                seen = self._seen.setdefault(name, set())
                self._count(f"{name}.repeats", digest in seen)
                seen.add(digest)
            if sized:
                stat, size_of = sized
                self._count(f"{name}.{stat}", size_of(bound))

        return hook

    def _set(self, owner, attr, value) -> None:
        original = getattr(owner, attr)
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        original = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def install(self) -> None:
        """Wrap every traced name in every loaded cyclictf module."""
        import cyclictf.cli as cli
        from cyclictf.phasespace import Weight

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "cyclictf"]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cyclictf.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                prefix = f"{layer}.{fname}"
                if fname == "envelope":
                    for mode in ENVELOPE_MODES:
                        self._register(f"{prefix}.{mode}")
                    name_of = _envelope_name(prefix, original)
                else:
                    stats = ["repeat_frac"] if fname in REPEAT_KEYED else []
                    if fname in SIZED:
                        stats.append(SIZED[fname][0])
                    self._register(prefix, *stats)
                    name_of = _const(prefix)
                wrapped = self._wrap(original, name_of, self._layer_hook(fname))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._set(mod, fname, wrapped)

        def grid_points(name, bound):
            self._count(f"{name}.points", bound["n"] ** bound["self"].dim)

        on_grid = "phasespace.Weight.on_grid"
        self._register(on_grid, "points")
        self._set(Weight, "on_grid", self._wrap(Weight.on_grid, _const(on_grid), grid_points))
        self._register("cli.main")
        self._set(cli, "main", self._wrap(cli.main, _const("cli.main")))
        for suite, fn in list(cli.VERIFY_SUITES.items()):
            self._register(f"cli.verify.{suite}")
            self._set_item(cli.VERIFY_SUITES, suite, self._wrap(fn, _const(f"cli.verify.{suite}")))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- passes ---------------------------------------------------------------

    def start_pass(self) -> None:
        self.spans.clear()
        self._seen.clear()
        self._pass_counts = {}

    def end_pass(self) -> None:
        """Fold the pass's spans into per-name calls and self time."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        counts = dict(self._pass_counts)
        for (name, _parent, start, end), inner in zip(self.spans, child):
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
            counts[f"{name}.self_s"] = counts.get(f"{name}.self_s", 0.0) + (end - start - inner)
        self._passes.append(counts)

    def metrics(self) -> dict[str, float]:
        """Per-pass medians of every registered stat (0 for names never called)."""
        out = {}
        for name, stats in self._stats.items():
            for stat in stats:
                if stat == "repeat_frac":
                    continue
                key = f"{name}.{stat}"
                out[key] = statistics.median(p.get(key, 0) for p in self._passes)
            if "repeat_frac" in stats:
                calls = sum(p.get(f"{name}.calls", 0) for p in self._passes)
                repeats = sum(p.get(f"{name}.repeats", 0) for p in self._passes)
                out[f"{name}.repeat_frac"] = repeats / calls if calls else 0.0
        return out


def _const(name: str):
    return lambda args, kwargs: name


def _envelope_name(prefix: str, fn):
    sig = inspect.signature(fn)

    def name_of(args, kwargs):
        return f"{prefix}.{sig.bind(*args, **kwargs).arguments['mode']}"

    return name_of

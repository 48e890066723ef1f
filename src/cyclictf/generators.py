"""Named window and symbol generators, plus the graded experiment corpus.

Every random generator takes an explicit integer seed and draws from
numpy's PCG64 (`numpy.random.default_rng`), so corpora are reproducible
byte-for-byte across runs; the algorithm identifier recorded in experiment
configs is "numpy-pcg64".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_WIDTH",
    "RNG_ALGORITHM",
    "comb_window",
    "delta_symbol",
    "delta_window",
    "gaussian_symbol",
    "gaussian_window",
    "graded_corpus",
    "make_symbol",
    "make_window",
    "rand_complex",
    "random_symbol",
    "separable_omega_symbol",
    "separable_x_symbol",
]

RNG_ALGORITHM = "numpy-pcg64"
MAX_WIDTH = 1e3  # the widest Gaussian: flat on Z_N to 2.5e-5 at n <= 32, symbol entries at most 5e5


def rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian draw of the given shape: real part first, then imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _width_ok(n: int, width: float) -> bool:
    """The one Gaussian width rule: width in (0, MAX_WIDTH], NaN refused, and n * width^2 not 0 by underflow."""
    return 0 < width <= MAX_WIDTH and n * (width * width) > 0


def gaussian_window(n: int, width: float = 1.0, normalize: bool = True) -> np.ndarray:
    """Periodized Gaussian sum_j exp(-pi (t + j N)^2 / (N width^2)), |j| <= 1 + ceil(3.5 width / sqrt(N)).

    Further wraps move no entry by 2^-53 of itself, and the wraps cost time
    linear in width, so width must be in (0, MAX_WIDTH].  For width 1 this is
    (up to normalization) the discrete theta window fixed by the unitary DFT.
    """
    if not _width_ok(n, width):
        raise ValueError(f"Gaussian width must be in (0, MAX_WIDTH = {MAX_WIDTH:g}] with n * width^2 > 0, not {width}")
    t = np.arange(n, dtype=float)
    phi = np.zeros(n)
    wraps = 1 + int(np.ceil(3.5 * width / np.sqrt(n)))
    with np.errstate(over="ignore"):  # a width near the underflow floor: every t != 0 term is exp(-inf) = 0
        for j in range(-wraps, wraps + 1):
            phi += np.exp(-np.pi * (t + j * n) ** 2 / (n * width**2))
    out = phi.astype(complex)
    return out / np.linalg.norm(out) if normalize else out


def delta_window(n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0
    return out


def comb_window(n: int, step: int = 2) -> np.ndarray:
    """Gaussian comb supported on step*Z and periodic with period N/step.

    Its ambiguity function is supported on the sublattice (step Z_N)^2, which
    is what the channel-identity verification at tau = 1/step needs on even
    grids; requires a positive integer step with step^2 | N.
    """
    if not (isinstance(step, (int, np.integer)) and step >= 1) or n % (step * step):
        raise ValueError(f"comb window needs a positive integer step with step^2 dividing N = {n}, not {step!r}")
    period = n // step
    t = np.arange(0, n, step)
    d = np.minimum(t % period, period - t % period)  # wrapped distance of each tooth
    phi = np.zeros(n, dtype=complex)
    phi[t] = np.exp(-np.pi * d * d / n)
    return phi / np.linalg.norm(phi)


def constant_symbol(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=complex)


def delta_symbol(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = 1.0
    return out


def gaussian_symbol(n: int, width: float = 2.0) -> np.ndarray:
    g = gaussian_window(n, width=width, normalize=False).real
    return np.outer(g, g).astype(complex)


def _profile(n: int, seed: int, values) -> np.ndarray:
    if values is not None:
        prof = np.asarray(values, dtype=complex)
        if prof.shape != (n,):
            raise ValueError("profile values must have length N")
        return prof
    return rand_complex(np.random.default_rng(seed), n)


def separable_x_symbol(n: int, seed: int = 0, values=None) -> np.ndarray:
    """sigma(x, omega) = m(x): quantizes to the multiplication operator by m."""
    return np.tile(_profile(n, seed, values)[:, None], (1, n))


def separable_omega_symbol(n: int, seed: int = 0, values=None) -> np.ndarray:
    """sigma(x, omega) = g(omega): quantizes to the Fourier multiplier by g."""
    return np.tile(_profile(n, seed, values)[None, :], (n, 1))


def random_symbol(n: int, seed: int = 0) -> np.ndarray:
    return rand_complex(np.random.default_rng(seed), n, n)


# name -> (generator, the config keys it reads besides its name)
WINDOW_PARAMS = {
    "gaussian": (gaussian_window, ("width",)),
    "delta": (delta_window, ()),
    "comb": (comb_window, ("step",)),
}
SYMBOL_PARAMS = {
    "constant": (constant_symbol, ()),
    "separable-x": (separable_x_symbol, ("seed", "values")),
    "separable-omega": (separable_omega_symbol, ("seed", "values")),
    "gaussian": (gaussian_symbol, ("width",)),
    "delta": (delta_symbol, ()),
    "random-seeded": (random_symbol, ("seed",)),
}


def _generate(table: dict, kind: str, name: str, n: int, params: dict) -> np.ndarray:
    if name not in table:
        raise ValueError(f"unknown {kind} generator {name!r}")
    fn, keys = table[name]
    return fn(n, **{k: v for k, v in params.items() if k in keys})


def make_window(name: str, n: int, **params) -> np.ndarray:
    """The named window of WINDOW_PARAMS on Z_N; params it does not read are ignored."""
    return _generate(WINDOW_PARAMS, "window", name, n, params)


def make_symbol(name: str, n: int, **params) -> np.ndarray:
    """The named symbol of SYMBOL_PARAMS on Z_N x Z_N; params it does not read are ignored."""
    return _generate(SYMBOL_PARAMS, "symbol", name, n, params)


def graded_corpus(n: int, count: int = 10, seed: int = 2024) -> list[np.ndarray]:
    """Smoothness-graded symbol family: nested band-limited partial sums.

    One master random draw; member k keeps the centered frequency square of
    half-width h_k, strictly increasing from h_0 = 0 (the DC mode) towards
    N // 2, and the last member keeps everything, as does any h_k >= N // 2:
    so if N // 2 < count - 1, members N // 2 to count - 1 coincide (at count
    10, every N < 18).  Roughness, class norms and operator norms grow with
    k, which is what the monotone-association diagnostics measure.
    """
    if count < 1:
        raise ValueError(f"graded_corpus needs count >= 1, got {count}")
    master = rand_complex(np.random.default_rng(seed), n, n)
    halves = np.linspace(0, n // 2, count).round().astype(int)
    for i in range(1, count):  # strictly increasing half-widths, not distinct members (see above)
        halves[i] = max(halves[i], halves[i - 1] + 1)
    halves[-1] = n  # keep the full spectrum in the last member
    a = np.arange(n)
    centered = np.minimum(a, n - a)
    dist = np.maximum(centered[:, None], centered[None, :])
    corpus = []
    for h in halves:
        hat = np.where(dist <= h, master, 0.0)
        corpus.append(np.fft.ifft2(hat))
    return corpus

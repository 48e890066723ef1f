import re

import numpy as np
import pytest

from cyclictf.generators import (
    MAX_WIDTH,
    SYMBOL_PARAMS,
    comb_window,
    gaussian_window,
    graded_corpus,
    make_symbol,
    make_window,
    separable_x_symbol,
)
from cyclictf.transforms import dft, stft


def test_gaussian_window_unit_norm():
    assert np.linalg.norm(gaussian_window(16)) == pytest.approx(1.0)


def test_gaussian_window_dft_invariant():
    # the width-1 periodized Gaussian is fixed by the unitary DFT
    phi = gaussian_window(16)
    assert np.abs(dft(phi) - phi).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_gaussian_window_sums_every_wrap(n):
    # against a sum over |j| <= 4000 wraps, and even under t -> -t, up to the widest config width
    t = np.arange(n)
    for width in (0.1, 1.0, 3.0, 10.0, 30.0, 1e3):
        phi = gaussian_window(n, width, normalize=False).real
        long_sum = sum(np.exp(-np.pi * (t + j * n) ** 2 / (n * width**2)) for j in range(-4000, 4001))
        assert np.abs(phi - long_sum).max() <= 1e-13 * long_sum.max()
        assert np.abs(phi - phi[-t]).max() <= 1e-13 * phi.max()


@pytest.mark.parametrize("width", [1e5, 0.0, -1.0, float("nan"), 1e-170, 1e-200])
def test_gaussian_window_refuses_width_outside_bound(width):
    # the wrap loop's time grows linearly with width, so a width past the bound is refused before it;
    # at 1e-170 and below n * width^2 underflows to 0, and every entry would be NaN
    with pytest.raises(ValueError, match=re.escape(f"(0, MAX_WIDTH = {MAX_WIDTH:g}] with n * width^2 > 0")):
        gaussian_window(2, width)


def test_comb_window_matches_per_tooth_oracle():
    # tooth t carries exp(-pi d^2 / N), d its wrapped distance to the period N / step, then normalized
    for n in range(1, 65):
        for step in (s for s in range(1, n + 1) if n % (s * s) == 0):
            period = n // step
            oracle = np.zeros(n, dtype=complex)
            for t in range(0, n, step):
                d = min(t % period, period - t % period)
                oracle[t] = np.exp(-np.pi * d * d / n)
            assert comb_window(n, step).tobytes() == (oracle / np.linalg.norm(oracle)).tobytes(), (n, step)


def test_comb_window_ambiguity_support():
    # the step-2 comb's ambiguity function lives on the even sublattice
    phi = comb_window(8)
    amb = stft(phi, phi)
    for x in range(8):
        for w in range(8):
            if x % 2 or w % 2:
                assert abs(amb[x, w]) < 1e-12


def test_comb_window_divisibility():
    with pytest.raises(ValueError, match="step"):
        comb_window(6)


@pytest.mark.parametrize("step", [-2, 0, 2.0])
def test_comb_window_refuses_a_step_that_is_not_a_positive_integer(step):
    # unchecked, these end in an all-NaN window, a ZeroDivisionError and an IndexError
    with pytest.raises(ValueError, match=re.escape("step^2")):
        comb_window(8, step)


def test_profile_length_checked():
    with pytest.raises(ValueError, match="length"):
        separable_x_symbol(8, values=[1.0, 2.0])


def test_unknown_names():
    with pytest.raises(ValueError, match="window"):
        make_window("sinc", 8)
    with pytest.raises(ValueError, match="symbol"):
        make_symbol("noise", 8)


def test_graded_corpus_shapes_and_determinism():
    a = graded_corpus(16, 10, 123)
    b = graded_corpus(16, 10, 123)
    assert len(a) == 10
    assert all(s.shape == (16, 16) for s in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # spectral support is nested: first member is the DC mode only
    hat0 = np.fft.fft2(a[0])
    assert np.abs(hat0[1:, :]).max() < 1e-12 and np.abs(hat0[:, 1:]).max() < 1e-12


def test_graded_corpus_duplicates_below_n18():
    # half-width N // 2 keeps the whole spectrum, so with 10 members the last ones coincide when N // 2 < 9
    def equal_pairs(n):
        corpus = graded_corpus(n, 10, 2024)
        return [(i, j) for i in range(10) for j in range(i + 1, 10) if np.array_equal(corpus[i], corpus[j])]

    assert equal_pairs(16) == [(8, 9)]
    assert all(equal_pairs(n) == [] for n in range(18, 34))


def test_graded_corpus_refuses_a_count_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError, match="count >= 1"):
            graded_corpus(8, count)


def test_named_symbols_cover_spec_list():
    for name in ("constant", "separable-x", "separable-omega", "gaussian", "delta", "random-seeded"):
        keys = SYMBOL_PARAMS[name][1]
        out = make_symbol(name, 8, **{"seed": 3} if "seed" in keys else {})
        assert out.shape == (8, 8)


def test_a_key_the_generator_does_not_read_is_refused():
    with pytest.raises(TypeError, match="step"):
        make_window("gaussian", 8, step=2)
    with pytest.raises(TypeError, match="seed"):
        make_symbol("constant", 8, seed=3)

"""Exact identities of the calculus over grid sizes and taus drawn at random.

The verify suites check each identity at fixed taus; these properties draw
N in [2, 40] and tau from {j/m : 0 <= j <= m <= 8} and 1/pi (the endpoint
kernel form from {0, 1} only, the almost-diagonalization identity from its
exact set at N, phase_exact), and hold every relative residual below
SUITE_TOL.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclictf.diagnostics import almost_diag_report, boundedness_report, covariance_check, envelope, operator_channel
from cyclictf.generators import rand_complex
from cyclictf.normbank import modulation_norm, symbol_sups
from cyclictf.phasespace import Lattice
from cyclictf.quantize import op_tau, tau_wigner
from cyclictf.verify import (
    SUITE_TOL,
    convert_residual,
    covariance_taus,
    duality_residual,
    relative_residual,
    roundtrip_residual,
)

from endpoint_oracle import kernel_from_symbol_endpoint
from modulus_oracle import phase_exact

TAUS = sorted({j / m for m in range(1, 9) for j in range(m + 1)} | {1 / np.pi})
FRACTIONS = [(j, m) for m in range(1, 9) for j in range(m + 1) if np.gcd(j, m) == 1]  # reduced j/m
GRID_SIZES = st.integers(min_value=2, max_value=40)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from(TAUS), SEEDS)
def test_quantize_roundtrip(n, tau, seed):
    assert roundtrip_residual(rand_complex(np.random.default_rng(seed), n, n), tau) < SUITE_TOL


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from([0.0, 1.0]), SEEDS)
def test_endpoint_kernel_matches_integral_form(n, tau, seed):
    sigma = rand_complex(np.random.default_rng(seed), n, n)
    kernel = kernel_from_symbol_endpoint(sigma, tau)
    assert relative_residual(op_tau(sigma, tau) - kernel, kernel) < SUITE_TOL


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from(TAUS), st.sampled_from(TAUS), SEEDS)
def test_convert_consistency(n, tau1, tau2, seed):
    assert convert_residual(rand_complex(np.random.default_rng(seed), n, n), tau1, tau2) < SUITE_TOL


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from(TAUS), SEEDS)
def test_duality_with_tau_wigner(n, tau, seed):
    rng = np.random.default_rng(seed)
    sigma, f, g = rand_complex(rng, n, n), rand_complex(rng, n), rand_complex(rng, n)
    assert duality_residual(sigma, f, g, tau) < SUITE_TOL
    # Moyal: ||W_tau(g, f)|| = ||f|| ||g|| / sqrt(N), so the residual's Cauchy-Schwarz
    # scale ||sigma|| ||W_tau(g, f)|| is ||sigma|| ||f|| ||g|| / sqrt(N) at every tau
    expected = np.linalg.norm(f) * np.linalg.norm(g) / np.sqrt(n)
    assert abs(np.linalg.norm(tau_wigner(g, f, tau)) - expected) < 1e-12 * expected


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from(TAUS), SEEDS, st.data())
def test_symplectic_covariance_on_its_exact_set(n, tau, seed, data):
    # exact at every tau unless N = 2 (mod 4), where only the endpoints hold
    if n % 4 == 2:
        tau = data.draw(st.sampled_from(covariance_taus(n)))
    assert covariance_check(rand_complex(np.random.default_rng(seed), n, n), tau) < SUITE_TOL


@PROPERTY_SETTINGS
@given(GRID_SIZES, st.sampled_from(TAUS), SEEDS)
def test_boundedness_ratio_is_the_m22_ratio(n, tau, seed):
    # ||A f|| / ||f|| is the M^{2,2} ratio, since V_phi* V_phi = N ||phi||^2 Id;
    # the modulation-norm quotient over the same seeded trials is the oracle
    rng = np.random.default_rng(seed)
    sigma, phi = rand_complex(rng, n, n), rand_complex(rng, n)
    trials = 5
    operator = op_tau(sigma, tau)
    ratio = boundedness_report(operator, trials, seed)
    draws = np.random.default_rng(seed)
    signals = [rand_complex(draws, n) for _ in range(trials)]
    oracle = max(modulation_norm(operator @ f, phi, 2.0, 2.0) / modulation_norm(f, phi, 2.0, 2.0) for f in signals)
    assert abs(ratio - oracle) <= 1e-12 * oracle
    # the first link of the boundedness chain: no trial exceeds the operator norm
    assert ratio <= np.linalg.norm(operator, 2) * (1 + 1e-12)


def _cases(sizes, on_set):
    """(n, (j, m)) with n drawn from sizes and tau = j/m on (or off) phase_exact(n, .)."""
    return sizes.flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(
        [(j, m) for j, m in FRACTIONS if phase_exact(n, j, m) == on_set])))


def _difference_residual(chan, sup_pos):
    """Relative residual of the channel's difference envelope against sup_pos o J."""
    k1, k2 = np.indices(sup_pos.shape)
    return relative_residual(envelope(chan, "difference") - sup_pos[k2, -k1 % chan.n], sup_pos)


@settings(max_examples=30, deadline=None)  # four channels and four N^4 symbol passes per example
@given(_cases(GRID_SIZES, True), SEEDS)
@example((5, (5, 6)), 0)
@example((17, (1, 3)), 0)
def test_exact_set_envelopes_are_the_symbol_sups(case, seed):
    # on the exact set the channel's modulus is |V_Phi sigma| at a point that
    # each (w, z) fixes exactly, and every difference k meets every position:
    # the difference envelope reads sup_pos at J k and the report's ratio is
    # 1; at tau in {0, 1} the weak ttau envelope reads sup_freq
    n, (j, m) = case
    tau = j / m
    rng = np.random.default_rng(seed)
    sigma, phi = rand_complex(rng, n, n), rand_complex(rng, n)
    sup_pos, sup_freq = symbol_sups(sigma, tau_wigner(phi, phi, tau))
    chan = operator_channel(op_tau(sigma, tau), phi)
    assert _difference_residual(chan, sup_pos) < SUITE_TOL
    if m == 1:
        assert relative_residual(envelope(chan, "ttau", tau) - sup_freq, sup_freq) < SUITE_TOL
    for s in (0.0, 1.0, 2.0):
        assert abs(almost_diag_report(sigma, tau, phi, Lattice(1, 1), s).ratio - 1) < SUITE_TOL


@settings(max_examples=30, deadline=None)
@given(_cases(st.integers(min_value=3, max_value=40), False), SEEDS)
def test_difference_envelope_is_not_the_symbol_sups_off_the_exact_set(case, seed):
    # so the exact-set test cannot pass vacuously; N = 2 stays out, where the
    # residual came as low as 8.4e-3
    n, (j, m) = case
    tau = j / m
    rng = np.random.default_rng(seed)
    sigma, phi = rand_complex(rng, n, n), rand_complex(rng, n)
    sup_pos = symbol_sups(sigma, tau_wigner(phi, phi, tau))[0]
    assert _difference_residual(operator_channel(op_tau(sigma, tau), phi), sup_pos) >= 1e-2


@settings(max_examples=30, deadline=None)
@given(_cases(st.integers(min_value=1, max_value=19).map(lambda k: 2 * k + 1), True), SEEDS)
def test_integer_utau_envelope_is_the_frequency_sups(case, seed):
    # on the exact set at odd N, t = tau (N + 1) mod N is an integer, and the
    # integer twin A = diag(-t (1 - t)^-1, -(1 - t) t^-1) mod N of U_tau pairs
    # each (w, z) with w - A z = k at the point of |V_Phi sigma| that carries
    # frequency ((1 - t) k1, t k2): the shifted envelope reads sup_freq there
    n, (j, m) = case
    t = j * (n + 1) // m % n
    assume(np.gcd(t, n) == 1 and np.gcd(1 - t, n) == 1)
    a = np.diag([-t * pow(1 - t, -1, n) % n, -(1 - t) * pow(t, -1, n) % n])
    rng = np.random.default_rng(seed)
    sigma, phi = rand_complex(rng, n, n), rand_complex(rng, n)
    sup_freq = symbol_sups(sigma, tau_wigner(phi, phi, j / m))[1]
    k1, k2 = np.indices((n, n))
    table = envelope(operator_channel(op_tau(sigma, j / m), phi), "shifted", a)
    assert relative_residual(table - sup_freq[(1 - t) * k1 % n, t * k2 % n], sup_freq) < SUITE_TOL

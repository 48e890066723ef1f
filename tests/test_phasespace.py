import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictf.diagnostics import envelope
from cyclictf.phasespace import (
    J_INV_MATRIX,
    J_MATRIX,
    Lattice,
    Weight,
    btau_matrix,
    polynomial_weight,
    utau_matrix,
)

from dense_channel import dense_channel


def scalar_weight(v, z, n):
    """Per-point oracle: the weight formula evaluated one point at a time."""
    pt = [float(c) for c in z]
    if v.premap is not None:
        m = np.asarray(v.premap, dtype=float)
        pt = [sum(float(m[i, j]) * pt[j] for j in range(2)) for i in range(2)]
    r2 = sum(min(c % n, n - c % n) ** 2 for c in pt)
    return (1.0 + r2) ** (v.s / 2.0)


def grid_image(matrix, z, n):
    """The integer matrix image of grid points z (shape (2, ...)), reduced mod N."""
    return np.rint(np.tensordot(matrix, np.asarray(z, dtype=float), axes=1)).astype(int) % n


def v_at(v, z, n):
    """A weight's value at one point."""
    return float(v(np.asarray(z, dtype=float), n))


def ttau_bin(w, z, tau, n):
    """Where the ttau envelope bins a channel entry at rows w, columns z."""
    entries = np.zeros((n * n, n * n), dtype=complex)
    entries[w[0] * n + w[1], z[0] * n + z[1]] = 1.0  # full-grid index x N + omega
    chan = dense_channel(entries=entries, lattice=Lattice(1, 1), n=n)
    table = envelope(chan, "ttau", tau)
    assert table.sum() == 1.0
    return tuple(int(k) for k in np.argwhere(table == 1.0)[0])


def wrapped_norm(z, n):
    """|z|_wrap read off the weight, since v_2(z) = 1 + |z|_wrap^2."""
    return float(np.sqrt(v_at(polynomial_weight(2.0), z, n) - 1.0))


class TestWrappedNorm:
    def test_origin(self):
        assert wrapped_norm((0, 0), 16) == 0.0

    def test_wraparound(self):
        assert wrapped_norm((15, 0), 16) == 1.0

    def test_maximal(self):
        assert wrapped_norm((8, 8), 16) == pytest.approx(8 * np.sqrt(2))

    def test_symmetric(self):
        for z in [(3, 5), (9, 1), (0, 11)]:
            neg = ((-z[0]) % 16, (-z[1]) % 16)
            assert wrapped_norm(z, 16) == pytest.approx(wrapped_norm(neg, 16))


class TestWeights:
    def test_order_zero_is_one(self):
        v = polynomial_weight(0.0)
        assert np.array_equal(v(np.array([[0.0, 3.5, 15.0], [0.0, 1.2, 8.0]]), 16), np.ones(3))

    def test_quadratic_value(self):
        assert v_at(polynomial_weight(2.0), (1, 0), 16) == pytest.approx(2.0)

    def test_order_one_value(self):
        assert v_at(polynomial_weight(1.0), (3, 4), 100) == pytest.approx(np.sqrt(26))

    def test_origin_is_one_and_even(self):
        v = polynomial_weight(1.5)
        vals = v.on_grid(12)
        assert vals[0, 0] == 1.0
        neg = np.roll(vals[::-1, ::-1], 1, axis=(0, 1))  # neg[x, w] = vals[-x, -w]
        assert np.allclose(vals, neg, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_submultiplicative_up_to_torus_constant(self, s, n):
        # v_s(w + z) <= 2^{s/2} v_s(w) v_s(z), exhaustive on the grid
        v = polynomial_weight(s)
        vals = v.on_grid(n)
        bound = 2 ** (s / 2)
        for wx in range(n):
            for ww in range(n):
                shifted = np.roll(np.roll(vals, -wx, axis=0), -ww, axis=1)
                assert np.all(shifted <= bound * vals[wx, ww] * vals + 1e-12)

    def test_compose_premap(self):
        v = polynomial_weight(1.0)
        b = np.diag([2.0, 0.5])
        composed = v.compose(b)
        assert v_at(composed, (1, 2), 16) == pytest.approx(v_at(v, (2, 1), 16))
        chained = composed.compose(J_INV_MATRIX)
        assert np.array_equal(chained.premap, b @ J_INV_MATRIX)

    def test_weight_construction_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            polynomial_weight(-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            Weight(s=-0.5)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_non_finite_order_is_refused(self, s):
        # a NaN or infinite order would put NaN or inf into every weighted mass
        with pytest.raises(ValueError, match="finite and nonnegative"):
            polynomial_weight(s)

    def test_call_keeps_point_shape(self):
        v = polynomial_weight(1.0)
        z = np.zeros((2, 3, 4, 5))
        assert v(z, 8).shape == (3, 4, 5)
        assert np.ndim(v((1.0, 2.0), 8)) == 0


PREMAPS = {
    "none": lambda t: None,
    "j_inv": lambda t: J_INV_MATRIX,
    "btau": btau_matrix,
    "utau": utau_matrix,
}


class TestWeightAgainstScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        s=st.floats(0.0, 3.0),
        premap=st.sampled_from(sorted(PREMAPS)),
        tau=st.floats(min_value=0.05, max_value=0.95),
        off=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
    )
    def test_polynomial(self, n, s, premap, tau, off):
        m = PREMAPS[premap](tau)
        v = polynomial_weight(s) if m is None else polynomial_weight(s).compose(m)
        grid = v.on_grid(n)
        expected = np.array(
            [[scalar_weight(v, (x, w), n) for w in range(n)] for x in range(n)]
        )
        assert np.allclose(grid, expected, rtol=1e-12, atol=0)
        # non-grid points, including far outside the fundamental domain
        pts = np.array([[off[0], 0.5, n + 0.25], [off[1], -0.75, 2.5 * n]])
        expected = [scalar_weight(v, pts[:, k], n) for k in range(pts.shape[1])]
        assert np.allclose(v(pts, n), expected, rtol=1e-12, atol=0)


class TestSymplecticMaps:
    def test_j_example(self):
        assert tuple(grid_image(J_MATRIX, (1, 0), 16)) == (0, 15)

    def test_j_squared_is_negation(self):
        assert np.array_equal(J_MATRIX @ J_MATRIX, -np.eye(2))
        z = np.indices((16, 16))
        assert np.array_equal(grid_image(J_MATRIX @ J_MATRIX, z, 16), (-z) % 16)

    def test_j_inverse_exhaustive(self):
        assert np.array_equal(J_INV_MATRIX @ J_MATRIX, np.eye(2))
        z = np.indices((16, 16))
        assert np.array_equal(grid_image(J_INV_MATRIX, grid_image(J_MATRIX, z, 16), 16), z)

    def test_j_preserves_the_weight(self):
        v = polynomial_weight(1.0)
        assert np.allclose(v.compose(J_MATRIX).on_grid(16), v.on_grid(16), rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 64), s=st.floats(0.0, 140.0))
    def test_j_inverse_premap_is_the_weight_bitwise(self, n, s):
        # almost_diag_report weights the class norm by v_s itself, not v_s o J^{-1}
        v = polynomial_weight(s)
        assert v.compose(J_INV_MATRIX).on_grid(n).tobytes() == v.on_grid(n).tobytes()

    def test_ttau_endpoint(self):
        # T_0(w, z) = (w0, z1)
        assert ttau_bin((3, 5), (1, 2), 0.0, 8) == (3, 2)

    def test_ttau_diagonal_fixed(self):
        for tau in (0.0, 0.3, 0.5, 1.0):
            assert ttau_bin((2, 4), (2, 4), tau, 8) == (2, 4)

    def test_ttau_midpoint(self):
        assert ttau_bin((0, 0), (2, 4), 0.5, 8) == (1, 2)

    def test_ttau_range_check(self):
        # the ttau envelope takes its tau as its parameter, and rejects it
        chan = dense_channel(entries=np.eye(64), lattice=Lattice(1, 1), n=8)
        with pytest.raises(ValueError, match=r"tau, in \[0, 1\], not 1.5"):
            envelope(chan, "ttau", 1.5)

    def test_half_point_maps(self):
        assert np.array_equal(utau_matrix(0.5), -np.eye(2))
        assert np.array_equal(btau_matrix(0.5), 2 * np.eye(2))
        assert tuple(grid_image(btau_matrix(0.5), (3, 5), 8)) == (6, 2)

    def test_utau_inverse_pair_matrices(self):
        # the unreduced linear maps are exact inverses for every tau
        for tau in (0.2, 1 / 3, 0.7):
            assert np.abs(utau_matrix(tau) @ utau_matrix(1 - tau) - np.eye(2)).max() < 1e-12

    def test_utau_inverse_pair_on_torus_at_half(self):
        # torus reduction commutes with the scaling only when both scale
        # factors are integers, i.e. at tau = 1/2 where U is plain negation
        z = np.indices((8, 8))
        u = utau_matrix(0.5)
        assert np.array_equal(grid_image(u, grid_image(u, z, 8), 8), z)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_singular_endpoints(self, tau):
        with pytest.raises(ValueError, match="singular"):
            utau_matrix(tau)
        with pytest.raises(ValueError, match="singular"):
            btau_matrix(tau)


class TestLattice:
    def test_enumeration(self):
        pts = Lattice(2, 2).points(4)
        assert pts.dtype == np.int64
        assert np.array_equal(pts, [[0, 0], [0, 2], [2, 0], [2, 2]])

    def test_frequency_degenerate(self):
        pts = Lattice(1, 4).points(4)
        assert np.array_equal(pts, [[0, 0], [1, 0], [2, 0], [3, 0]])

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            Lattice(4, 1).points(6)

    def test_count(self):
        assert Lattice(2, 4).count(16) == 8 * 4

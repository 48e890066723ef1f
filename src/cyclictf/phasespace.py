"""Finite phase-space model on Z_N x Z_N.

The grid Z_N (d = 1) replaces the real line; phase space is Z_N^2 and
non-integer images of grid points (convex pairings, the B_tau / U_tau
scalings) live on the real torus (R mod N)^2.  All identities downstream
become finite exact computations.

Conventions:
  * A set of phase-space points is one (P, 2) int64 array of rows
    (x, omega), canonical representatives in [0, N); a Lattice enumerates
    its points row-major, and a channel matrix carries its Lattice.
  * J(z1, z2) = (z2, -z1), the 90-degree phase-space rotation.  J, B_tau and
    U_tau are 2x2 matrices; envelope() pairs (w, z) by diagonal ones only
    (U_tau and the convex pairings) and bins them one coordinate at a time.
  * Distances wrap: dist(t) = min(t mod N, N - t mod N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "J_INV_MATRIX",
    "J_MATRIX",
    "Lattice",
    "Weight",
    "btau_matrix",
    "polynomial_weight",
    "utau_matrix",
]


def _check_open_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError("B_tau/U_tau singular at endpoints")


def utau_matrix(tau: float) -> np.ndarray:
    """The diagonal matrix of U_tau, for use as an envelope shift map.

    U_tau z = (-tau z1/(1-tau), -(1-tau) z2/tau); U_tau^{-1} = U_{1-tau}, U_{1/2} = -I.
    """
    _check_open_tau(tau)
    return np.diag([-tau / (1 - tau), -(1 - tau) / tau])


def btau_matrix(tau: float) -> np.ndarray:
    """The diagonal matrix of B_tau z = (z1/(1-tau), z2/tau); tau in (0, 1)."""
    _check_open_tau(tau)
    return np.diag([1.0 / (1 - tau), 1.0 / tau])


J_MATRIX = np.array([[0.0, 1.0], [-1.0, 0.0]])
J_INV_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Lattice:
    """Separable lattice a Z x b Z inside Z_N^2; a and b must divide N."""

    a: int
    b: int

    def validate(self, n: int) -> None:
        if self.a <= 0 or self.b <= 0 or n % self.a or n % self.b:
            raise ValueError("lattice must divide grid")

    def points(self, n: int) -> np.ndarray:
        """Row-major enumeration of {(j a, k b)}, a ((N/a)(N/b), 2) int64 array."""
        self.validate(n)
        jk = np.indices((n // self.a, n // self.b), dtype=np.int64).reshape(2, -1).T
        return jk * np.array([self.a, self.b])

    def count(self, n: int) -> int:
        self.validate(n)
        return (n // self.a) * (n // self.b)


@dataclass(frozen=True, eq=False)  # an array field, so compared by identity
class Weight:
    """The one weight family on phase space: v_s o premap, evaluated at the N x N grid points by on_grid.

    v_s(z) = (1 + |z|_wrap^2)^{s/2}, where |z|_wrap is the Euclidean norm of
    z with each coordinate wrapped to its distance min(t mod N, N - t mod N)
    from N Z, so v_s lives on the torus (R mod N)^2.  The optional linear
    `premap` A (a 2x2 matrix, applied before wrapping) composes it with maps
    such as J^{-1}, B_tau or U_tau.

    v_s(0) = 1, v_s is even under wrapped negation, and every member of the
    class is submultiplicative up to the torus constant:
    v_s(A(w + z)) <= 2^{s/2} v_s(Aw) v_s(Az), since A(w + z) = Aw + Az and
    1 + |a + b|_wrap^2 <= 2 (1 + |a|_wrap^2)(1 + |b|_wrap^2).
    """

    s: float
    premap: np.ndarray | None = None  # 2x2 matrix
    dim = 2  # not a field: every weight lives on Z_N^2; perfbench/spans.py reads it to count on_grid points

    def __post_init__(self) -> None:
        if not 0 <= self.s < np.inf:  # refuses NaN too
            raise ValueError("polynomial order must be finite and nonnegative")

    def compose(self, matrix: np.ndarray) -> "Weight":
        """The weight z -> v_s(A M z) of this premap A and the matrix M; premaps chain by matrix product."""
        m = np.asarray(matrix, dtype=float)
        if self.premap is not None:
            m = self.premap @ m
        return Weight(s=self.s, premap=m)

    def on_grid(self, n: int) -> np.ndarray:
        """v_s(premap z) at all N x N grid points z; a premap such as B_tau or U_tau reaches off-grid torus points."""
        pt = np.indices((n, n), dtype=float)
        if self.premap is not None:
            pt = np.tensordot(self.premap, pt, axes=1)
        r = np.mod(pt, n)
        wrapped = np.minimum(r, n - r)  # each coordinate's distance to N Z
        return (1.0 + np.sum(wrapped**2, axis=0)) ** (self.s / 2.0)


def polynomial_weight(s: float) -> Weight:
    """The polynomial family v_s; v_0 is identically 1."""
    return Weight(s=float(s))

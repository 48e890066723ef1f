"""Finite phase-space model on Z_N x Z_N.

The grid Z_N (d = 1) replaces the real line; phase space is Z_N^2 and
non-integer images of grid points (convex pairings, the B_tau / U_tau
scalings) live on the real torus (R mod N)^2.  All identities downstream
become finite exact computations.

Conventions:
  * A set of phase-space points is one (P, 2) int64 array of rows
    (x, omega), canonical representatives in [0, N).
  * J(z1, z2) = (z2, -z1), the 90-degree phase-space rotation.  J, B_tau and
    U_tau are 2x2 matrices; envelope() pairs (w, z) by 2x2 matrices too, and
    bins diagonal ones (U_tau and the convex pairings) one coordinate at a
    time.
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
    "table_weight",
    "tensor_weight",
    "utau_matrix",
    "wrapped_norm",
]


def _wrapped(t: np.ndarray, n: int) -> np.ndarray:
    """Distance from each t to the nearest multiple of N."""
    r = np.mod(t, n)
    return np.minimum(r, n - r)


def wrapped_norm(z, n: int) -> float:
    """Euclidean norm of a phase-space point with wrapped coordinates.

    Periodic substitute for |z|: sqrt(d(x)^2 + d(omega)^2) with
    d(t) = min(t mod N, N - t mod N).  Vanishes exactly on N Z^2.
    """
    return float(np.hypot(*_wrapped(np.asarray(z, dtype=float), n)))


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


@dataclass(frozen=True, eq=False)  # array fields, so compared by identity
class Weight:
    """Positive weight on the real torus (R mod N)^dim.

    Either the polynomial family v_s(z) = (1 + |z|_wrap^2)^{s/2}, or a table
    of positive values on grid points.  An optional linear `premap` (dim x dim
    matrix, applied before wrapping) composes the weight with maps such as
    J^{-1}, B_tau or U_tau.

    Polynomial weights satisfy v_s(0) = 1, evenness under wrapped negation,
    and submultiplicativity up to the torus constant:
    v_s(w + z) <= 2^{s/2} v_s(w) v_s(z).
    """

    s: float | None = None
    table: np.ndarray | None = None  # shape (N,) * dim; use table_weight()
    dim: int = 2
    premap: np.ndarray | None = None  # dim x dim matrix

    def __post_init__(self) -> None:
        if (self.s is None) == (self.table is None):
            raise ValueError("exactly one of s / table must be given")
        if self.s is not None and self.s < 0:
            raise ValueError("polynomial order must be nonnegative")

    def __call__(self, z, n: int) -> np.ndarray:
        """Values at the torus points z, shape (dim, ...) -> z.shape[1:].

        Table weights accept grid points only (up to 1e-9 after the premap).
        """
        pt = np.asarray(z, dtype=float)
        if self.premap is not None:
            pt = np.tensordot(self.premap, pt, axes=1)
        if self.s is not None:
            return (1.0 + np.sum(_wrapped(pt, n) ** 2, axis=0)) ** (self.s / 2.0)
        r = np.mod(pt, n)
        k = np.rint(r)
        if np.any(np.abs(r - k) > 1e-9):
            raise ValueError("table weight requires grid point")
        return self.table[tuple(k.astype(np.int64) % n)]

    def compose(self, matrix: np.ndarray) -> "Weight":
        """Weight z -> self(matrix z); premaps chain by matrix product."""
        m = np.asarray(matrix, dtype=float)
        if self.premap is not None:
            m = self.premap @ m
        return Weight(s=self.s, table=self.table, dim=self.dim, premap=m)

    def on_grid(self, n: int) -> np.ndarray:
        """Values at all grid points; shape (n,) for dim=1, (n, n) for dim=2."""
        return self(np.indices((n,) * self.dim), n)


def polynomial_weight(s: float, dim: int = 2) -> Weight:
    """The polynomial family v_s; v_0 is identically 1."""
    return Weight(s=float(s), dim=dim)


def table_weight(values: np.ndarray) -> Weight:
    arr = np.array(values, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("weight table must be positive")
    if arr.ndim not in (1, 2):
        raise ValueError("weight table must be 1-D or 2-D")
    return Weight(table=arr, dim=arr.ndim)


def tensor_weight(u: Weight, w: Weight, n: int) -> Weight:
    """Tensor weight m(x, omega) = u(x) w(omega) from two 1-D weights."""
    if u.dim != 1 or w.dim != 1:
        raise ValueError("tensor_weight needs 1-D factors")
    return table_weight(np.outer(u.on_grid(n), w.on_grid(n)))

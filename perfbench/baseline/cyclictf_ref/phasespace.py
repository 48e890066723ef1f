"""Finite phase-space model on Z_N x Z_N.

The grid Z_N (d = 1) replaces the real line; phase space is Z_N^2 and
non-integer images of grid points (convex pairings, the B_tau / U_tau
scalings) live on the real torus (R mod N)^2.  All identities downstream
become finite exact computations.

Conventions:
  * PhasePoint is an integer pair (x, omega), canonical representatives in
    [0, N).  RealPhasePoint is a float pair reduced to [0, N).
  * J(z1, z2) = (z2, -z1), the 90-degree phase-space rotation.
  * Distances wrap: dist(t) = min(t mod N, N - t mod N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PhasePoint = tuple[int, int]
RealPhasePoint = tuple[float, float]

__all__ = [
    "GridParams",
    "Lattice",
    "PhasePoint",
    "RealPhasePoint",
    "Weight",
    "apply_btau",
    "apply_j",
    "apply_j_inv",
    "apply_ttau",
    "apply_utau",
    "lattice_points",
    "polynomial_weight",
    "reduce_point",
    "reduce_real",
    "table_weight",
    "tensor_weight",
    "weight_eval",
    "wrapped_dist",
    "wrapped_norm",
]


@dataclass(frozen=True)
class GridParams:
    """Grid size N; signal length and modulus for all index arithmetic."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("grid size must be at least 2")


def reduce_point(z: Sequence[int], n: int) -> PhasePoint:
    """Canonical representative of an integer phase-space point."""
    return (int(z[0]) % n, int(z[1]) % n)


def reduce_real(z: Sequence[float], n: int) -> RealPhasePoint:
    """Reduce a real phase-space point to [0, N)^2."""
    return (float(z[0]) % n, float(z[1]) % n)


def wrapped_dist(t: float, n: int) -> float:
    """Distance from t to the nearest multiple of N."""
    r = t % n
    return min(r, n - r)


def wrapped_norm(z: Sequence[float], n: int) -> float:
    """Euclidean norm of a phase-space point with wrapped coordinates.

    Periodic substitute for |z|: sqrt(d(x)^2 + d(omega)^2) with
    d(t) = min(t mod N, N - t mod N).  Vanishes exactly on N Z^2.
    """
    return float(np.hypot(wrapped_dist(z[0], n), wrapped_dist(z[1], n)))


def apply_j(z: Sequence[int], n: int) -> PhasePoint:
    """J(z1, z2) = (z2, -z1) mod N."""
    return (int(z[1]) % n, (-int(z[0])) % n)


def apply_j_inv(z: Sequence[int], n: int) -> PhasePoint:
    """J^{-1}(z1, z2) = (-z2, z1) mod N."""
    return ((-int(z[1])) % n, int(z[0]) % n)


def apply_ttau(z: Sequence[float], w: Sequence[float], tau: float, n: int) -> RealPhasePoint:
    """Convex pairing ((1-tau) z1 + tau w1, tau z2 + (1-tau) w2) mod N."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("quantization parameter out of range")
    return reduce_real(((1 - tau) * z[0] + tau * w[0], tau * z[1] + (1 - tau) * w[1]), n)


def _check_open_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError("B_tau/U_tau singular at endpoints")


def apply_btau(z: Sequence[float], tau: float, n: int) -> RealPhasePoint:
    """B_tau z = (z1/(1-tau), z2/tau) mod N; requires tau in (0,1)."""
    _check_open_tau(tau)
    return reduce_real((z[0] / (1 - tau), z[1] / tau), n)


def apply_utau(z: Sequence[float], tau: float, n: int) -> RealPhasePoint:
    """U_tau z = (-tau z1/(1-tau), -(1-tau) z2/tau) mod N; tau in (0,1).

    U_tau is an involution pair across the half point: U_tau^{-1} = U_{1-tau},
    and U_{1/2} = -I.
    """
    _check_open_tau(tau)
    return reduce_real((-tau * z[0] / (1 - tau), -(1 - tau) * z[1] / tau), n)


def utau_matrix(tau: float) -> np.ndarray:
    """The diagonal matrix of U_tau, for use as an envelope shift map."""
    _check_open_tau(tau)
    return np.diag([-tau / (1 - tau), -(1 - tau) / tau])


def btau_matrix(tau: float) -> np.ndarray:
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

    def points(self, n: int) -> list[PhasePoint]:
        """Row-major enumeration of {(j a, k b)}; length (N/a)(N/b)."""
        self.validate(n)
        return [(x, w) for x in range(0, n, self.a) for w in range(0, n, self.b)]

    def count(self, n: int) -> int:
        self.validate(n)
        return (n // self.a) * (n // self.b)


def lattice_points(lattice: Lattice, n: int) -> list[PhasePoint]:
    return lattice.points(n)


@dataclass(frozen=True)
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
    table: tuple | None = None  # nested tuple, kept hashable; use table_weight()
    dim: int = 2
    premap: tuple | None = None  # row-major dim x dim matrix entries

    def __post_init__(self) -> None:
        if (self.s is None) == (self.table is None):
            raise ValueError("exactly one of s / table must be given")
        if self.s is not None and self.s < 0:
            raise ValueError("polynomial order must be nonnegative")

    def _mapped(self, z: Sequence[float]) -> tuple[float, ...]:
        if self.premap is None:
            return tuple(float(c) for c in z)
        m = np.asarray(self.premap, dtype=float).reshape(self.dim, self.dim)
        return tuple(float(c) for c in m @ np.asarray(z, dtype=float))

    def __call__(self, z: Sequence[float], n: int) -> float:
        return weight_eval(self, z, n)

    def compose(self, matrix: np.ndarray) -> "Weight":
        """Weight z -> self(matrix z); premaps chain by matrix product."""
        m = np.asarray(matrix, dtype=float)
        if self.premap is not None:
            m = np.asarray(self.premap, dtype=float).reshape(self.dim, self.dim) @ m
        return Weight(s=self.s, table=self.table, dim=self.dim, premap=tuple(m.ravel()))

    def on_grid(self, n: int) -> np.ndarray:
        """Values at all grid points; shape (n,) for dim=1, (n, n) for dim=2."""
        if self.dim == 1:
            return np.array([weight_eval(self, (t,), n) for t in range(n)])
        return np.array([[weight_eval(self, (x, w), n) for w in range(n)] for x in range(n)])


def weight_eval(v: Weight, z: Sequence[float], n: int) -> float:
    """Evaluate a weight at a (possibly non-integer) torus point."""
    pt = v._mapped(z)
    if v.s is not None:
        r2 = sum(wrapped_dist(c, n) ** 2 for c in pt)
        return float((1.0 + r2) ** (v.s / 2.0))
    idx = []
    for c in pt:
        r = c % n
        k = round(r)
        if abs(r - k) > 1e-9:
            raise ValueError("table weight requires grid point")
        idx.append(int(k) % n)
    val = np.asarray(v.table, dtype=float)
    return float(val[tuple(idx)])


def polynomial_weight(s: float, dim: int = 2) -> Weight:
    """The polynomial family v_s; v_0 is identically 1."""
    return Weight(s=float(s), dim=dim)


def table_weight(values: np.ndarray) -> Weight:
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("weight table must be positive")
    if arr.ndim == 1:
        return Weight(table=tuple(arr.tolist()), dim=1)
    if arr.ndim == 2:
        return Weight(table=tuple(map(tuple, arr.tolist())), dim=2)
    raise ValueError("weight table must be 1-D or 2-D")


def tensor_weight(u: Weight, w: Weight, n: int) -> Weight:
    """Tensor weight m(x, omega) = u(x) w(omega) from two 1-D weights."""
    if u.dim != 1 or w.dim != 1:
        raise ValueError("tensor_weight needs 1-D factors")
    return table_weight(np.outer(u.on_grid(n), w.on_grid(n)))

"""The frame operator of a Gabor system as one dense N x N matrix, the oracle for `frame_bounds` and `canonical_dual`.

S = sum_{l in Lambda} <., pi(l) phi> pi(l) phi = B B^H, with B = shift_bank(phi, Lambda)
the N x P bank of the lattice's shifts: N^2 P products, where `transforms` forms only
the N/b Hermitian b x b blocks (Walnut form) that S is made of on the index classes
t0 + i N/b.
"""

import numpy as np

from cyclictf.phasespace import Lattice
from cyclictf.transforms import shift_bank


def dense_frame_operator(phi, lattice: Lattice) -> np.ndarray:
    """S = B B^H from the N x P bank of pi(l) phi, l in Lambda."""
    bank = shift_bank(phi, lattice.points(len(phi)))
    return bank @ bank.conj().T


def adjoint_lattice(n: int, lattice: Lattice) -> Lattice:
    """Lambda° = (N/b)Z x (N/a)Z: the mu whose pi(mu) commutes with pi(l) for every l in Lambda."""
    return Lattice(n // lattice.b, n // lattice.a)

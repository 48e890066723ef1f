"""A channel matrix with given entries, for tests that bin synthetic channels.

`ChannelMatrix` holds its two N x P factors; with bank = I_P and
image = entries, every row block `bank[:, rows]^* image` is a product with
one unit per term, so the channel's entries are the given ones exactly.
"""

import numpy as np

from cyclictf.diagnostics import ChannelMatrix


def dense_channel(entries, lattice, n, tau=None) -> ChannelMatrix:
    """The channel whose P x P entries are `entries`, on the points of `lattice` in Z_N^2."""
    entries = np.asarray(entries, dtype=complex)
    return ChannelMatrix(bank=np.eye(len(entries), dtype=complex), image=entries, lattice=lattice, n=n, tau=tau)

"""Channel matrices as plain P x P arrays, for tests that bin synthetic channels
or check a channel entry by entry.

`ChannelMatrix` holds its two N x P factors; with bank = I_P and
image = entries, every row block `bank[:, rows]^* image` is a product with
one unit per term, so the channel's entries are the given ones exactly.
`channel_entries` goes the other way and stacks the N-row blocks that
`envelopes` reads.
"""

import numpy as np

from cyclictf.diagnostics import ChannelMatrix


def dense_channel(entries, lattice, n, tau=None) -> ChannelMatrix:
    """The channel whose P x P entries are `entries`, on the points of `lattice` in Z_N^2."""
    entries = np.asarray(entries, dtype=complex)
    return ChannelMatrix(bank=np.eye(len(entries), dtype=complex), image=entries, lattice=lattice, n=n, tau=tau)


def channel_entries(channel: ChannelMatrix) -> np.ndarray:
    """All P x P entries of a channel: its `rows` blocks of N rows, stacked."""
    size = channel.image.shape[1]
    return np.concatenate([channel.rows(start, start + channel.n) for start in range(0, size, channel.n)])

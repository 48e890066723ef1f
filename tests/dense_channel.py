"""Channel matrices as plain P x P arrays, for tests that bin synthetic channels
or check a channel entry by entry.

`ChannelMatrix` holds its two factors; with analysis = I_P and
image = entries, every row block `analysis[rows] @ image` is a product with
one unit per term, so the channel's entries are the given ones exactly.
`channel_entries` goes the other way and stacks N-row blocks of the entries.
"""

import numpy as np

from cyclictf.diagnostics import ChannelMatrix


def dense_channel(entries, lattice, n) -> ChannelMatrix:
    """The channel whose P x P entries are `entries`, on the points of `lattice` in Z_N^2."""
    entries = np.asarray(entries, dtype=complex)
    return ChannelMatrix(analysis=np.eye(len(entries), dtype=complex), image=entries, lattice=lattice, n=n)


def channel_entries(channel: ChannelMatrix) -> np.ndarray:
    """All P x P entries of a channel: its `rows` blocks of N rows, stacked."""
    size = channel.image.shape[1]
    return np.concatenate([channel.rows(start, start + channel.n) for start in range(0, size, channel.n)])

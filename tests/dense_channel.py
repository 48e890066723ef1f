"""Channel matrices as plain P x P arrays, for tests that bin synthetic channels
or check a channel entry by entry.

`ChannelMatrix` holds its two factors; with analysis = I_P and
image = entries, every row block `analysis[start:stop] @ image` is a product
with one unit per term, so the channel's entries are the given ones exactly.
`channel_entries` goes the other way and stacks N-row blocks of the entries.
`recording_rows` counts the row blocks that a pass reads from a channel.
"""

from dataclasses import replace

import numpy as np

from cyclictf.diagnostics import ChannelMatrix


def dense_channel(entries, lattice, n) -> ChannelMatrix:
    """The channel whose P x P entries are `entries`, on the points of `lattice` in Z_N^2."""
    entries = np.asarray(entries, dtype=complex)
    return ChannelMatrix(analysis=np.eye(len(entries), dtype=complex), image=entries, lattice=lattice, n=n)


def channel_entries(channel: ChannelMatrix) -> np.ndarray:
    """All P x P entries of a channel: its row blocks `analysis[start:start + N] @ image`, stacked."""
    size = channel.image.shape[1]
    return np.concatenate([channel.analysis[start:start + channel.n] @ channel.image
                           for start in range(0, size, channel.n)])


def recording_rows(channel: ChannelMatrix, blocks: list) -> ChannelMatrix:
    """The same channel, whose analysis operator appends each row block (start, stop) read from it to `blocks`."""

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            blocks.append((key.start, key.stop))
            return self.view(np.ndarray)[key]

    return replace(channel, analysis=channel.analysis.view(Recorded))

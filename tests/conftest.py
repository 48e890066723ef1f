import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(call, *args): the most memory traced while call(*args) ran, in bytes; every memory bound reads it."""

    def peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak

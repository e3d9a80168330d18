import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """tracemalloc peak, in bytes, of the second of two calls of a function.

    The first call warms numpy's caches, so the peak is the call's own.
    """

    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak

import tracemalloc

import pytest


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn)`` runs ``fn()`` and returns the peak of the bytes it
    held at once, as ``tracemalloc`` counts them (numpy's arrays included)."""
    def peak(fn) -> int:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak

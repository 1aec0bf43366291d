import pytest

from ellstab import traces


@pytest.fixture(autouse=True)
def no_curves_traced_yet():
    """Start every test with an empty per-prime count in traces.curve_traces.

    The count decides whether a batch reads the census table or takes the
    character sum, so without this the branch a test runs would depend on
    the tests that ran before it.
    """
    traces._traced.cache_clear()

"""Fixtures shared by the test modules."""

import pytest

from hypergraph_spectra.spectra import _openblas


@pytest.fixture
def caller_blas():
    """numpy's bundled OpenBLAS thread count, restored after the test."""
    handles = _openblas()[0]
    if not handles:
        pytest.skip("numpy does not bundle OpenBLAS here")
    saved = [get() for _, get, _ in handles]
    yield
    for (_, _, set_local), count in zip(handles, saved):
        set_local(count)

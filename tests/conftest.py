"""Fixtures shared by the test modules."""

import pytest

from hypergraph_spectra.spectra import _openblas


@pytest.fixture
def caller_blas():
    """The bundled OpenBLAS thread counts, restored after the test."""
    handles = _openblas()[0]
    if not handles:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    saved = [get() for _, get, _ in handles]
    yield
    for (_, _, set_local), count in zip(handles, saved):
        set_local(count)

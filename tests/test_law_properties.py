"""Property tests of the CDF contract that the metrics rely on, for every law
kind that ``law_from_descriptor`` builds.

``cdf`` must be monotone with values in [0, 1], and ``cdf_integral`` must be
its antiderivative: W1 areas are assembled from ``cdf_integral`` alone, with
no quadrature to fall back on.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra.laws import EmpiricalLaw, FreeConvolutionLaw, law_from_descriptor

TRAPEZOID_POINTS = 4001


@functools.cache
def _free_convolution():
    # one instance, so its density grid (about 0.2 s) is solved once
    return law_from_descriptor(
        {
            "kind": "free_convolution",
            "operands": [
                {"kind": "gaussian", "sigma2": 1.0},
                {"kind": "semicircle", "sigma2": 1.0},
            ],
        }
    )


@st.composite
def any_law(draw):
    kind = draw(st.sampled_from(["semicircle", "gaussian", "empirical", "free_convolution"]))
    if kind == "free_convolution":
        return _free_convolution()
    if kind == "empirical":
        atoms = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30))
        return law_from_descriptor({"kind": kind, "atoms": atoms})
    return law_from_descriptor({"kind": kind, "sigma2": draw(st.floats(0.01, 10.0))})


def _window(law, u):
    """A point at relative position u of the support widened by half on each side."""
    lo, hi = law.support()
    span = max(hi - lo, 1.0)
    return lo - 0.5 * span + u * 2.0 * span


@settings(max_examples=300, deadline=None)
@given(any_law(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50))
def test_cdf_is_monotone_and_in_unit_interval(law, us):
    xs = np.sort([_window(law, u) for u in us])
    f = np.asarray(law.cdf(xs))
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= 0.0)


@settings(max_examples=300, deadline=None)
@given(any_law(), st.floats(0.0, 1.0), st.floats(1e-3, 0.5))
def test_cdf_integral_is_cdf_antiderivative(law, u, width):
    x = _window(law, u)
    h = width * (law.support()[1] - law.support()[0] + 1.0)
    ts = np.linspace(x, x + h, TRAPEZOID_POINTS)
    trapezoid = float(np.trapezoid(np.asarray(law.cdf(ts)), ts))
    increment = float(law.cdf_integral(x + h)) - float(law.cdf_integral(x))
    # a step of mass w costs the trapezoid at most w dt / 2; smooth CDFs are
    # resolved to far below 1e-6
    tol = 1e-6 * max(1.0, h)
    if isinstance(law, EmpiricalLaw):
        tol += 0.5 * (ts[1] - ts[0])
    if isinstance(law, FreeConvolutionLaw):
        # the gridded antiderivative is interpolated linearly between nodes
        # dx apart, off by at most dx^2 max(f) / 8 at each end
        dx = law.grid.x[1] - law.grid.x[0]
        tol += 0.25 * dx * dx * law.grid.f.max()
    assert abs(increment - trapezoid) <= tol

"""Oracle tests of the empirical-empirical metrics against scipy.

Atoms are drawn from small grids so that ties, within and across the two
samples, are the common case.  Operands are built through both names of the
empirical type, ``laws.EmpiricalLaw`` and ``spectra.EmpiricalMeasure``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hypergraph_spectra.laws import EmpiricalLaw
from hypergraph_spectra.metrics import ks_distance, w1_distance
from hypergraph_spectra.spectra import EmpiricalMeasure

# integer grid points, scaled so that some grids are not integers
tied_atoms = st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=15),
    st.sampled_from([1.0, 0.5, 0.1, 3.0]),
).map(lambda drawn: np.asarray(drawn[0], dtype=float) * drawn[1])

empirical_types = st.sampled_from([EmpiricalLaw, EmpiricalMeasure])


# scipy's asymptotic p-value divides by zero for one-atom samples; only the
# statistic is compared
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(tied_atoms, tied_atoms, empirical_types, empirical_types)
def test_ks_matches_scipy_two_sample_statistic(a, b, type_a, type_b):
    expected = stats.ks_2samp(a, b, method="asymp").statistic
    assert abs(ks_distance(type_a(a), type_b(b)) - expected) <= 1e-12


@settings(max_examples=400, deadline=None)
@given(tied_atoms, tied_atoms, empirical_types, empirical_types)
def test_w1_matches_scipy_wasserstein_distance(a, b, type_a, type_b):
    expected = stats.wasserstein_distance(a, b)
    assert abs(w1_distance(type_a(a), type_b(b)) - expected) <= 1e-12


def test_empirical_measure_is_the_empirical_law():
    assert EmpiricalMeasure is EmpiricalLaw

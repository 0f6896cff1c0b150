"""Tests for eigenvalue extraction and empirical spectral statistics."""

import math

import numpy as np
import pytest

from hypergraph_spectra.spectra import (
    EmpiricalMeasure,
    Scaling,
    SpectralSample,
    edge_statistics,
    esd,
    gaussian_max_centering,
    load_spectrum_csv,
    low_rank_eigenvalues,
    save_spectrum_csv,
    symmetric_eigenvalues,
)


def cubic_eigenvalues(m):
    """Closed-form (trigonometric) roots of the characteristic cubic of a
    symmetric 3x3 matrix; independent of any LAPACK path."""
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    q = np.trace(m) / 3.0
    p2 = sum((m[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    det_b = np.linalg.det(b)  # determinant of a 3x3 via cofactors is exact enough
    phi = math.acos(min(1.0, max(-1.0, det_b / 2.0))) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort([lam1, lam2, lam3])[::-1]


class TestSymmetricEigenvalues:
    def test_identity(self):
        sample = symmetric_eigenvalues(np.eye(3))
        np.testing.assert_allclose(sample.eigenvalues, [1.0, 1.0, 1.0])

    def test_swap_matrix(self):
        sample = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sample.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_random_3x3_against_cubic_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            m = m + m.T
            sample = symmetric_eigenvalues(m)
            np.testing.assert_allclose(sample.eigenvalues, cubic_eigenvalues(m), atol=1e-9)

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(5)
        for n in (10, 40):
            m = rng.standard_normal((n, n))
            m = m + m.T
            lam = symmetric_eigenvalues(m).eigenvalues
            op = np.abs(lam).max()
            assert abs(lam.sum() - np.trace(m)) <= 1e-9 * op * n
            assert abs((lam**2).sum() - (m**2).sum()) <= 1e-9 * op**2 * n

    def test_backward_error_probe(self):
        # residual ||Mv - lambda v|| <= 1e-10 * ||M||_op * sqrt(n) per pair
        rng = np.random.default_rng(9)
        n = 60
        m = rng.standard_normal((n, n))
        m = m + m.T
        lam = symmetric_eigenvalues(m).eigenvalues
        w, v = np.linalg.eigh(m)
        np.testing.assert_allclose(lam, w[::-1], atol=1e-12 * np.abs(w).max() * n)
        res = np.linalg.norm(m @ v - v * w, axis=0)
        assert res.max() <= 1e-10 * np.abs(w).max() * math.sqrt(n)

    def test_scaling_factors(self):
        m = np.diag([4.0, 1.0])
        by_n = symmetric_eigenvalues(m, scaling=Scaling.BY_N)
        np.testing.assert_allclose(by_n.eigenvalues, [2.0, 0.5])
        by_nr = symmetric_eigenvalues(m, scaling=Scaling.BY_SQRT_NR, r=2)
        np.testing.assert_allclose(by_nr.eigenvalues, [2.0, 0.5])
        with pytest.raises(ValueError):
            symmetric_eigenvalues(m, scaling=Scaling.BY_SQRT_NR)

    def test_nonfinite_rejected(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            symmetric_eigenvalues(m)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_sorted_descending_invariant(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((20, 20))
        m = m + m.T
        lam = symmetric_eigenvalues(m).eigenvalues
        assert np.all(np.diff(lam) <= 0)


class TestEsd:
    def test_point_mass(self):
        sample = SpectralSample(eigenvalues=np.array([0.0, 0.0]))
        measure = esd(sample)
        assert measure.cdf(0.0) == 1.0
        assert measure.cdf(-1e-9) == 0.0

    def test_two_atoms(self):
        measure = esd(SpectralSample(eigenvalues=np.array([1.0, -1.0])))
        assert measure.cdf(0.0) == 0.5

    def test_single_trial_eesd_is_esd(self):
        # the averaged-CDF estimator over one trial is the trial's own ESD
        lam = np.array([2.0, 0.5, -1.0])
        measure = esd(SpectralSample(eigenvalues=lam))
        grid = np.linspace(-2, 3, 50)
        single = np.searchsorted(np.sort(lam), grid, side="right") / 3
        np.testing.assert_array_equal(measure.cdf(grid), single)


class TestEmpiricalStieltjes:
    def test_point_mass_at_zero(self):
        measure = EmpiricalMeasure(atoms=[0.0])
        assert measure.stieltjes(1j) == pytest.approx(1j)

    def test_large_z_asymptote(self):
        measure = EmpiricalMeasure(atoms=[3.0, -1.0, 0.4])
        z = 1e6j
        value = measure.stieltjes(z)
        assert abs(value - (-1.0 / z)) <= 1e-5 * abs(1.0 / z)

    def test_two_atom_value(self):
        # (1/2)(1/(1-i) + 1/(-1-i)) = i/2 by direct complex arithmetic
        measure = EmpiricalMeasure(atoms=[1.0, -1.0])
        oracle = 0.5 * (1.0 / (1.0 - 1j) + 1.0 / (-1.0 - 1j))
        assert oracle == pytest.approx(0.5j)
        assert measure.stieltjes(1j) == pytest.approx(oracle)

    def test_upper_half_plane_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            measure = EmpiricalMeasure(atoms=rng.standard_normal(9))
            for z in (1j, 0.5 + 0.1j, -2.0 + 3j):
                assert measure.stieltjes(z).imag > 0

    def test_lower_half_plane_rejected(self):
        measure = EmpiricalMeasure(atoms=[0.0])
        with pytest.raises(ValueError):
            measure.stieltjes(1.0 - 1j)


class TestLowRankEigenvalues:
    def test_constant_vector(self):
        n = 7
        lam_max, lam_min = low_rank_eigenvalues(0.0, 1.0, 0.0, np.ones(n))
        assert lam_max == pytest.approx(2.0 * n)
        assert lam_min == pytest.approx(0.0, abs=1e-12)

    def test_centered_vector_is_symmetric(self):
        v = np.array([1.0, -1.0, 2.0, -2.0])
        v = v - v.mean()
        s = math.sqrt(np.mean(v**2))
        lam_max, lam_min = low_rank_eigenvalues(0.0, 1.5, 3.0, v)
        assert lam_max == pytest.approx(4 * 1.5 * s)
        assert lam_min == pytest.approx(-4 * 1.5 * s)

    def test_random_instances_against_dense_solver(self):
        rng = np.random.default_rng(6)
        n = 6
        for _ in range(100):
            alpha, beta = rng.uniform(0.1, 2.0, 2)
            u = rng.standard_normal()
            v = rng.standard_normal(n)
            p = alpha * u * np.ones((n, n)) + beta * (
                np.ones(n)[:, None] * v[None, :] + v[:, None] * np.ones(n)[None, :]
            )
            dense = np.linalg.eigvalsh(p)
            lam_max, lam_min = low_rank_eigenvalues(alpha, beta, u, v)
            scale = max(abs(dense[-1]), abs(dense[0]), 1e-12)
            assert abs(lam_max - dense[-1]) <= 1e-9 * scale
            assert abs(lam_min - dense[0]) <= 1e-9 * scale
            # remaining eigenvalues vanish
            assert np.abs(dense[1:-1]).max() <= 1e-9 * scale

    def test_too_small_dimension(self):
        with pytest.raises(ValueError):
            low_rank_eigenvalues(1.0, 1.0, 0.0, np.array([1.0]))


class TestEdgeStatistics:
    def test_first(self):
        s = SpectralSample(eigenvalues=np.array([3.0, 2.0, 1.0]))
        assert edge_statistics(s, 1) == (3.0, 1.0)

    def test_middle(self):
        s = SpectralSample(eigenvalues=np.array([3.0, 2.0, 1.0]))
        assert edge_statistics(s, 2) == (2.0, 2.0)

    def test_last_swaps(self):
        s = SpectralSample(eigenvalues=np.array([3.0, 2.0, 1.0]))
        assert edge_statistics(s, 3) == (1.0, 3.0)

    def test_out_of_range(self):
        s = SpectralSample(eigenvalues=np.array([1.0]))
        with pytest.raises(ValueError):
            edge_statistics(s, 2)


class TestGaussianMaxCentering:
    def test_value_n1000(self):
        assert gaussian_max_centering(1000) == pytest.approx(3.11647, abs=1e-5)

    def test_monotone_from_16(self):
        values = [gaussian_max_centering(n) for n in range(16, 4000, 7)]
        assert values[0] > 0
        assert np.all(np.diff(values) > 0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            gaussian_max_centering(2)

    def test_gumbel_mean_monte_carlo(self):
        # sample mean of the max of 1000 Gaussians is near a_n plus the
        # Gumbel mean correction gamma / sqrt(2 log n)
        rng = np.random.default_rng(42)
        n, trials = 1000, 5000
        maxima = rng.standard_normal((trials, n)).max(axis=1)
        gamma_euler = 0.5772156649015329
        predicted = gaussian_max_centering(n) + gamma_euler / math.sqrt(2 * math.log(n))
        assert abs(maxima.mean() - predicted) < 0.1


def sorted_w2_squared(lam_a, lam_b):
    """Squared Wasserstein-2 between two same-size spectra: sorted matching."""
    return float(np.mean((np.sort(lam_a) - np.sort(lam_b)) ** 2))


class TestMatrixInequalities:
    """Random-instance suites for the classical perturbation inequalities."""

    def test_eigenvalue_matching_bound(self):
        # d_W2(esd A, esd B)^2 <= ||A - B||_F^2 / n on 200 random pairs
        rng = np.random.default_rng(14)
        n = 10
        for _ in range(200):
            a = rng.standard_normal((n, n))
            a = a + a.T
            b = a + 0.5 * (lambda d: d + d.T)(rng.standard_normal((n, n)))
            w2 = sorted_w2_squared(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
            bound = np.sum((a - b) ** 2) / n
            assert w2 <= bound + 1e-10

    def test_rank_perturbation_ks_bound(self):
        # KS between ESDs of A and A + (rank k) <= k/n
        rng = np.random.default_rng(15)
        n = 50
        for k in (1, 2, 5):
            for _ in range(67):
                a = rng.standard_normal((n, n))
                a = a + a.T
                vecs = rng.standard_normal((n, k))
                signs = rng.choice([-1.0, 1.0], size=k)
                p = (vecs * signs) @ vecs.T * 0.8
                lam_a = np.sort(np.linalg.eigvalsh(a))
                lam_b = np.sort(np.linalg.eigvalsh(a + p))
                grid = np.union1d(lam_a, lam_b)
                fa = np.searchsorted(lam_a, grid, side="right") / n
                fb = np.searchsorted(lam_b, grid, side="right") / n
                assert np.abs(fa - fb).max() <= k / n + 1e-10

    def test_additive_perturbation_eigenvalue_bound(self):
        # |lambda_i(A+B) - lambda_i(A)| <= ||B||_op for every i
        rng = np.random.default_rng(16)
        n = 12
        for _ in range(200):
            a = rng.standard_normal((n, n))
            a = a + a.T
            b = rng.standard_normal((n, n))
            b = b + b.T
            lam_a = np.linalg.eigvalsh(a)
            lam_ab = np.linalg.eigvalsh(a + b)
            op_b = np.abs(np.linalg.eigvalsh(b)).max()
            assert np.abs(lam_ab - lam_a).max() <= op_b + 1e-10


class TestSpectrumCsv:
    def test_round_trip_with_provenance(self, tmp_path):
        sample = SpectralSample(
            eigenvalues=np.array([2.5, 0.0, -1.25]),
            scaling=Scaling.BY_SQRT_N,
            ensemble="gaussian_surrogate",
            seed=77,
        )
        path = tmp_path / "spec.csv"
        save_spectrum_csv(sample, path)
        text = path.read_text()
        assert text.startswith("#")
        assert "scaling=by_sqrt_n" in text and "seed=77" in text
        loaded = load_spectrum_csv(path)
        np.testing.assert_array_equal(loaded.eigenvalues, sample.eigenvalues)
        assert loaded.scaling == sample.scaling
        assert loaded.ensemble == sample.ensemble
        assert loaded.seed == 77

    def test_row_count(self, tmp_path):
        lam = np.sort(np.random.default_rng(0).standard_normal(17))[::-1]
        path = tmp_path / "spec.csv"
        save_spectrum_csv(SpectralSample(eigenvalues=lam), path)
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 17  # header + one eigenvalue per line

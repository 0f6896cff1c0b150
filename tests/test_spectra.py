"""Tests for eigenvalue extraction, empirical spectral distributions and the
spectrum CSV format."""

import functools
import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from hypergraph_spectra import spectra
from hypergraph_spectra.combinatorics import ModelParams
from hypergraph_spectra.experiments import ExperimentConfig, run_edge_bbp
from hypergraph_spectra.gham import laplacian, sample_surrogate
from hypergraph_spectra.laws import EmpiricalLaw
from hypergraph_spectra.spectra import (
    EigensolverError,
    EmpiricalMeasure,
    Scaling,
    extreme_eigenvalues,
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
        lam = symmetric_eigenvalues(np.eye(3))
        np.testing.assert_allclose(lam, [1.0, 1.0, 1.0])

    def test_swap_matrix(self):
        lam = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(lam, [1.0, -1.0], atol=1e-12)

    def test_random_3x3_against_cubic_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            m = m + m.T
            lam = symmetric_eigenvalues(m)
            np.testing.assert_allclose(lam, cubic_eigenvalues(m), atol=1e-9)

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(5)
        for n in (10, 40):
            m = rng.standard_normal((n, n))
            m = m + m.T
            lam = symmetric_eigenvalues(m)
            op = np.abs(lam).max()
            assert abs(lam.sum() - np.trace(m)) <= 1e-9 * op * n
            assert abs((lam**2).sum() - (m**2).sum()) <= 1e-9 * op**2 * n

    def test_backward_error_probe(self):
        # residual ||Mv - lambda v|| <= 1e-10 * ||M||_op * sqrt(n) per pair
        rng = np.random.default_rng(9)
        n = 60
        m = rng.standard_normal((n, n))
        m = m + m.T
        lam = symmetric_eigenvalues(m)
        w, v = np.linalg.eigh(m)
        np.testing.assert_allclose(lam, w[::-1], atol=1e-12 * np.abs(w).max() * n)
        res = np.linalg.norm(m @ v - v * w, axis=0)
        assert res.max() <= 1e-10 * np.abs(w).max() * math.sqrt(n)

    def test_scaling_factors(self):
        m = np.diag([4.0, 1.0])
        by_n = symmetric_eigenvalues(m, scaling=Scaling.BY_N)
        np.testing.assert_allclose(by_n, [2.0, 0.5])
        by_nr = symmetric_eigenvalues(m, scaling=Scaling.BY_SQRT_NR, r=2)
        np.testing.assert_allclose(by_nr, [2.0, 0.5])
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
        lam = symmetric_eigenvalues(m)
        assert np.all(np.diff(lam) <= 0)


class TestEsd:
    def test_point_mass(self):
        measure = EmpiricalLaw(np.array([0.0, 0.0]))
        assert measure.cdf(0.0) == 1.0
        assert measure.cdf(-1e-9) == 0.0

    def test_two_atoms(self):
        measure = EmpiricalLaw(np.array([1.0, -1.0]))
        assert measure.cdf(0.0) == 0.5

    def test_single_trial_eesd_is_esd(self):
        # the averaged-CDF estimator over one trial is the trial's own ESD
        lam = np.array([2.0, 0.5, -1.0])
        measure = EmpiricalLaw(lam)
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
        m = np.diag([3.0, 2.0, 1.0])
        assert extreme_eigenvalues(m, 1, 0).tolist() == [3.0, 1.0]

    def test_middle(self):
        m = np.diag([3.0, 2.0, 1.0])
        assert extreme_eigenvalues(m, 2, 0).tolist() == [3.0, 2.0, 2.0, 1.0]

    def test_last_swaps(self):
        m = np.diag([3.0, 2.0, 1.0])
        assert extreme_eigenvalues(m, 3, 0).tolist() == [3.0, 2.0, 1.0, 3.0, 2.0, 1.0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(np.eye(1), 2, 0)
        with pytest.raises(ValueError):
            extreme_eigenvalues(np.eye(5), 0, 0)


def dense_extremes(m, depth):
    lam = np.linalg.eigvalsh(m)[::-1]
    return np.concatenate([lam[:depth], lam[lam.size - depth:]])


def assert_agrees_with_dense(m, depth, seed=0):
    """Lanczos extremes equal the dense solver's to 1e-10 relative; values near
    zero are compared on the scale of the spectral norm."""
    expected = dense_extremes(m, depth)
    atol = 1e-10 * np.abs(expected).max()
    np.testing.assert_allclose(
        extreme_eigenvalues(m, depth, seed), expected, rtol=1e-10, atol=atol
    )


class TestExtremeEigenvalues:
    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(11)
        for n in (20, 90, 300):
            m = rng.standard_normal((n, n))
            m = m + m.T
            for depth in (1, 2, 4):
                assert_agrees_with_dense(m, depth, seed=n + depth)

    def test_bulk_edge_surrogate_r3(self):
        # r = 3 has no outlier: both ends sit on the semicircle edge
        _, g = sample_surrogate(ModelParams(n=600, r=3, p=0.5), 4)
        assert_agrees_with_dense(g, 1)
        assert_agrees_with_dense(g, 3)

    def test_r2_laplacian_with_exact_zero_eigenvalue(self):
        _, g = sample_surrogate(ModelParams(n=10, r=2, p=0.5), 5)
        lap = laplacian(g)
        assert np.abs(lap @ np.ones(10)).max() < 1e-12
        # depth 4 at n = 10 reaches the zero eigenvalue from the top end
        assert_agrees_with_dense(lap, 4)
        _, g = sample_surrogate(ModelParams(n=200, r=2, p=0.5), 5)
        assert_agrees_with_dense(laplacian(g), 2)

    def test_degenerate_spectrum(self):
        # four eigenvalues of multiplicity 15: the Krylov space from any start
        # vector is invariant after four steps
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        m = q @ np.diag(np.repeat([3.0, 1.0, -0.5, -2.0], 15)) @ q.T
        m = (m + m.T) / 2
        lam = extreme_eigenvalues(m, 2, 4)
        np.testing.assert_allclose(lam, [3.0, 3.0, -2.0, -2.0], rtol=1e-12)
        assert extreme_eigenvalues(m, 2, 4).tobytes() == lam.tobytes()

    def test_dense_branch_at_tiny_n(self, monkeypatch):
        def no_lanczos(*args, **kwargs):
            raise AssertionError("Lanczos called where the dense solver should run")

        monkeypatch.setattr(spectra, "eigsh", no_lanczos)
        m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        root = math.sqrt(2.0)
        np.testing.assert_allclose(extreme_eigenvalues(m, 1, 0), [2.0 + root, 2.0 - root])
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 7))
        x = x + x.T
        np.testing.assert_array_equal(extreme_eigenvalues(x, 3, 0), dense_extremes(x, 3))

    def test_same_seed_same_bits_other_seed_same_values(self):
        _, g = sample_surrogate(ModelParams(n=400, r=4, p=0.5), 8)
        first = extreme_eigenvalues(g, 2, 21)
        extreme_eigenvalues(g + np.eye(400), 2, 22)  # another solve in between
        np.testing.assert_array_equal(extreme_eigenvalues(g, 2, 21), first)
        np.testing.assert_allclose(extreme_eigenvalues(g, 2, 99), first, rtol=1e-12)

    def test_no_convergence_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(spectra, "eigsh", functools.partial(eigsh, maxiter=1))
        # one restart cycle of 80 Lanczos vectors cannot resolve the bulk edge
        _, g = sample_surrogate(ModelParams(n=1500, r=3, p=0.5), 9)
        with pytest.raises(EigensolverError) as info:
            extreme_eigenvalues(g, 2, 0)
        err = info.value
        assert (err.n, err.depth, err.ncv) == (1500, 2, 80)
        assert 0 <= err.converged < 4
        assert "n=1500" in str(err) and "ncv=80" in str(err)

    def test_edge_bbp_threads_bit_identical_with_solves_between(self):
        base = dict(kind="edge_bbp", n=500, r=4, trials=4, master_seed=13)
        _, g = sample_surrogate(ModelParams(n=300, r=3, p=0.5), 1)
        records = []
        for _ in range(2):
            for threads in (1, 2):
                records.append(run_edge_bbp(ExperimentConfig(**base, threads=threads)))
                extreme_eigenvalues(g, 2, 5)
        first = records[0]
        for rec in records[1:]:
            assert rec.trials == first.trials
            assert rec.aggregate == first.aggregate
            assert rec.data["eigenvalues"].tobytes() == first.data["eigenvalues"].tobytes()


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
        lam = np.array([2.5, 0.0, -1.25])
        path = tmp_path / "spec.csv"
        save_spectrum_csv(lam, path, "gaussian_surrogate", 77, Scaling.BY_SQRT_N)
        text = path.read_text()
        assert text.startswith("#")
        assert "scaling=by_sqrt_n" in text and "seed=77" in text
        loaded = load_spectrum_csv(path)
        np.testing.assert_array_equal(loaded.atoms, lam[::-1])

    def test_row_count(self, tmp_path):
        lam = np.sort(np.random.default_rng(0).standard_normal(17))[::-1]
        path = tmp_path / "spec.csv"
        save_spectrum_csv(lam, path, "", None, Scaling.RAW)
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 17  # header + one eigenvalue per line

    @pytest.mark.parametrize(
        "lam, tags, expected",
        [
            (
                [2.5, 0.1, -0.0, -1.0 / 3.0],
                ("gaussian_surrogate", 77, Scaling.BY_SQRT_N),
                "# ensemble=gaussian_surrogate seed=77 scaling=by_sqrt_n\neigenvalue\r\n"
                "2.5\r\n0.1\r\n-0.0\r\n-0.3333333333333333\r\n",
            ),
            (
                [1e-300, -2e20],
                ("", None, Scaling.RAW),
                "# ensemble= seed=None scaling=raw\neigenvalue\r\n1e-300\r\n-2e+20\r\n",
            ),
        ],
    )
    def test_pinned_bytes(self, tmp_path, lam, tags, expected):
        # the expected text was written by the previous, object-based writer;
        # the values are literals, so no LAPACK bits enter
        path = tmp_path / "spec.csv"
        save_spectrum_csv(np.array(lam), path, *tags)
        assert path.read_bytes() == expected.encode()

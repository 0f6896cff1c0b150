"""Tests for matrix construction, covariance structure, and exact identities."""

import math

import numpy as np
import pytest

from hypergraph_spectra.combinatorics import (
    ModelParams,
    sample_hypergraph,
)
from hypergraph_spectra.gham import (
    SurrogateComponents,
    adjacency_from_hypergraph,
    covariance_params,
    gham_from_adjacency,
    laplacian,
    laplacian_tilde,
    sample_surrogate,
    surrogate_matrix,
)
from hypergraph_spectra.combinatorics import HypergraphSample
from oracles import edge_matrix_trace, enumerate_edges, gham_from_weights, lipschitz_constants


def indicator_matrix(n, edge):
    """Brute-force edge indicator matrix a a^T - diag(a) (1-indexed edge)."""
    a = np.zeros(n)
    a[np.asarray(edge) - 1] = 1.0
    return np.outer(a, a) - np.diag(a)


class TestAdjacency:
    def test_single_edge(self):
        params = ModelParams(4, 3, 0.5)
        sample = HypergraphSample(params=params, edges=((1, 2, 3),), seed=0)
        a = adjacency_from_hypergraph(sample)
        expected = np.zeros((4, 4))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            expected[i, j] = expected[j, i] = 1.0
        np.testing.assert_array_equal(a, expected)

    def test_empty(self):
        params = ModelParams(5, 3, 0.5)
        sample = HypergraphSample(params=params, edges=(), seed=0)
        np.testing.assert_array_equal(adjacency_from_hypergraph(sample), np.zeros((5, 5)))

    def test_complete_hypergraph_counts_pairs(self):
        # every pair lies in C(n-2, r-2) = 4 of the 20 edges
        sample = sample_hypergraph(ModelParams(6, 3, 1.0), 0)
        a = adjacency_from_hypergraph(sample)
        off = ~np.eye(6, dtype=bool)
        assert np.all(a[off] == 4.0)
        assert np.all(np.diag(a) == 0.0)

    def test_against_brute_force(self):
        sample = sample_hypergraph(ModelParams(8, 3, 0.4), 17)
        a = adjacency_from_hypergraph(sample)
        brute = sum(indicator_matrix(8, e) for e in sample.edges)
        np.testing.assert_array_equal(a, brute)


class TestGhamFromAdjacency:
    def test_complete_case_value(self):
        # n=6, r=3, p=0.5, all edges present: every off-diagonal is
        # (4 - 0.5*4) / (0.5 * 2) = 2
        params = ModelParams(6, 3, 0.5)
        sample = sample_hypergraph(params, 3)
        full = HypergraphSample(params=params, edges=tuple(enumerate_edges(6, 3)), seed=0)
        h = gham_from_adjacency(adjacency_from_hypergraph(full), params)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(h[off], 2.0)
        np.testing.assert_array_equal(np.diag(h), 0.0)

    def test_exactly_centered_input_gives_zero(self):
        params = ModelParams(6, 3, 0.5)
        a = np.full((6, 6), params.p * params.edges_per_pair)
        np.fill_diagonal(a, 0.0)
        h = gham_from_adjacency(a, params)
        np.testing.assert_allclose(h, 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_variance_rejected(self, p):
        params = ModelParams(6, 3, p)
        with pytest.raises(ValueError, match="0 < p < 1"):
            gham_from_adjacency(np.zeros((6, 6)), params)

    def test_unit_variance_monte_carlo(self):
        # off-diagonal variance within 1 +- 0.1 over 5000 draws
        params = ModelParams(8, 3, 0.4)
        values = np.empty(5000)
        for i in range(5000):
            h = gham_from_adjacency(
                adjacency_from_hypergraph(sample_hypergraph(params, i)), params
            )
            values[i] = h[0, 1]
        assert abs(values.mean()) < 0.1
        assert abs(values.var() - 1.0) < 0.1

    def test_entry_covariances_monte_carlo(self):
        # 4-sigma bands (self-calibrated standard errors) on the entry
        # covariances at overlap 0 and 1 and on the unit variance
        params = ModelParams(8, 3, 0.4)
        cov = covariance_params(params)
        trials = 20_000
        h12 = np.empty(trials)
        h34 = np.empty(trials)
        h13 = np.empty(trials)
        for i in range(trials):
            h = gham_from_adjacency(
                adjacency_from_hypergraph(sample_hypergraph(params, i)), params
            )
            h12[i], h34[i], h13[i] = h[0, 1], h[2, 3], h[0, 2]
        for x, y, target in ((h12, h34, cov.rho), (h12, h13, cov.gamma)):
            products = x * y
            estimate = products.mean() - x.mean() * y.mean()
            se = products.std(ddof=1) / math.sqrt(trials)
            assert abs(estimate - target) < 4.0 * se
        squares = h12 * h12
        se = squares.std(ddof=1) / math.sqrt(trials)
        assert abs(squares.mean() - h12.mean() ** 2 - 1.0) < 4.0 * se

    def test_matches_weight_route(self):
        # standardising the sampled adjacency equals building from the
        # standardised inclusion weights directly
        params = ModelParams(7, 3, 0.4)
        sample = sample_hypergraph(params, 5)
        h_a = gham_from_adjacency(adjacency_from_hypergraph(sample), params)
        included = {tuple(e) for e in sample.edges.tolist()}
        scale = math.sqrt(params.p * (1 - params.p))
        weights = np.array(
            [((e in included) - params.p) / scale for e in enumerate_edges(7, 3)]
        )
        h_w = gham_from_weights(params, weights)
        np.testing.assert_allclose(h_a, h_w, atol=1e-12)


class TestCovarianceParams:
    def test_example_n10_r4(self):
        cov = covariance_params(ModelParams(10, 4, 0.5))
        assert cov.gamma == pytest.approx(0.25)
        assert cov.rho == pytest.approx(1 / 28)
        assert cov.alpha == pytest.approx(0.188982, abs=1e-6)
        assert cov.beta == pytest.approx(0.462910, abs=1e-6)
        assert cov.theta == pytest.approx(0.731925, abs=1e-6)

    def test_r2_is_uncorrelated_wigner_case(self):
        cov = covariance_params(ModelParams(50, 2, 0.5))
        assert cov.rho == 0.0 and cov.gamma == 0.0
        assert cov.theta == 1.0 and cov.alpha == 0.0 and cov.beta == 0.0

    def test_consistency_identities_exhaustive(self):
        for n in range(4, 201):
            for r in range(4, n + 1):
                cov = covariance_params(ModelParams(n, r, 0.5))
                assert 0.0 <= cov.rho <= cov.gamma <= 1.0
                assert abs(cov.alpha**2 - cov.rho) < 1e-12
                assert abs(cov.alpha**2 + cov.beta**2 - cov.gamma) < 1e-12
                assert abs(cov.alpha**2 + 2 * cov.beta**2 + cov.theta**2 - 1.0) < 1e-12


class TestSurrogate:
    def test_zero_u_v_leaves_scaled_wigner(self):
        cov = covariance_params(ModelParams(10, 4, 0.5))
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((10, 10))
        z = (raw + raw.T) / math.sqrt(2)
        comp = SurrogateComponents(U=0.0, V=np.zeros(10), Z=z, seed=0)
        g = surrogate_matrix(comp, cov)
        np.testing.assert_allclose(g, cov.theta * z)

    def test_reproducible_and_zero_diagonal(self):
        params = ModelParams(12, 4, 0.5)
        comp1, g1 = sample_surrogate(params, 7)
        comp2, g2 = sample_surrogate(params, 7)
        np.testing.assert_array_equal(g1, g2)
        assert comp1.U == comp2.U
        np.testing.assert_array_equal(np.diag(g1), 0.0)
        np.testing.assert_allclose(g1, g1.T)

    def test_entry_formula(self):
        params = ModelParams(9, 4, 0.5)
        cov = covariance_params(params)
        comp, g = sample_surrogate(params, 42)
        i, j = 2, 5
        expected = cov.alpha * comp.U + cov.beta * (comp.V[i] + comp.V[j]) + cov.theta * comp.Z[i, j]
        assert g[i, j] == pytest.approx(expected, rel=1e-12)

    def test_goe_diagonal_variance_convention(self):
        # Z has off-diagonal variance 1 and diagonal variance 2
        params = ModelParams(40, 4, 0.5)
        diag_vals, off_vals = [], []
        for seed in range(300):
            comp, _ = sample_surrogate(params, seed)
            diag_vals.extend(np.diag(comp.Z))
            off_vals.extend(comp.Z[0, 1:6])
        assert np.var(diag_vals) == pytest.approx(2.0, abs=0.15)
        assert np.var(off_vals) == pytest.approx(1.0, abs=0.15)

    def test_covariance_monte_carlo_20000(self):
        # acceptance-grade 4-sigma bands on rho (disjoint pairs), gamma
        # (one shared vertex) and the unit entry variance
        params = ModelParams(10, 4, 0.5)
        cov = covariance_params(params)
        trials = 20_000
        e12 = np.empty(trials)
        e34 = np.empty(trials)
        e13 = np.empty(trials)
        for i in range(trials):
            _, g = sample_surrogate(params, i)
            e12[i], e34[i], e13[i] = g[0, 1], g[2, 3], g[0, 2]
        se = 4.0 / math.sqrt(trials)
        cov_disjoint = np.mean(e12 * e34) - e12.mean() * e34.mean()
        cov_shared = np.mean(e12 * e13) - e12.mean() * e13.mean()
        assert abs(cov_disjoint - cov.rho) < se * math.sqrt(1 + cov.rho**2)
        assert abs(cov_shared - cov.gamma) < se * math.sqrt(1 + cov.gamma**2)
        assert abs(e12.var() - 1.0) < se * math.sqrt(2)


class TestLaplacians:
    def test_annihilates_ones(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((7, 7))
            x = x + x.T
            l = laplacian(x)
            assert np.abs(l @ np.ones(7)).max() <= 1e-10 * max(np.abs(x).max(), 1.0) * 7

    def test_path_graph(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(laplacian(x), [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_eigenvalue_with_ones_vector(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 5))
        x = x + x.T
        lam, vec = np.linalg.eigh(laplacian(x))
        idx = int(np.argmin(np.abs(lam)))
        assert abs(lam[idx]) < 1e-10
        direction = vec[:, idx] / vec[:, idx][0]
        np.testing.assert_allclose(direction, np.ones(5), atol=1e-9)

    def test_tilde_equals_laplacian_at_r2(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 6))
        x = x + x.T
        np.testing.assert_array_equal(laplacian_tilde(x, 2), laplacian(x))

    def test_tilde_zero_matrix(self):
        np.testing.assert_array_equal(laplacian_tilde(np.zeros((4, 4)), 3), np.zeros((4, 4)))

    def test_tilde_hand_example(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(laplacian_tilde(x, 3), [[1.0, -2.0], [-2.0, 1.0]])

    def test_tilde_domain_error(self):
        with pytest.raises(ValueError):
            laplacian_tilde(np.zeros((3, 3)), 1)


class TestEdgeMatrixTrace:
    def test_identical_edges(self):
        assert edge_matrix_trace((1, 2, 3), (1, 2, 3)) == 6

    def test_disjoint(self):
        assert edge_matrix_trace((1, 2, 3), (4, 5, 6)) == 0

    def test_two_shared(self):
        e1, e2 = (1, 2, 3), (2, 3, 6)
        assert edge_matrix_trace(e1, e2) == 2
        q1, q2 = indicator_matrix(6, e1), indicator_matrix(6, e2)
        assert np.trace(q1 @ q2) == pytest.approx(2.0)

    def test_exhaustive_against_matrix_products(self):
        # every edge pair for every 2 <= r <= 4, r <= n <= 8
        for r in (2, 3, 4):
            for n in range(r, 9):
                edges = enumerate_edges(n, r)
                mats = {e: indicator_matrix(n, e) for e in edges}
                for e1 in edges:
                    for e2 in edges:
                        assert edge_matrix_trace(e1, e2) == pytest.approx(
                            np.trace(mats[e1] @ mats[e2])
                        )


class TestLipschitzConstants:
    def test_exact_values_n8_r2(self):
        delta_sq, gamma_sq, xi_sq = lipschitz_constants(ModelParams(8, 2, 0.5))
        assert delta_sq == pytest.approx(0.25)
        assert gamma_sq == pytest.approx(1.0)
        assert xi_sq == pytest.approx(2.0)

    def test_closed_form_bounds(self):
        for n, r in [(8, 2), (8, 3), (20, 5), (50, 10), (100, 60)]:
            delta_sq, gamma_sq, xi_sq = lipschitz_constants(ModelParams(n, r, 0.5))
            assert delta_sq <= r * r / n + 1e-12
            assert gamma_sq <= r + 1e-12
            assert xi_sq <= r / (r - 1) + r * r / n + 1e-12

    def test_frobenius_inequalities_on_random_directions(self):
        # the three matrix maps are Lipschitz with the computed constants
        params = ModelParams(8, 3, 0.5)
        m = params.num_possible_edges
        delta_sq, gamma_sq, xi_sq = lipschitz_constants(params)
        rng = np.random.default_rng(8)
        n, r = params.n, params.r
        for _ in range(500):
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            hx, hy = gham_from_weights(params, x), gham_from_weights(params, y)
            step = np.linalg.norm(x - y)
            d_h = np.linalg.norm(hx - hy) / math.sqrt(n)
            d_l = np.linalg.norm(laplacian(hx) - laplacian(hy)) / math.sqrt(n * r)
            d_lt = np.linalg.norm(laplacian_tilde(hx, r) - laplacian_tilde(hy, r)) / math.sqrt(n)
            slack = 1e-10
            assert d_h <= math.sqrt(delta_sq) * step * (1 + slack)
            assert d_l <= math.sqrt(gamma_sq) * step * (1 + slack)
            assert d_lt <= math.sqrt(xi_sq) * step * (1 + slack)


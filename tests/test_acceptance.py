"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the observed statistic against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every experiment is
seeded and deterministic; total runtime is a few minutes on a laptop.
"""

import itertools
import math
import time

import numpy as np

from hypergraph_spectra.combinatorics import ModelParams
from hypergraph_spectra.experiments import (
    ExperimentConfig,
    run_bulk,
    run_concentration,
    run_edge_bbp,
    run_edge_regimes,
    run_laplacian_bulk,
    run_laplacian_edge,
    run_universality,
)
from hypergraph_spectra.gham import (
    covariance_params,
    laplacian,
    laplacian_tilde,
    sample_surrogate,
)
from hypergraph_spectra.laws import (
    EmpiricalLaw,
    GaussianLaw,
    SemicircleLaw,
    free_additive_convolution,
    semicircle_density,
)
from hypergraph_spectra.spectra import low_rank_eigenvalues
from oracles import (
    edge_matrix_trace,
    enumerate_edges,
    gham_from_weights,
    lipschitz_constants,
    stieltjes_inversion_density,
)

THREADS = 4


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")


class TestAcceptance:
    def test_c01_bulk_lsd(self):
        t0 = time.perf_counter()
        cfg = ExperimentConfig(
            kind="bulk", n=500, r=100, trials=20, master_seed=11, threads=THREADS
        )
        rec = run_bulk(cfg)
        elapsed = time.perf_counter() - t0
        ks = rec.aggregate["mean_esd_ks"]
        small = run_bulk(
            ExperimentConfig(kind="bulk", n=250, r=50, trials=10, master_seed=12, threads=THREADS)
        ).aggregate["mean_esd_ks"]
        large = run_bulk(
            ExperimentConfig(kind="bulk", n=1000, r=200, trials=10, master_seed=12, threads=THREADS)
        ).aggregate["mean_esd_ks"]
        ok = ks < 0.05 and elapsed < 120.0 and large < small
        report(
            1, "bulk LSD", ok,
            f"ks={ks:.4f} (<0.05), runtime={elapsed:.1f}s (<120), "
            f"monotone {large:.4f} < {small:.4f}",
        )
        assert ks < 0.05
        assert elapsed < 120.0
        assert large < small

    def test_c02_universality(self):
        cfg = ExperimentConfig(
            kind="universality", n=200, r=3, p=0.3, trials=30, master_seed=51,
            ensemble="bernoulli_hypergraph", threads=THREADS,
        )
        rec = run_universality(cfg)
        diff = rec.aggregate["ks_difference"]
        ok = diff < 0.05
        report(
            2, "universality", ok,
            f"|ks_bernoulli - ks_gaussian| = {diff:.4f} (<0.05); "
            f"bern={rec.aggregate['mean_esd_ks_bernoulli']:.4f}, "
            f"gauss={rec.aggregate['mean_esd_ks_gaussian']:.4f}",
        )
        assert diff < 0.05

    def test_c03_bbp_transition(self):
        targets = {3: 2.0, 4: 2.12132, 10: 3.18198}
        stats = {}
        for r, target in targets.items():
            cfg = ExperimentConfig(
                kind="edge_bbp", n=2000, r=r, trials=30, master_seed=7, threads=THREADS
            )
            agg = run_edge_bbp(cfg).aggregate
            stats[r] = agg
            assert abs(agg["mean_lambda_max_scaled"] - target) < 0.15
            assert abs(agg["mean_lambda_min_scaled"] + target) < 0.15
        jump = stats[4]["mean_lambda_max_scaled"] - stats[3]["mean_lambda_max_scaled"]
        pooled_se = math.hypot(
            stats[3]["stderr_lambda_max_scaled"], stats[4]["stderr_lambda_max_scaled"]
        )
        ok = jump > 3.0 * pooled_se
        report(
            3, "BBP transition", ok,
            f"means r=3/4/10: {stats[3]['mean_lambda_max_scaled']:.4f}/"
            f"{stats[4]['mean_lambda_max_scaled']:.4f}/"
            f"{stats[10]['mean_lambda_max_scaled']:.4f} vs 2.0/2.12132/3.18198 "
            f"(tol 0.15); jump {jump:.4f} > 3*stderr {3 * pooled_se:.4f}",
        )
        assert jump > 3.0 * pooled_se

    def test_c04_edge_regime_distribution(self):
        cfg = ExperimentConfig(
            kind="edge_regimes", n=1000, r=500, trials=200, master_seed=2,
            regime="proportional", threads=THREADS,
        )
        rec = run_edge_regimes(cfg)
        ks = rec.aggregate["ks_lambda_max"]
        ok = ks < 0.1
        report(
            4, "proportional edge law", ok,
            f"two-sample ks(lambda_1/n, pushforward) = {ks:.4f} (<0.1)",
        )
        assert ks < 0.1

    def test_c05_laplacian_bulk(self):
        cfg = ExperimentConfig(
            kind="laplacian_bulk", n=800, r=3, trials=10, master_seed=3,
            matrix="laplacian_tilde", regime="fixed_r", threads=THREADS,
        )
        rec = run_laplacian_bulk(cfg)
        ks = rec.aggregate["mean_esd_ks"]
        ok = ks < 0.06
        report(
            5, "Laplacian bulk", ok,
            f"ks(mean ESD, G(1/2) [+] sc(1)) = {ks:.4f} (<0.06)",
        )
        assert ks < 0.06

    def test_c06_free_convolution_solver(self):
        grid = free_additive_convolution(SemicircleLaw(1.0), SemicircleLaw(1.0))
        mask = np.abs(grid.x) <= 3.0
        sup_err = np.abs(grid.f[mask] - semicircle_density(2.0, grid.x[mask])).max()

        sc = SemicircleLaw(1.0)
        conv = free_additive_convolution(sc, EmpiricalLaw([0.0]))
        identity_err = np.abs(
            conv.f - stieltjes_inversion_density(sc, conv.x, eps=conv.eps)
        ).max()

        mixed = free_additive_convolution(GaussianLaw(1.0), SemicircleLaw(1.0))
        var_err = abs(mixed.variance() - 2.0)

        ok = sup_err < 1e-4 and identity_err < 1e-8 and var_err < 1e-3 * 2.0
        report(
            6, "free convolution", ok,
            f"sc+sc sup err {sup_err:.2e} (<1e-4); delta0 identity "
            f"{identity_err:.2e} (<1e-8); variance err {var_err:.2e} (<2e-3)",
        )
        assert sup_err < 1e-4
        assert identity_err < 1e-8
        assert var_err < 1e-3 * 2.0

    def test_c07_closed_form_oracles(self):
        rng = np.random.default_rng(6)
        n = 6
        worst_rel = 0.0
        for _ in range(100):
            alpha, beta = rng.uniform(0.1, 2.0, 2)
            u = rng.standard_normal()
            v = rng.standard_normal(n)
            p = alpha * u * np.ones((n, n)) + beta * (
                np.add.outer(v, np.zeros(n)) + np.add.outer(np.zeros(n), v)
            )
            dense = np.linalg.eigvalsh(p)
            lam_max, lam_min = low_rank_eigenvalues(alpha, beta, u, v)
            scale = max(abs(dense[-1]), abs(dense[0]), 1e-12)
            worst_rel = max(
                worst_rel,
                abs(lam_max - dense[-1]) / scale,
                abs(lam_min - dense[0]) / scale,
            )
        rank2_ok = worst_rel < 1e-9

        trace_ok = True
        for nn, r in [(6, 3), (8, 4), (8, 3), (6, 2)]:
            edges = enumerate_edges(nn, r)
            mats = {}
            for e in edges:
                a = np.zeros(nn)
                a[np.asarray(e) - 1] = 1.0
                mats[e] = np.outer(a, a) - np.diag(a)
            for e1, e2 in itertools.product(edges, edges):
                if edge_matrix_trace(e1, e2) != round(np.trace(mats[e1] @ mats[e2])):
                    trace_ok = False

        params = ModelParams(8, 3, 0.5)
        delta_sq, gamma_sq, xi_sq = lipschitz_constants(params)
        m = params.num_possible_edges
        lip_ok = True
        for _ in range(500):
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            hx, hy = gham_from_weights(params, x), gham_from_weights(params, y)
            step = np.linalg.norm(x - y)
            if np.linalg.norm(hx - hy) / math.sqrt(8) > math.sqrt(delta_sq) * step * (1 + 1e-10):
                lip_ok = False
            if np.linalg.norm(laplacian(hx) - laplacian(hy)) / math.sqrt(24) > math.sqrt(
                gamma_sq
            ) * step * (1 + 1e-10):
                lip_ok = False
            if np.linalg.norm(
                laplacian_tilde(hx, 3) - laplacian_tilde(hy, 3)
            ) / math.sqrt(8) > math.sqrt(xi_sq) * step * (1 + 1e-10):
                lip_ok = False

        mc_params = ModelParams(10, 4, 0.5)
        cov = covariance_params(mc_params)
        trials = 20_000
        e12 = np.empty(trials)
        e34 = np.empty(trials)
        e13 = np.empty(trials)
        for i in range(trials):
            _, g = sample_surrogate(mc_params, i)
            e12[i], e34[i], e13[i] = g[0, 1], g[2, 3], g[0, 2]
        se = 4.0 / math.sqrt(trials)
        dev_rho = abs(np.mean(e12 * e34) - e12.mean() * e34.mean() - cov.rho)
        dev_gamma = abs(np.mean(e12 * e13) - e12.mean() * e13.mean() - cov.gamma)
        dev_var = abs(e12.var() - 1.0)
        mc_ok = (
            dev_rho < se * math.sqrt(1 + cov.rho**2)
            and dev_gamma < se * math.sqrt(1 + cov.gamma**2)
            and dev_var < se * math.sqrt(2.0)
        )
        ok = rank2_ok and trace_ok and lip_ok and mc_ok
        report(
            7, "closed-form oracles", ok,
            f"rank-2 worst rel {worst_rel:.2e} (<1e-9); trace identities "
            f"{'exact' if trace_ok else 'BROKEN'}; Lipschitz bounds "
            f"{'hold' if lip_ok else 'VIOLATED'}; covariance 4-sigma deviations "
            f"rho {dev_rho:.4f}, gamma {dev_gamma:.4f}, var {dev_var:.4f}",
        )
        assert rank2_ok and trace_ok and lip_ok and mc_ok

    def test_c08_matrix_inequality_suites(self):
        rng = np.random.default_rng(14)
        slack = 1e-10
        hw_ok = rank_ok = weyl_ok = True
        for _ in range(200):
            a = rng.standard_normal((10, 10))
            a = a + a.T
            d = rng.standard_normal((10, 10))
            b = a + 0.5 * (d + d.T)
            w2 = np.mean((np.sort(np.linalg.eigvalsh(a)) - np.sort(np.linalg.eigvalsh(b))) ** 2)
            if w2 > np.sum((a - b) ** 2) / 10 + slack:
                hw_ok = False
        for _ in range(200):
            k = int(rng.integers(1, 6))
            a = rng.standard_normal((50, 50))
            a = a + a.T
            vecs = rng.standard_normal((50, k))
            lam_a = np.sort(np.linalg.eigvalsh(a))
            lam_b = np.sort(np.linalg.eigvalsh(a + vecs @ vecs.T))
            grid = np.union1d(lam_a, lam_b)
            fa = np.searchsorted(lam_a, grid, side="right") / 50
            fb = np.searchsorted(lam_b, grid, side="right") / 50
            if np.abs(fa - fb).max() > k / 50 + slack:
                rank_ok = False
        for _ in range(200):
            a = rng.standard_normal((12, 12))
            a = a + a.T
            b = rng.standard_normal((12, 12))
            b = b + b.T
            gap = np.abs(np.linalg.eigvalsh(a + b) - np.linalg.eigvalsh(a)).max()
            if gap > np.abs(np.linalg.eigvalsh(b)).max() + slack:
                weyl_ok = False
        ok = hw_ok and rank_ok and weyl_ok
        report(
            8, "matrix inequalities", ok,
            f"eigenvalue-matching {'ok' if hw_ok else 'VIOLATED'}, "
            f"rank {'ok' if rank_ok else 'VIOLATED'}, "
            f"additive-perturbation {'ok' if weyl_ok else 'VIOLATED'} "
            f"(200 instances each, slack 1e-10)",
        )
        assert hw_ok and rank_ok and weyl_ok

    def test_c09_concentration_scaling(self):
        cfg = ExperimentConfig(
            kind="concentration", n=200, r=3, trials=200, master_seed=41, threads=THREADS
        )
        rec = run_concentration(cfg)
        ratio = rec.aggregate["ratio"]
        ok = 0.3 <= ratio <= 0.7
        report(
            9, "concentration scaling", ok,
            f"ks-fluctuation std ratio n=400/n=200 = {ratio:.3f} (in [0.3, 0.7])",
        )
        assert 0.3 <= ratio <= 0.7

    def test_c10_laplacian_edge_centering(self):
        cfg = ExperimentConfig(
            kind="laplacian_edge", n=1000, r=200, trials=50, master_seed=31,
            regime="A", threads=THREADS,
        )
        rec = run_laplacian_edge(cfg)
        err = rec.aggregate["abs_error_max"]
        ok = err < 0.08
        report(
            10, "Laplacian edge centering", ok,
            f"|mean lambda_1(L)/(n sqrt(2 log n)) - 0.4| = {err:.4f} (<0.08)",
        )
        assert err < 0.08

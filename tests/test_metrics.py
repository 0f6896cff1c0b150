"""Tests for distribution distances and spectral Hausdorff distance."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from hypergraph_spectra.experiments import ExperimentConfig, run_experiment
from hypergraph_spectra.laws import EmpiricalLaw, GaussianLaw, SemicircleLaw
from hypergraph_spectra.metrics import (
    MetricReport,
    bl_upper_bound,
    hausdorff_spectra,
    ks_distance,
    metric_report,
    w1_distance,
)


class TestKsDistance:
    def test_identical_empirical(self):
        m = EmpiricalLaw(atoms=[0.0, 1.0, 2.5])
        assert ks_distance(m, m) == 0.0

    def test_point_masses(self):
        assert ks_distance(EmpiricalLaw([0.0]), EmpiricalLaw([1.0])) == 1.0

    def test_two_atoms_vs_semicircle(self):
        # sup attained at the atoms; reference CDF from a quadrature oracle
        sc = SemicircleLaw(1.0)
        f_minus1, _ = integrate.quad(sc.density, -2.0, -1.0)
        expected = max(f_minus1, abs(f_minus1 - 0.5))
        m = EmpiricalLaw([-1.0, 1.0])
        assert ks_distance(m, sc) == pytest.approx(max(expected, 0.5 - f_minus1), abs=1e-9)
        assert ks_distance(m, sc) == pytest.approx(0.3044989, abs=1e-6)

    def test_analytic_pair(self):
        # KS between two semicircles is attained away from the center; cross
        # check with a dense-grid oracle
        a, b = SemicircleLaw(1.0), SemicircleLaw(1.44)
        xs = np.linspace(-3, 3, 200_001)
        oracle = np.abs(np.asarray(a.cdf(xs)) - np.asarray(b.cdf(xs))).max()
        assert ks_distance(a, b) == pytest.approx(oracle, abs=1e-7)
        assert ks_distance(a, b) >= oracle - 1e-12

    def test_symmetric_arguments(self):
        m = EmpiricalLaw([0.0, 0.7])
        law = GaussianLaw(1.0)
        assert ks_distance(m, law) == ks_distance(law, m)


class TestKsLattice:
    """Between two empirical laws the KS gap is a multiple of 1/(n_a n_b);
    equal gaps must give equal floats wherever they are attained."""

    def test_tied_gaps_compare_equal(self):
        pooled = EmpiricalLaw(np.arange(180.0))
        spread = 3.0 * np.arange(60) + 1.0
        late = spread.copy()
        late[[29, 30]] = 87.0  # gap 5/180 only at 31 of 60 against 88 of 180
        early = spread + 4.0  # gap 5/180 at 0 of 60 against 5 of 180, and later
        ks_late = ks_distance(EmpiricalLaw(late), pooled)
        ks_early = ks_distance(EmpiricalLaw(early), pooled)
        assert ks_late == ks_early == 5 / 180

    def test_exact_against_fractions(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.integers(-5, 6, size=rng.integers(1, 40)).astype(float)
            b = rng.integers(-5, 6, size=rng.integers(1, 40)).astype(float)
            grid = np.union1d(a, b)
            exact = max(
                abs(Fraction(int((a <= x).sum()), a.size) - Fraction(int((b <= x).sum()), b.size))
                for x in grid
            )
            assert ks_distance(EmpiricalLaw(a), EmpiricalLaw(b)) == float(exact)

    def test_concentration_tied_trials_have_zero_spread(self):
        # the golden case whose three large-model KS values tie at 5/180
        cfg = ExperimentConfig(
            kind="concentration", n=30, r=3, trials=3, master_seed=9, scale_r_with_n=True,
            tolerance=2.0,
        )
        rec = run_experiment(cfg)
        assert [row["ks"] for row in rec.trials[3:]] == [5 / 180] * 3
        assert rec.aggregate["std_large"] == 0.0
        assert rec.aggregate["ratio"] == 0.0


class TestW1Distance:
    def test_point_mass_translation(self):
        for t in (-2.0, 0.5, 3.0):
            assert w1_distance(EmpiricalLaw([0.0]), EmpiricalLaw([t])) == abs(t)

    def test_identical_pairs(self):
        m = EmpiricalLaw([0.0, 1.0])
        assert w1_distance(m, EmpiricalLaw([0.0, 1.0])) == 0.0

    def test_two_atoms_vs_point_mass(self):
        assert w1_distance(EmpiricalLaw([-1.0, 1.0]), EmpiricalLaw([0.0])) == 1.0

    def test_empirical_vs_gaussian_against_quadrature(self):
        rng = np.random.default_rng(3)
        atoms = np.sort(rng.standard_normal(23))
        law = GaussianLaw(1.0)
        # piecewise quadrature oracle between the staircase jumps
        cuts = np.concatenate([[-9.0], atoms, [9.0]])
        oracle = 0.0
        for i in range(len(cuts) - 1):
            seg, _ = integrate.quad(
                lambda x: abs(float(law.cdf(x)) - i / atoms.size),
                cuts[i], cuts[i + 1], limit=200,
            )
            oracle += seg
        assert w1_distance(EmpiricalLaw(atoms), law) == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_mean_shiftless_scale(self):
        # W1 between N(0,1) and N(0,4) = (2-1) E|Z| = sqrt(2/pi)
        value = w1_distance(GaussianLaw(1.0), GaussianLaw(4.0))
        assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)

    @pytest.mark.parametrize("base", [SemicircleLaw, GaussianLaw])
    def test_identical_analytic_laws_are_one_piece(self, base):
        # the CDF gap vanishes on the whole grid; its zero run must be one
        # piece, not thousands of antiderivative evaluations
        class Spy(base):
            calls = 0

            def cdf_integral(self, x):
                Spy.calls += 1
                return super().cdf_integral(x)

        assert w1_distance(Spy(1.3), Spy(1.3)) == 0.0
        assert Spy.calls < 100


class TestBlUpperBound:
    def test_identical(self):
        m = EmpiricalLaw([1.0, 2.0])
        assert bl_upper_bound(m, m) == 0.0

    def test_distant_point_masses_capped_by_ks(self):
        # w1 = 3, 2 ks = 2 -> bound 2
        assert bl_upper_bound(EmpiricalLaw([0.0]), EmpiricalLaw([3.0])) == 2.0

    def test_decreasing_with_sample_size_on_semicircle(self):
        sc = SemicircleLaw(1.0)
        rng = np.random.default_rng(0)
        bounds = []
        for n in (100, 400):
            raw = rng.standard_normal((n, n))
            z = (raw + raw.T) / math.sqrt(2.0)
            lam = np.linalg.eigvalsh(z) / math.sqrt(n)
            bounds.append(bl_upper_bound(EmpiricalLaw(lam), sc))
        assert bounds[1] < bounds[0]

    def test_never_exceeds_either_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = EmpiricalLaw(rng.standard_normal(rng.integers(2, 12)))
            b = EmpiricalLaw(rng.standard_normal(rng.integers(2, 12)))
            bl = bl_upper_bound(a, b)
            assert bl <= w1_distance(a, b) + 1e-12
            assert bl <= 2.0 * ks_distance(a, b) + 1e-12


class TestMetricAxioms:
    def test_symmetry_and_triangle_inequality(self):
        # the first 40 rounds add a semicircle and a Gaussian law to the three
        # empirical ones, so the empirical-analytic and analytic-analytic paths
        # count too (an analytic-analytic W1 takes about 50 ms, hence not all)
        rng = np.random.default_rng(21)
        scales = np.random.default_rng(22)
        for round_ in range(200):
            sizes = rng.integers(2, 21, size=3)
            ms = [EmpiricalLaw(rng.standard_normal(k)) for k in sizes]
            if round_ < 40:
                sigma2 = scales.uniform(0.2, 3.0, size=2)
                ms += [SemicircleLaw(sigma2[0]), GaussianLaw(sigma2[1])]
            for dist in (ks_distance, w1_distance):
                pairs = itertools.permutations(range(len(ms)), 2)
                d = {(i, j): dist(ms[i], ms[j]) for i, j in pairs}
                for i, j, k in itertools.permutations(range(len(ms)), 3):
                    assert abs(d[i, j] - d[j, i]) < 1e-10
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-10


class TestRankPerturbationIntegration:
    def test_ks_of_esds_bounded_by_rank(self):
        rng = np.random.default_rng(30)
        n = 50
        for k in (1, 2, 5):
            a = rng.standard_normal((n, n))
            a = a + a.T
            vecs = rng.standard_normal((n, k))
            perturbation = vecs @ vecs.T
            lam_a = np.linalg.eigvalsh(a)
            lam_b = np.linalg.eigvalsh(a + perturbation)
            ks = ks_distance(EmpiricalLaw(lam_a), EmpiricalLaw(lam_b))
            assert ks <= k / n + 1e-12


class TestHausdorff:
    def test_identical(self):
        s = np.array([3.0, 1.0, -2.0])
        assert hausdorff_spectra(s, s) == 0.0

    def test_single_points(self):
        assert hausdorff_spectra(np.array([0.0]), np.array([1.0])) == 1.0

    def test_asymmetric_cover(self):
        assert hausdorff_spectra(np.array([0.0, 5.0]), np.array([1.0])) == 4.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            xs = rng.standard_normal(rng.integers(1, 9))
            ys = rng.standard_normal(rng.integers(1, 9))
            brute = max(
                max(min(abs(x - y) for y in ys) for x in xs),
                max(min(abs(x - y) for x in xs) for y in ys),
            )
            assert hausdorff_spectra(xs, ys) == brute

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_spectra(np.array([]), np.array([1.0]))


class TestMetricReport:
    def test_json_round_trip(self):
        report = metric_report(
            EmpiricalLaw([0.0, 1.0]), SemicircleLaw(1.0), notes="demo"
        )
        payload = json.loads(report.to_json())
        assert payload["notes"] == "demo"
        assert 0.0 <= payload["ks"] <= 1.0
        assert payload["w1"] >= 0.0
        assert payload["bl_upper"] <= min(payload["w1"], 2 * payload["ks"]) + 1e-12

    def test_report_consistency(self):
        a = EmpiricalLaw([0.0, 2.0])
        b = EmpiricalLaw([1.0])
        report = metric_report(a, b)
        assert report.ks == ks_distance(a, b)
        assert report.w1 == w1_distance(a, b)
        assert isinstance(report, MetricReport)

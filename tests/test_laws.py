"""Tests for analytic laws, Stieltjes transforms, and free convolution."""

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hypergraph_spectra import laws
from hypergraph_spectra.experiments import ExperimentConfig, _laplacian_reference
from hypergraph_spectra.laws import (
    ConvergenceError,
    DensityGrid,
    EmpiricalLaw,
    FreeConvolutionLaw,
    GaussianLaw,
    GridSpec,
    SemicircleLaw,
    free_additive_convolution,
    free_convolution_stieltjes,
    law_from_descriptor,
)
from oracles import catalan, stieltjes_inversion_density


def count_dyck_paths(k):
    """Brute-force count of nonnegative walks of length 2k ending at 0."""

    def walk(position, steps_left):
        if steps_left == 0:
            return 1 if position == 0 else 0
        total = walk(position + 1, steps_left - 1)
        if position > 0:
            total += walk(position - 1, steps_left - 1)
        return total

    return walk(0, 2 * k)


class TestCatalan:
    def test_zero(self):
        assert catalan(0) == 1

    def test_three(self):
        assert catalan(3) == 5

    @pytest.mark.parametrize("k", range(11))
    def test_against_dyck_path_enumeration(self, k):
        assert catalan(k) == count_dyck_paths(k)

    def test_ten(self):
        assert catalan(10) == 16796

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestSemicircleDensity:
    def test_center_value(self):
        assert SemicircleLaw(1.0).density(0.0) == pytest.approx(1.0 / math.pi)

    def test_support_endpoints(self):
        assert SemicircleLaw(1.0).density(2.0) == 0.0
        assert SemicircleLaw(1.0).density(-2.0) == 0.0
        assert SemicircleLaw(1.0).density(2.5) == 0.0

    def test_shrunk_variance_center(self):
        sigma2 = (1.0 - 0.2) ** 2
        assert SemicircleLaw(sigma2).density(0.0) == pytest.approx(1.0 / (0.8 * math.pi))

    @pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
    def test_integrates_to_one(self, sigma2):
        # 1e4-point trapezoid on a grid covering the support with 10% margin
        edge = 2.0 * math.sqrt(sigma2)
        xs = np.linspace(-1.1 * edge, 1.1 * edge, 10_000)
        mass = np.trapezoid(SemicircleLaw(sigma2).density(xs), xs)
        assert abs(mass - 1.0) < 1e-6

    def test_invalid_variance(self):
        with pytest.raises(ValueError, match="variance must be positive"):
            SemicircleLaw(0.0)


def density_moment(law, order: int) -> float:
    """Moment of a law with a density, by quadrature over its support."""
    value, _ = integrate.quad(lambda x: x**order * law.density(x), *law.support(), limit=200)
    return value


class TestSemicircleMoment:
    def test_fourth_moment_is_catalan_two(self):
        assert density_moment(SemicircleLaw(1.0), 4) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
    def test_even_moments_are_scaled_catalan(self, sigma2):
        law = SemicircleLaw(sigma2)
        for k in range(5):
            expected = sigma2**k * catalan(k)
            assert density_moment(law, 2 * k) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_odd_moments_vanish(self, order):
        assert density_moment(SemicircleLaw(4.0), order) == pytest.approx(0.0, abs=1e-8)

    def test_scaled_second_moment_against_quadrature(self):
        law = SemicircleLaw(4.0)
        value, _ = integrate.quad(lambda x: x * x * law.density(x), -4, 4)
        assert law.variance() == pytest.approx(4.0) == pytest.approx(value, abs=1e-8)

    def test_cdf_matches_density_quadrature(self):
        law = SemicircleLaw(1.0)
        for x in (-1.5, -0.3, 0.7, 1.9):
            value, _ = integrate.quad(law.density, -2.0, x)
            assert law.cdf(x) == pytest.approx(value, abs=1e-10)


class TestStieltjesSemicircle:
    def test_value_at_i(self):
        expected = 1j * (math.sqrt(5.0) - 1.0) / 2.0
        assert SemicircleLaw(1.0).stieltjes(1j) == pytest.approx(expected)

    def test_large_z_asymptote(self):
        z = 1e4j
        assert abs(SemicircleLaw(1.0).stieltjes(z) + 1.0 / z) <= 1e-6 * abs(1.0 / z)

    def test_quadratic_identity_on_grid(self):
        sigma2 = 1.7
        zs = np.linspace(-5, 5, 100) + 0.37j
        s = SemicircleLaw(sigma2).stieltjes(zs)
        residual = sigma2 * s * s + zs * s + 1.0
        assert np.abs(residual).max() < 1e-12

    def test_self_consistency_rearranged(self):
        zs = np.linspace(-4, 4, 100) + 0.8j
        s = SemicircleLaw(1.0).stieltjes(zs)
        assert np.abs(s - 1.0 / (-zs - s)).max() < 1e-12

    def test_maps_to_upper_half_plane(self):
        zs = (np.linspace(-6, 6, 41)[:, None] + 1j * np.logspace(-3, 1, 9)[None, :]).ravel()
        assert np.all(SemicircleLaw(2.0).stieltjes(zs).imag > 0)

    def test_lower_half_rejected(self):
        with pytest.raises(ValueError):
            SemicircleLaw(1.0).stieltjes(-1j)


class TestGaussianLaw:
    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.0])
    def test_moments_against_quadrature(self, sigma2):
        # E X^k = (k-1)!! sigma^k at even k, zero at odd k
        law = GaussianLaw(sigma2)
        for order in range(9):
            value, _ = integrate.quad(
                lambda x: x**order * law.density(x), -np.inf, np.inf, limit=200
            )
            double_factorial = math.prod(range(order - 1, 0, -2))
            expected = sigma2 ** (order // 2) * double_factorial if order % 2 == 0 else 0.0
            assert value == pytest.approx(expected, abs=1e-8)

    def test_variance_matches_parameter(self):
        assert GaussianLaw(0.5).variance() == pytest.approx(0.5)
        assert GaussianLaw(3.0).variance() == pytest.approx(3.0)

    def test_fourth_moment_double_factorial(self):
        # E X^4 = 3 sigma^4
        assert density_moment(GaussianLaw(0.5), 4) == pytest.approx(3 * 0.25, abs=1e-8)

    def test_cdf_center(self):
        assert GaussianLaw(2.0).cdf(0.0) == pytest.approx(0.5)

    def test_mass_on_working_grid(self):
        law = GaussianLaw(1.7)
        xs = np.linspace(*law.support(), 20_001)
        assert np.trapezoid(law.density(xs), xs) == pytest.approx(1.0, abs=1e-9)


def gaussian_stieltjes_quadrature(sigma2, z):
    """Adaptive-quadrature oracle for the Gaussian Stieltjes transform."""
    density = GaussianLaw(sigma2).density
    re, _ = integrate.quad(
        lambda x: ((x - z.real) * density(x)) / ((x - z.real) ** 2 + z.imag**2),
        -np.inf, np.inf, limit=400,
    )
    im, _ = integrate.quad(
        lambda x: (z.imag * density(x)) / ((x - z.real) ** 2 + z.imag**2),
        -np.inf, np.inf, limit=400,
    )
    return re + 1j * im


class TestStieltjesGaussian:
    def test_value_at_i_purely_imaginary(self):
        value = GaussianLaw(1.0).stieltjes(1j)
        assert abs(value.real) < 1e-12
        assert value.imag == pytest.approx(0.655680, abs=1e-6)
        oracle = gaussian_stieltjes_quadrature(1.0, 1j)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_large_z_asymptote(self):
        z = 1e4j
        assert abs(GaussianLaw(1.0).stieltjes(z) + 1.0 / z) <= 1e-6 * abs(1.0 / z)

    def test_off_axis_against_quadrature(self):
        z = 1.0 + 1.0j
        assert GaussianLaw(1.0).stieltjes(z) == pytest.approx(
            gaussian_stieltjes_quadrature(1.0, z), abs=1e-8
        )

    def test_scaling_covariance(self):
        sigma2 = 2.6
        sigma = math.sqrt(sigma2)
        for z in (1j, 0.7 + 0.2j, -3.0 + 1.5j):
            lhs = GaussianLaw(sigma2).stieltjes(z)
            rhs = GaussianLaw(1.0).stieltjes(z / sigma) / sigma
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_maps_to_upper_half_plane(self):
        zs = (np.linspace(-8, 8, 33)[:, None] + 1j * np.logspace(-3, 1, 7)[None, :]).ravel()
        assert np.all(GaussianLaw(1.0).stieltjes(zs).imag > 0)


class TestFreeConvolution:
    def test_semicircle_stability(self):
        # sc(a) [+] sc(b) = sc(a + b), sup density error < 1e-4 on the whole
        # grid, square-root edges included
        for a, b in ((1.0, 1.0), (0.25, 1.0), (1.0, 3.0), (2.0, 0.1)):
            grid = free_additive_convolution(SemicircleLaw(a), SemicircleLaw(b))
            expected = SemicircleLaw(a + b).density(grid.x)
            assert np.abs(grid.f - expected).max() < 1e-4, (a, b)
            assert 0.999 <= grid.mass() <= 1.001

    def test_point_mass_identity(self):
        # mu [+] delta_0 = mu through the identical inversion pipeline
        sc = SemicircleLaw(1.0)
        conv = free_additive_convolution(sc, EmpiricalLaw([0.0]))
        direct = stieltjes_inversion_density(sc, conv.x, eps=conv.eps)
        assert np.abs(conv.f - direct).max() < 1e-8

    def test_variance_additivity_gaussian_semicircle(self):
        grid = free_additive_convolution(GaussianLaw(1.0), SemicircleLaw(1.0))
        assert abs(grid.variance() - 2.0) < 1e-3 * 2.0
        assert abs(grid.mean()) < 1e-9

    def test_moments_match_scaled_semicircle(self):
        # moments of the solved density grid against sc(2): 2^k C_k at order 2k
        g = FreeConvolutionLaw(SemicircleLaw(1.0), SemicircleLaw(1.0)).grid

        def moment(order):
            return float(np.trapezoid(g.x**order * g.f, g.x) / g.mass())

        def semicircle_moment(order):
            return 0.0 if order % 2 else 2.0 ** (order // 2) * catalan(order // 2)

        for order in (2, 4, 6, 8):
            assert moment(order) == pytest.approx(semicircle_moment(order), rel=1e-3)
        for order in (1, 3, 9):
            assert abs(moment(order)) < 1e-6 * max(1.0, semicircle_moment(order + 1))

    def test_commutativity(self):
        a = free_additive_convolution(GaussianLaw(1.0), SemicircleLaw(1.0))
        b = free_additive_convolution(SemicircleLaw(1.0), GaussianLaw(1.0))
        np.testing.assert_allclose(a.f, b.f, atol=1e-6)

    def test_transform_maps_upper_half_plane(self):
        law1, law2 = GaussianLaw(0.5), SemicircleLaw(1.0)
        zs = np.linspace(-4, 4, 21) + 0.3j
        s = free_convolution_stieltjes(law1, law2, zs)
        assert np.all(s.imag > 0)

    def test_density_nonnegative_and_grid_spec(self):
        spec = GridSpec(points=801)
        grid = free_additive_convolution(GaussianLaw(0.5), SemicircleLaw(1.0), spec)
        assert np.all(grid.f >= 0.0)
        assert grid.x.size == 801

    def test_non_convergence_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(laws, "_MAX_ITER", 1)
        zs = np.linspace(-2, 2, 5) + 1e-3j
        with pytest.raises(ConvergenceError, match="after 1 iterations") as info:
            free_convolution_stieltjes(SemicircleLaw(1.0), SemicircleLaw(1.0), zs)
        assert info.value.z.imag > 0
        assert info.value.residual > 0

    @pytest.mark.parametrize("swap", [False, True])
    def test_iterate_off_upper_half_plane_raises_with_diagnostics(self, monkeypatch, swap):
        # two atoms [+] a narrow semicircle: rounding carries an iterate onto the
        # real axis, where no Stieltjes transform is defined
        monkeypatch.setattr(laws, "_MAX_ITER", 50)
        pair = (EmpiricalLaw([-1.0, 1.0]), SemicircleLaw(0.25))
        with pytest.raises(ConvergenceError) as info:
            free_additive_convolution(*(pair[::-1] if swap else pair))
        assert info.value.z.imag > 0
        assert info.value.residual > 0

    def test_stieltjes_evaluations_per_operand_bounded(self):
        # one undamped solve at the inversion offset; the damped solve down a
        # ladder of offsets took 670 552 evaluations per operand
        operands = (GaussianLaw(0.5), SemicircleLaw(1.0))
        counts = [0, 0]
        for i, law in enumerate(operands):

            def stieltjes(z, i=i, evaluate=law.stieltjes):
                counts[i] += np.size(z)
                return evaluate(z)

            law.stieltjes = stieltjes
        free_additive_convolution(*operands)
        assert 0 < min(counts) and max(counts) <= 50_000

    def test_every_laplacian_reference_converges(self):
        # the references laplacian_bulk scores against: G(r-1) [+] sc(1),
        # G(1/(r-1)) [+] sc(1) at fixed r, and G(1) [+] G(c) at c = r/n
        cases = [
            dict(matrix=matrix, regime="fixed_r", n=40, r=r)
            for matrix in ("laplacian", "laplacian_tilde")
            for r in range(2, 40)
        ] + [
            dict(matrix="laplacian", regime="proportional", n=100, r=r)
            for r in range(2, 100, 4)
        ]
        for case in cases:
            _, law = _laplacian_reference(ExperimentConfig(kind="laplacian_bulk", **case))
            assert isinstance(law, FreeConvolutionLaw)
            assert abs(law.grid.mass() - 1.0) <= 1e-3, case

    def test_undersized_grid_raises(self):
        spec = GridSpec(lo=-0.5, hi=0.5, points=101)
        with pytest.raises(ConvergenceError, match="mass"):
            free_additive_convolution(SemicircleLaw(1.0), SemicircleLaw(1.0), spec)

    def test_matches_wigner_plus_diagonal_monte_carlo(self):
        # ESD of (GOE / sqrt(n)) + diag(iid N(0,1)) approaches G(1) [+] sc(1)
        law = FreeConvolutionLaw(GaussianLaw(1.0), SemicircleLaw(1.0))
        rng = np.random.default_rng(123)
        n, trials = 1000, 3
        pooled = []
        for _ in range(trials):
            raw = rng.standard_normal((n, n))
            z = (raw + raw.T) / math.sqrt(2.0)
            m = z / math.sqrt(n) + np.diag(rng.standard_normal(n))
            pooled.append(np.linalg.eigvalsh(m))
        atoms = np.sort(np.concatenate(pooled))
        cdf_vals = np.asarray(law.cdf(atoms))
        k = atoms.size
        upper = np.arange(1, k + 1) / k
        lower = np.arange(0, k) / k
        ks = np.maximum(np.abs(cdf_vals - upper), np.abs(cdf_vals - lower)).max()
        assert ks < 0.05

    def test_free_convolution_law_stieltjes_direct(self):
        law = FreeConvolutionLaw(SemicircleLaw(1.0), SemicircleLaw(1.0))
        z = 0.3 + 0.9j
        assert law.stieltjes(z) == pytest.approx(SemicircleLaw(2.0).stieltjes(z), abs=1e-9)

    @pytest.mark.parametrize(
        "law1,law2",
        [
            (GaussianLaw(0.5), SemicircleLaw(1.0)),
            (GaussianLaw(2.0), GaussianLaw(0.3)),
        ],
    )
    def test_cumulant_variance_agrees_with_grid(self, law1, law2):
        law = FreeConvolutionLaw(law1, law2)
        assert law.variance() == pytest.approx(law1.variance() + law2.variance())
        assert law.grid.variance() == pytest.approx(law.variance(), rel=1e-3)


class TestEmpiricalStieltjes:
    @pytest.mark.parametrize("block", [1, 37, 600, 1 << 20])
    def test_blocks_match_one_shot_formula(self, monkeypatch, block):
        # blocks need not reproduce the one-shot bits: numpy may sum a narrow
        # block in another order
        rng = np.random.default_rng(5)
        law = EmpiricalLaw(rng.standard_normal(300))
        z = (np.linspace(-3, 3, 121) + 1j * np.geomspace(1e-3, 2.0, 121)).reshape(11, 11)
        one_shot = np.mean(1.0 / (law.atoms[:, None] - z.ravel()[None, :]), axis=0)
        monkeypatch.setattr(laws, "_STIELTJES_BLOCK", block)
        out = law.stieltjes(z)
        assert out.shape == z.shape
        np.testing.assert_allclose(out.ravel(), one_shot, rtol=1e-12)

    def test_memory_bounded_on_pooled_measure(self):
        # the one-shot atoms x points array would take 10k * 2001 * 16 B = 320 MB
        law = EmpiricalLaw(np.random.default_rng(6).standard_normal(10_000))
        z = np.linspace(-5.0, 5.0, 2001) + 1e-3j
        tracemalloc.start()
        try:
            law.stieltjes(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestDensityGrid:
    def test_mass_mean_variance(self):
        xs = np.linspace(-2.0, 2.0, 4001)
        grid = DensityGrid(x=xs, f=SemicircleLaw(1.0).density(xs), eps=0.0)
        assert grid.mass() == pytest.approx(1.0, abs=1e-5)
        assert grid.mean() == pytest.approx(0.0, abs=1e-12)
        assert grid.variance() == pytest.approx(1.0, abs=1e-4)

    def test_csv_round_trip(self, tmp_path):
        xs = np.linspace(-1, 1, 11)
        grid = DensityGrid(x=xs, f=np.ones(11) / 2, eps=1e-9)
        path = tmp_path / "grid.csv"
        grid.save_csv(path)
        data = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(data[:, 0], xs)


# one law of every concrete kind
EVERY_KIND = [
    SemicircleLaw(0.64),
    GaussianLaw(2.0),
    EmpiricalLaw([-1.0, 0.5, 3.0]),
    FreeConvolutionLaw(GaussianLaw(1.0), SemicircleLaw(1.0)),
]


class TestDescriptors:
    def test_round_trips(self):
        for law in EVERY_KIND:
            rebuilt = law_from_descriptor(law.descriptor())
            assert rebuilt.descriptor() == law.descriptor()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            law_from_descriptor({"kind": "cauchy"})

    def test_empirical_has_no_density(self):
        # ValueError with a message led by "law ": the CLI prints "error: law ..."
        with pytest.raises(ValueError, match="^law EmpiricalLaw"):
            EmpiricalLaw([0.0]).density(0.0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("semicircle:0.64", SemicircleLaw(0.64)),
            ("gaussian:2", GaussianLaw(2.0)),
            ("  semicircle  ", SemicircleLaw(1.0)),
            ("gaussian:", GaussianLaw(1.0)),
            ('{"kind": "empirical", "atoms": [1.0, -0.5]}', EmpiricalLaw([-0.5, 1.0])),
            (
                ' {"kind": "free_convolution", "operands": [{"kind": "gaussian", "sigma2": 1.0},'
                ' {"kind": "semicircle", "sigma2": 0.5}]}',
                FreeConvolutionLaw(GaussianLaw(1.0), SemicircleLaw(0.5)),
            ),
        ],
    )
    def test_string_forms(self, text, expected):
        assert law_from_descriptor(text).descriptor() == expected.descriptor()

    def test_json_file(self, tmp_path):
        law = FreeConvolutionLaw(GaussianLaw(0.5), SemicircleLaw(1.0))
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law.descriptor()))
        assert law_from_descriptor(str(path)).descriptor() == law.descriptor()

    @pytest.mark.parametrize("text", ["cauchy:1.0", "empirical:0.5", "missing.json", ""])
    def test_unknown_shorthand(self, text):
        with pytest.raises(ValueError, match="cannot parse law descriptor"):
            law_from_descriptor(text)

    def test_shorthand_variance_checked(self):
        with pytest.raises(ValueError, match="variance must be positive"):
            law_from_descriptor("semicircle:-1")


def test_every_concrete_kind_is_listed():
    concrete = {
        cls for cls in vars(laws).values()
        if isinstance(cls, type) and issubclass(cls, laws.Law) and not inspect.isabstract(cls)
    }
    assert concrete == {type(law) for law in EVERY_KIND}


@pytest.mark.parametrize("law", EVERY_KIND, ids=lambda law: type(law).__name__)
def test_evaluation_contract(law):
    # a scalar or 0-d input gives a Python float (complex for stieltjes), any
    # other input an array of its shape, equal pointwise to the scalar values
    grid = np.linspace(-1.5, 1.5, 6).reshape(2, 3)
    for name, scalar, values in [
        ("density", float, grid),
        ("cdf", float, grid),
        ("cdf_integral", float, grid),
        ("stieltjes", complex, grid + 0.5j),
    ]:
        evaluate = getattr(law, name)
        if name == "density" and isinstance(law, EmpiricalLaw):
            with pytest.raises(ValueError, match="^law EmpiricalLaw"):
                evaluate(values)
            continue
        points = values.tolist()
        assert type(evaluate(points[0][0])) is scalar
        assert type(evaluate(np.array(points[0][0]))) is scalar
        listed = evaluate(points[0])
        assert isinstance(listed, np.ndarray) and listed.shape == (3,)
        full = evaluate(values)
        assert full.shape == (2, 3) and full.dtype == np.dtype(scalar)
        np.testing.assert_array_equal(full[0], listed)
        np.testing.assert_allclose(
            full, [[evaluate(v) for v in row] for row in points], rtol=1e-13, atol=1e-15
        )
    for z in (0.5, 0.5 - 1j, np.array(0.5), [1j, 2.0]):
        with pytest.raises(ValueError, match="Im z > 0"):
            law.stieltjes(z)

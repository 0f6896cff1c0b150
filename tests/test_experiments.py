"""Tests for the Monte-Carlo experiment harness."""

import dataclasses
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from scipy import stats

from hypergraph_spectra import experiments
from hypergraph_spectra.combinatorics import ModelParams, SamplingBudgetError
from hypergraph_spectra.experiments import (
    BERNOULLI,
    ExperimentConfig,
    RegimeError,
    assumption_diagnostics,
    bbp_edge_limit,
    persist_record,
    run_experiment,
)
from hypergraph_spectra.spectra import EigensolverError
from oracles import blas_threads, recompute_aggregates, set_blas_threads, traced_peak


class TestConfig:
    def test_known_kinds_only(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope", n=10, r=3)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bulk", n=10, r=3, trials=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(kind="bulk", n=10, r=3, threads=threads)

    def test_bernoulli_feasibility_checked(self):
        with pytest.raises(SamplingBudgetError, match=re.escape(
            "; use the Gaussian surrogate ensemble (ensemble='gaussian_surrogate', "
        )):
            ExperimentConfig(kind="bulk", n=80, r=40, p=0.5, ensemble=BERNOULLI)

    def test_concentration_budget_checked_at_its_second_size(self):
        # C(300, 3) * 0.9 edges fit the budget; the second leg's C(600, 3) * 0.9 do not
        ExperimentConfig(kind="bulk", n=300, r=3, p=0.9, ensemble=BERNOULLI)
        with pytest.raises(SamplingBudgetError, match=r"exceeds budget 1e\+07"):
            ExperimentConfig(kind="concentration", n=300, r=3, p=0.9, trials=2,
                             ensemble=BERNOULLI)

    # universality samples a hypergraph in every trial whatever the ensemble, so
    # its budget error advises a smaller model, not the surrogate ensemble
    UNIVERSALITY_ADVICE = (r"exceeds budget 1e\+07; every universality trial samples a "
                           r"hypergraph, whatever the ensemble, so lower n, r or p$")

    def test_universality_budget_checked_at_the_surrogate_ensemble(self):
        with pytest.raises(SamplingBudgetError, match=self.UNIVERSALITY_ADVICE):
            ExperimentConfig(kind="universality", n=80, r=40, p=0.5)

    def test_universality_budget_advice_at_the_bernoulli_ensemble(self):
        with pytest.raises(SamplingBudgetError, match=self.UNIVERSALITY_ADVICE):
            ExperimentConfig(kind="universality", n=80, r=40, p=0.5, ensemble=BERNOULLI)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("config", [
        dict(kind="bulk", ensemble=BERNOULLI),
        dict(kind="laplacian_bulk", ensemble=BERNOULLI, regime="fixed_r"),
        dict(kind="universality"),
    ])
    def test_sampled_hypergraph_at_p_zero_or_one_rejected(self, config, p):
        # every sample is empty or complete, so its adjacency has no variance to
        # standardise by; rejected when built, not in the first trial
        with pytest.raises(ValueError, match=rf"^sampling a hypergraph needs 0 < p < 1, got p={p}$"):
            ExperimentConfig(n=20, r=3, p=p, trials=2, **config)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_diagnostics_builds_at_p_zero_or_one(self, p):
        # diagnostics samples nothing, so an empty or complete model is reported
        cfg = ExperimentConfig(kind="diagnostics", n=20, r=3, p=p, ensemble=BERNOULLI)
        assert run_experiment(cfg).config["p"] == p

    def test_no_scaling_field(self):
        # each limit law fixes the scaling of its spectrum
        assert "scaling" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_built_config_is_frozen(self):
        # so no field can skip the kind's check by a change after it is built
        cfg = ExperimentConfig(kind="bulk", n=20, r=3, trials=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 7

    @pytest.mark.parametrize("kind", ["bulk", "edge_regimes"])
    def test_r_equal_to_n_rejected(self, kind):
        # c = r/n must be below 1; at r = n bulk's semicircle has variance 0 and
        # the proportional edge law is undefined
        with pytest.raises(ValueError, match=r"^need r < n \(c = r/n < 1\), got r=5, n=5$"):
            ExperimentConfig(kind=kind, n=5, r=5, trials=1)

    @pytest.mark.parametrize("kind,regime,k", [
        ("edge_regimes", "secondary", 30), ("laplacian_edge", "A", 31), ("bulk", None, 30),
    ])
    def test_k_at_or_above_n_rejected(self, kind, regime, k):
        # checked before any trial matrix is built, by a message that names k
        with pytest.raises(ValueError, match=r"need k < n=30, got k=3[01]"):
            ExperimentConfig(kind=kind, n=30, r=3, k=k, regime=regime)

    @pytest.mark.parametrize("config, error, message", [
        # built, then raised by the run
        (dict(kind="laplacian_edge", n=100, r=10), RegimeError,
         "laplacian_edge regime must be one of ('A', 'B_i', 'B_ii', 'C_i', 'C_ii'), got None"),
        (dict(kind="edge_bbp", n=30, r=3, p=0.4, ensemble=BERNOULLI), ValueError,
         "edge_bbp is defined for the Gaussian surrogate ensemble; "
         "got ensemble='bernoulli_hypergraph'"),
        (dict(kind="laplacian_bulk", n=50, r=3), ValueError,
         "laplacian_bulk needs matrix='laplacian' or 'laplacian_tilde'"),
        (dict(kind="laplacian_bulk", n=50, r=3, matrix="laplacian_tilde", regime="sqrt_nr"),
         RegimeError,
         "no limiting law for matrix=laplacian_tilde, regime=sqrt_nr; supported: "
         "(laplacian, fixed_r), (laplacian_tilde, fixed_r), "
         "(laplacian, proportional), (laplacian_tilde, proportional)"),
        (dict(kind="laplacian_bulk", n=50, r=3, matrix="laplacian", regime="bogus"), RegimeError,
         "no limiting law for matrix=laplacian, regime=bogus; supported: "
         "(laplacian, fixed_r), (laplacian_tilde, fixed_r), "
         "(laplacian, proportional), (laplacian_tilde, proportional)"),
        (dict(kind="edge_regimes", n=30, r=3, regime="bogus"), RegimeError,
         "edge_regimes regime must be one of ('proportional', 'sqrt_nr', 'secondary'), "
         "got 'bogus'"),
        (dict(kind="laplacian_edge", n=1000, r=3, regime="B_i"), RegimeError,
         "regime B_i requires r << sqrt(log n): need r <= 0.526, got r=3"),
        (dict(kind="bulk", n=30, r=3, p=True), ValueError,
         "config key 'p' must be a JSON float, got True"),
        (dict(kind="bulk", n=30, r=3, threads=True), ValueError,
         "config key 'threads' must be a JSON int, got True"),
        # built, then failed inside numpy
        (dict(kind="bulk", n=30.0, r=3), ValueError,
         "config key 'n' must be a JSON int, got 30.0"),
    ], ids=[
        "laplacian_edge-no-regime", "edge_bbp-bernoulli", "laplacian_bulk-gham",
        "tilde-edge-regime", "laplacian_bulk-bogus", "edge_regimes-bogus", "B_i-default-factor",
        "bool-p", "bool-threads", "float-n",
    ])
    def test_config_that_cannot_run_raises_when_built(self, config, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ExperimentConfig(trials=2, **config)

    # a non-finite value, or a bound at or below zero, would turn the gate or the
    # side condition off
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("field, config", [
        ("tolerance", dict(kind="bulk", n=40, r=3)),
        ("side_factor_small", dict(kind="laplacian_edge", regime="B_i", n=60, r=3)),
        ("side_factor_large", dict(kind="laplacian_edge", regime="C_ii", n=60, r=3)),
    ], ids=["tolerance", "side_factor_small", "side_factor_large"])
    def test_gate_bound_must_be_finite_and_positive(self, field, config, value):
        message = (rf"^config key '{field}' must be finite, got {value!r}$"
                   if not math.isfinite(value) else rf"^need {field} > 0, got {field}={value!r}$")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**config, **{field: value})

    def test_diagnostics_takes_the_fields_the_cli_always_sets(self):
        cfg = ExperimentConfig(kind="diagnostics", n=20, r=3, master_seed=4, threads=2,
                               ensemble=BERNOULLI)
        assert run_experiment(cfg).trials == []

    def test_trial_seeds_deterministic(self):
        cfg = ExperimentConfig(kind="bulk", n=10, r=3, master_seed=5)
        assert [cfg.trial_seed(i) for i in range(4)] == [
            cfg.trial_seed(i) for i in range(4)
        ]


class TestReproducibility:
    def test_bulk_records_bit_identical(self):
        cfg = ExperimentConfig(kind="bulk", n=40, r=5, trials=4, master_seed=9)
        rec1, rec2 = run_experiment(cfg), run_experiment(cfg)
        assert rec1.trials == rec2.trials
        assert rec1.aggregate == rec2.aggregate
        np.testing.assert_array_equal(rec1.data["eigenvalues"], rec2.data["eigenvalues"])

    def test_threads_do_not_change_results(self):
        serial = run_experiment(ExperimentConfig(kind="bulk", n=40, r=5, trials=4, master_seed=9))
        pooled = run_experiment(
            ExperimentConfig(kind="bulk", n=40, r=5, trials=4, master_seed=9, threads=3)
        )
        assert serial.trials == pooled.trials
        np.testing.assert_array_equal(
            serial.data["eigenvalues"], pooled.data["eigenvalues"]
        )

    def test_aggregates_recomputable_from_rows(self):
        cfg = ExperimentConfig(kind="edge_bbp", n=60, r=4, trials=6, master_seed=2)
        rec = run_experiment(cfg)
        recomputed = recompute_aggregates(rec)
        assert recomputed  # at least the mean/std/stderr keys
        for key, value in recomputed.items():
            assert rec.aggregate[key] == pytest.approx(value, abs=1e-12)


class TestTrialPool:
    EDGE = dict(kind="edge_bbp", n=200, r=4, trials=6, master_seed=3, threads=4)

    @staticmethod
    def _spy_solves(monkeypatch, fail_seed=None) -> list:
        """Record (thread id, BLAS thread counts) at every Lanczos solve."""
        seen = []
        solve = experiments.extreme_eigenvalues

        def spy(matrix, depth, seed):
            seen.append((threading.get_ident(), blas_threads()))
            if seed == fail_seed:
                raise EigensolverError(matrix.shape[0], depth, 0, 0, 0, 0)
            return solve(matrix, depth, seed)

        monkeypatch.setattr(experiments, "extreme_eigenvalues", spy)
        return seen

    def test_pooled_trials_run_blas_at_one_thread(self, caller_blas, monkeypatch):
        set_blas_threads(2)
        seen = self._spy_solves(monkeypatch)
        run_experiment(ExperimentConfig(**self.EDGE))
        assert len(seen) == self.EDGE["trials"]
        assert all(counts == [1] * len(experiments._openblas()[0]) for _, counts in seen)

    def test_caller_blas_threads_restored(self, caller_blas):
        set_blas_threads(2)
        run_experiment(ExperimentConfig(**self.EDGE))
        assert blas_threads() == [2] * len(experiments._openblas()[0])

    def test_caller_blas_threads_restored_when_a_trial_raises(self, caller_blas, monkeypatch):
        set_blas_threads(2)
        cfg = ExperimentConfig(**self.EDGE)
        self._spy_solves(monkeypatch, fail_seed=cfg.trial_seed(1))
        with pytest.raises(EigensolverError):
            run_experiment(cfg)
        assert blas_threads() == [2] * len(experiments._openblas()[0])

    def test_pool_capped_at_usable_cores(self, monkeypatch):
        seen = self._spy_solves(monkeypatch)
        run_experiment(ExperimentConfig(**self.EDGE))
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count()
        assert len({ident for ident, _ in seen}) <= cores

    @pytest.mark.parametrize(
        "config",
        [
            dict(kind="edge_bbp", n=1000, r=4, trials=4, master_seed=7),
            dict(kind="edge_regimes", n=600, r=180, trials=4, master_seed=7,
                 regime="proportional"),
            dict(kind="laplacian_edge", n=600, r=60, k=2, trials=4, master_seed=7,
                 regime="A"),
        ],
        ids=["edge_bbp", "edge_regimes", "laplacian_edge"],
    )
    def test_edge_records_do_not_depend_on_threads(self, config):
        # the Lanczos kinds are independent of the BLAS thread count, so the
        # serial run at the caller's count equals the pinned pooled run
        serial = run_experiment(ExperimentConfig(**config, threads=1))
        pooled = run_experiment(ExperimentConfig(**config, threads=4))
        assert serial.trials == pooled.trials
        assert serial.aggregate == pooled.aggregate
        for key, values in serial.data.items():
            np.testing.assert_array_equal(values, pooled.data[key])

    def test_pooled_dense_record_equals_serial_at_one_blas_thread(self, caller_blas):
        # at n = 500 the dense solve depends on the BLAS thread count; a pooled
        # trial runs at one thread, so it reproduces the serial run at one
        config = dict(kind="bulk", n=500, r=2, trials=4, master_seed=13)
        pooled = run_experiment(ExperimentConfig(**config, threads=4))
        set_blas_threads(1)
        serial = run_experiment(ExperimentConfig(**config))
        assert serial.trials == pooled.trials
        assert serial.aggregate == pooled.aggregate
        np.testing.assert_array_equal(serial.data["eigenvalues"], pooled.data["eigenvalues"])


class TestRunBulk:
    def test_wigner_specialisation_r2(self):
        cfg = ExperimentConfig(kind="bulk", n=120, r=2, trials=5, master_seed=1)
        rec = run_experiment(cfg)
        # reference variance (1 - 2/120)^2 is within a whisker of 1
        assert rec.aggregate["reference"]["sigma2"] == pytest.approx(1.0, abs=0.04)
        assert rec.aggregate["mean_esd_ks"] < 0.1

    def test_bernoulli_ensemble_route(self):
        cfg = ExperimentConfig(
            kind="bulk", n=60, r=3, p=0.4, trials=3, master_seed=4, ensemble=BERNOULLI
        )
        rec = run_experiment(cfg)
        assert len(rec.trials) == 3
        assert rec.data["eigenvalues"].shape == (3, 60)

    def test_tolerance_gate(self):
        cfg = ExperimentConfig(kind="bulk", n=80, r=10, trials=3, master_seed=0, tolerance=0.5)
        rec = run_experiment(cfg)
        assert rec.aggregate["passed"] is True

    def test_pooled_measure_is_average_of_trial_cdfs(self):
        cfg = ExperimentConfig(kind="bulk", n=30, r=3, trials=4, master_seed=3)
        rec = run_experiment(cfg)
        eigs = rec.data["eigenvalues"]
        pooled = np.sort(eigs.ravel())
        grid = np.linspace(pooled[0] - 0.1, pooled[-1] + 0.1, 101)
        pooled_cdf = np.searchsorted(pooled, grid, side="right") / pooled.size
        trial_cdfs = np.mean(
            [np.searchsorted(np.sort(t), grid, side="right") / t.size for t in eigs],
            axis=0,
        )
        np.testing.assert_allclose(pooled_cdf, trial_cdfs, atol=1e-15)


class TestLaplacianBulk:
    def test_requires_laplacian_matrix(self):
        with pytest.raises(ValueError, match="laplacian"):
            ExperimentConfig(kind="laplacian_bulk", n=50, r=3, trials=2)

    def test_unsupported_combination(self):
        with pytest.raises(RegimeError):
            ExperimentConfig(
                kind="laplacian_bulk", n=50, r=3, trials=2,
                matrix="laplacian", regime="secondary",
            )

    def test_proportional_tilde_matches_semicircle(self):
        cfg = ExperimentConfig(
            kind="laplacian_bulk", n=300, r=60, trials=4, master_seed=6,
            matrix="laplacian_tilde", regime="proportional",
        )
        rec = run_experiment(cfg)
        assert rec.aggregate["reference"]["kind"] == "semicircle"
        assert rec.aggregate["mean_esd_ks"] < 0.08

    def test_proportional_laplacian_gaussian_convolution(self):
        # the dropped adjacency bulk perturbs this regime at scale
        # 2(1-c)/sqrt(r), about 0.13 here; tolerance set accordingly and the
        # error must shrink as (n, r) grow
        ks = {}
        for n in (400, 900):
            r = int(math.sqrt(n) * math.log(n))
            cfg = ExperimentConfig(
                kind="laplacian_bulk", n=n, r=r, trials=4, master_seed=6,
                matrix="laplacian", regime="proportional",
            )
            rec = run_experiment(cfg)
            assert rec.aggregate["reference"]["kind"] == "free_convolution"
            ks[n] = rec.aggregate["mean_esd_ks"]
        assert ks[400] < 0.15
        assert ks[900] < ks[400]

    def test_surrogate_trial_peak_is_one_matrix(self):
        # the surrogate keeps no Z and the Laplacian is built over the GHAM, so
        # a trial matrix holds one n x n array; with the Laplacian beside the
        # GHAM it peaked at about 2.1 * 8n^2 bytes
        n = 1000
        cfg = ExperimentConfig(kind="laplacian_bulk", n=n, r=3, matrix="laplacian_tilde")
        peak = traced_peak(experiments._trial_matrix, cfg, 5, "laplacian_tilde")
        assert peak <= 1.25 * 8 * n * n


# every (kind, regime) row of the edge table, at tiny n, with its row keys and
# the aggregate keys after the row statistics
TARGET = ("target", "abs_error_max", "abs_error_min")
EDGE_ROWS = [
    (dict(kind="edge_bbp", regime="fixed_r", n=40, r=4),
     ("lambda_max_scaled", "lambda_min_scaled"), TARGET),
    (dict(kind="edge_regimes", regime="proportional", n=40, r=12),
     ("lambda_max_over_n", "lambda_min_over_n"), ("ks_lambda_max", "ks_lambda_min", "note")),
    (dict(kind="edge_regimes", regime="sqrt_nr", n=40, r=12),
     ("lambda_max_scaled", "lambda_min_scaled"), TARGET),
    (dict(kind="edge_regimes", regime="secondary", n=40, r=4, k=2),
     ("lambda_sub_max_scaled", "lambda_sub_min_scaled"), TARGET),
    (dict(kind="laplacian_edge", regime="A", n=40, r=8, k=2),
     ("stat_max", "stat_min"), TARGET),
    (dict(kind="laplacian_edge", regime="B_i", n=40, r=3, side_factor_small=2.0),
     ("stat_max", "stat_min"), TARGET),
    (dict(kind="laplacian_edge", regime="B_ii", n=40, r=12),
     ("stat_max", "stat_min"), ("ks_stat_max", "ks_stat_min", "note")),
    (dict(kind="laplacian_edge", regime="C_i", n=40, r=2, side_factor_small=1.0),
     ("stat_max", "stat_min"), TARGET),
    (dict(kind="laplacian_edge", regime="C_ii", n=40, r=30, k=2, side_factor_large=1.0),
     ("stat_max", "stat_min"), TARGET),
]


# every kind, and every edge kind at each of its regimes: (config that builds,
# the optional fields it reads).  A field set off its default that the kind or
# regime does not read raises, so no record holds a knob that nothing read.
GATED = {"trials", "tolerance"}
EDGE = GATED | {"regime"}
READERS = [
    (dict(kind="bulk", n=40, r=3), GATED),
    (dict(kind="bulk", n=40, r=3, ensemble=BERNOULLI), GATED | {"p"}),
    (dict(kind="laplacian_bulk", n=40, r=3, matrix="laplacian"), GATED | {"matrix", "regime"}),
    (dict(kind="laplacian_bulk", n=40, r=3, matrix="laplacian", ensemble=BERNOULLI),
     GATED | {"matrix", "regime", "p"}),
    (dict(kind="concentration", n=40, r=3), GATED | {"scale_r_with_n"}),
    # r = 2, so that the larger size of scale_r_with_n, (80, 4), fits the edge budget
    (dict(kind="concentration", n=40, r=2, ensemble=BERNOULLI), GATED | {"scale_r_with_n", "p"}),
    (dict(kind="universality", n=40, r=3), GATED | {"p"}),
    (dict(kind="diagnostics", n=40, r=3), {"p"}),
    *((config, EDGE | reads) for config, reads in [
        (dict(kind="edge_bbp", regime="fixed_r", n=40, r=4), set()),
        (dict(kind="edge_regimes", regime="proportional", n=40, r=12), set()),
        (dict(kind="edge_regimes", regime="sqrt_nr", n=40, r=12), set()),
        (dict(kind="edge_regimes", regime="secondary", n=40, r=4), {"k"}),
        (dict(kind="laplacian_edge", regime="A", n=40, r=8), {"k"}),
        (dict(kind="laplacian_edge", regime="B_i", n=40, r=3, side_factor_small=2.0),
         {"side_factor_small"}),
        (dict(kind="laplacian_edge", regime="B_ii", n=40, r=12), set()),
        (dict(kind="laplacian_edge", regime="C_i", n=40, r=2, side_factor_small=1.0),
         {"k", "side_factor_small"}),
        (dict(kind="laplacian_edge", regime="C_ii", n=40, r=30, side_factor_large=1.0),
         {"k", "side_factor_large"}),
    ]),
]
# a value off the default for every optional field, valid wherever it is read
OFF_DEFAULT = dict(p=0.3, trials=3, tolerance=0.5, matrix="laplacian_tilde", regime="fixed_r",
                   k=2, scale_r_with_n=True, side_factor_small=2.0, side_factor_large=1.0)


class TestFieldsAKindReads:
    def test_every_optional_field_is_covered(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(OFF_DEFAULT) == fields - {
            "kind", "n", "r", "master_seed", "ensemble", "threads"
        }

    @pytest.mark.parametrize("field", sorted(OFF_DEFAULT))
    @pytest.mark.parametrize(
        "config, reads", READERS,
        ids=["-".join(filter(None, (c["kind"], c.get("regime"), c.get("ensemble"))))
             for c, _ in READERS],
    )
    def test_a_field_builds_where_read_and_raises_elsewhere(self, config, reads, field):
        # an edge regime is part of the reader, so its config keeps it
        value = config.get("regime", OFF_DEFAULT[field]) if field == "regime" else OFF_DEFAULT[field]
        changed = {**config, field: value}
        if field in reads:
            assert getattr(ExperimentConfig(**changed), field) == value
            return
        reader = config["kind"]
        if "regime" in config:  # the kind, or the regime, does not read it
            reader += f"( regime {config['regime']})?"
        message = rf"^{reader} does not read {field}; got {field}={re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**changed)


class TestEdgeTable:
    def test_rows_cover_the_table(self):
        rows = {
            (kind, regime)
            for kind, regimes in experiments._edge_table(n=40, r=4, k=1).items()
            for regime in regimes
        }
        assert rows == {(c["kind"], c["regime"]) for c, _, _ in EDGE_ROWS}
        assert len(rows) == 9

    @pytest.mark.parametrize(
        "config, keys, tail", EDGE_ROWS,
        ids=[f"{c['kind']}-{c['regime']}" for c, _, _ in EDGE_ROWS],
    )
    def test_one_runner_layout(self, config, keys, tail):
        rec = run_experiment(ExperimentConfig(trials=3, master_seed=5, **config))
        for row in rec.trials:
            assert list(row) == ["trial", "seed", "U", *keys]
            assert isinstance(row["U"], float)
        stats = [f"{s}_{key}" for key in keys for s in ("mean", "std", "stderr")]
        assert list(rec.aggregate) == ["regime", *stats, *tail]
        assert rec.aggregate["regime"] == config["regime"]

    def test_edge_bbp_rejects_other_regimes(self):
        with pytest.raises(RegimeError, match="fixed_r"):
            ExperimentConfig(kind="edge_bbp", n=40, r=4, trials=2, regime="bogus")


class TestEdgeBbp:
    def test_limit_values(self):
        assert bbp_edge_limit(2) == 2.0
        assert bbp_edge_limit(3) == 2.0
        assert bbp_edge_limit(4) == pytest.approx(1.5 * math.sqrt(2.0))
        assert bbp_edge_limit(10) == pytest.approx(3.18198, abs=1e-5)

    def test_surrogate_required(self):
        with pytest.raises(ValueError, match="surrogate"):
            ExperimentConfig(kind="edge_bbp", n=30, r=3, p=0.4, trials=2, ensemble=BERNOULLI)

    def test_smoke_run(self):
        cfg = ExperimentConfig(kind="edge_bbp", n=150, r=4, trials=4, master_seed=12)
        rec = run_experiment(cfg)
        assert rec.aggregate["target"] == pytest.approx(1.5 * math.sqrt(2.0))
        assert {"lambda_max_scaled", "lambda_min_scaled"} <= set(rec.trials[0])


class TestEdgeRegimes:
    @staticmethod
    def _exact_ks(y, c):
        # scipy's one-sample KS against P(g(z) <= y) = Phi((y^2 - c(1-c)) / (c y)),
        # the law of the branch of the edge limit on y's side of zero
        return stats.kstest(
            y, lambda v: stats.norm.cdf((v * v - c * (1 - c)) / (c * v))
        ).statistic

    @pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.9])
    def test_edge_limit_ks_matches_kstest(self, c):
        rng = np.random.default_rng(int(100 * c))
        # statistics from the limit law itself and from a law far from it
        z = rng.standard_normal(40)
        half = 0.5 * c * z
        disc = np.sqrt(half * half + c * (1 - c))
        for y_max, y_min in ((half + disc, half - disc),
                             (rng.uniform(0.01, 2.0, 40), -rng.uniform(0.01, 2.0, 40))):
            rows = [{"max": a, "min": b} for a, b in zip(y_max, y_min)]
            got = experiments._edge_limit_ks(c, rows, ("max", "min"), ("ks_max", "ks_min"))
            assert list(got) == ["ks_max", "ks_min"]
            assert got["ks_max"] == pytest.approx(self._exact_ks(y_max, c), abs=1e-12)
            assert got["ks_min"] == pytest.approx(self._exact_ks(y_min, c), abs=1e-12)

    @pytest.mark.parametrize(
        "config, keys, names",
        [
            (dict(kind="edge_regimes", regime="proportional", master_seed=7),
             ("lambda_max_over_n", "lambda_min_over_n"), ("ks_lambda_max", "ks_lambda_min")),
            (dict(kind="laplacian_edge", regime="B_ii", master_seed=8),
             ("stat_max", "stat_min"), ("ks_stat_max", "ks_stat_min")),
        ],
        ids=["edge_regimes", "laplacian_edge_B_ii"],
    )
    def test_records_score_the_exact_edge_law(self, config, keys, names):
        rec = run_experiment(ExperimentConfig(n=60, r=20, trials=4, **config))
        for key, name in zip(keys, names):
            y = np.array([row[key] for row in rec.trials])
            assert rec.aggregate[name] == pytest.approx(self._exact_ks(y, 20 / 60), abs=1e-12)
        assert list(rec.data) == ["eigenvalues"]

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.5])
    def test_edge_limit_ks_domain(self, c):
        rows = [{"max": 0.5, "min": -0.5}] * 3
        with pytest.raises(ValueError, match="0 < c < 1"):
            experiments._edge_limit_ks(c, rows, ("max", "min"), ("a", "b"))

    @pytest.mark.parametrize(
        "y_max, y_min",
        [(0.0, -0.5), (-0.1, -0.5), (0.5, 0.0), (0.5, 0.2)],
        ids=["max_zero", "max_negative", "min_zero", "min_positive"],
    )
    def test_edge_limit_ks_rejects_wrong_signed_statistics(self, y_max, y_min):
        rows = [{"max": 0.5, "min": -0.5}, {"max": y_max, "min": y_min}]
        with pytest.raises(ValueError, match="must be (positive|negative) on every trial"):
            experiments._edge_limit_ks(0.3, rows, ("max", "min"), ("a", "b"))

    def test_sqrt_nr_regime(self):
        n = 2000
        r = int(n**0.6)
        cfg = ExperimentConfig(
            kind="edge_regimes", n=n, r=r, trials=8, master_seed=3, regime="sqrt_nr"
        )
        rec = run_experiment(cfg)
        assert abs(rec.aggregate["mean_lambda_max_scaled"] - 1.0) < 0.1
        assert abs(rec.aggregate["mean_lambda_min_scaled"] + 1.0) < 0.1

    def test_secondary_regime(self):
        n, r = 2000, 3
        cfg = ExperimentConfig(
            kind="edge_regimes", n=n, r=r, trials=8, master_seed=3, regime="secondary", k=1
        )
        rec = run_experiment(cfg)
        target = 2.0 * (1.0 - r / n)
        assert rec.aggregate["target"] == pytest.approx(target)
        assert abs(rec.aggregate["mean_lambda_sub_max_scaled"] - target) < 0.1
        assert abs(rec.aggregate["mean_lambda_sub_min_scaled"] + target) < 0.1
        assert "std_lambda_sub_max_scaled" in rec.aggregate  # fluctuation scale

    def test_unknown_regime(self):
        with pytest.raises(RegimeError):
            ExperimentConfig(kind="edge_regimes", n=30, r=3, trials=2, regime="bogus")


class TestLaplacianEdge:
    def test_side_condition_b_i_names_requirement(self):
        with pytest.raises(RegimeError, match=r"sqrt\(log n\)"):
            ExperimentConfig(kind="laplacian_edge", n=1000, r=3, trials=2, regime="B_i")

    def test_side_condition_c_ii(self):
        with pytest.raises(RegimeError, match=r"sqrt\(n log n\)"):
            ExperimentConfig(kind="laplacian_edge", n=1000, r=100, trials=2, regime="C_ii")

    def test_side_condition_c_i_passes_when_small(self):
        cfg = ExperimentConfig(
            kind="laplacian_edge", n=900, r=5, trials=2, master_seed=1, regime="C_i"
        )
        rec = run_experiment(cfg)
        assert rec.aggregate["target"] == pytest.approx(
            math.sqrt((5 / 900) * (1 - 5 / 900))
        )

    def test_regime_required(self):
        with pytest.raises(RegimeError):
            ExperimentConfig(kind="laplacian_edge", n=100, r=10, trials=2)

    def test_b_ii_records_functional_note(self):
        cfg = ExperimentConfig(
            kind="laplacian_edge", n=200, r=60, trials=5, master_seed=8, regime="B_ii"
        )
        rec = run_experiment(cfg)
        assert "z^2 under the radical" in rec.aggregate["note"]
        assert "ks_stat_max" in rec.aggregate

    def test_c_ii_secondary_eigenvalue(self):
        n = 2000
        r = int(n**0.9)
        cfg = ExperimentConfig(
            kind="laplacian_edge", n=n, r=r, trials=6, master_seed=4, regime="C_ii", k=1
        )
        rec = run_experiment(cfg)
        target = 2.0 * (1.0 - r / n)
        assert abs(rec.aggregate["mean_stat_max"] - target) < 0.1


class TestConcentration:
    def test_single_trial_reports_absent_std(self):
        cfg = ExperimentConfig(kind="concentration", n=40, r=3, trials=1, master_seed=0)
        rec = run_experiment(cfg)
        assert rec.aggregate["std_small"] is None
        assert rec.aggregate["ratio"] is None

    def test_two_sizes_recorded(self):
        cfg = ExperimentConfig(kind="concentration", n=40, r=3, trials=5, master_seed=0)
        rec = run_experiment(cfg)
        assert rec.aggregate["sizes"] == [[40, 3], [80, 3]]
        assert {row["n"] for row in rec.trials} == {40, 80}

    def test_r_scaling_flag(self):
        cfg = ExperimentConfig(
            kind="concentration", n=40, r=4, trials=3, master_seed=0, scale_r_with_n=True
        )
        rec = run_experiment(cfg)
        assert rec.aggregate["sizes"] == [[40, 4], [80, 8]]

    def test_proportional_r_keeps_fluctuation_scale(self):
        # with r growing proportionally to n the size-fluctuation exponent
        # n^2/r^2 is constant; at r/n = 1/2 the r-driven component dominates
        # and the std ratio stays near 1 instead of halving (at small r/n the
        # 1/n component still wins and the ratio sits lower)
        cfg = ExperimentConfig(
            kind="concentration", n=200, r=100, trials=200, master_seed=44,
            scale_r_with_n=True, threads=4,
        )
        rec = run_experiment(cfg)
        assert 0.7 <= rec.aggregate["ratio"] <= 1.3


class TestUniversalityRun:
    def test_paired_comparison(self):
        cfg = ExperimentConfig(
            kind="universality", n=80, r=3, p=0.3, trials=4, master_seed=1,
            ensemble=BERNOULLI,
        )
        rec = run_experiment(cfg)
        assert rec.aggregate["ks_difference"] == pytest.approx(
            abs(
                rec.aggregate["mean_esd_ks_bernoulli"]
                - rec.aggregate["mean_esd_ks_gaussian"]
            )
        )
        assert rec.data["eigenvalues_bernoulli"].shape == (4, 80)

    def test_scaled_hausdorff_sanity(self):
        # Hausdorff distance between paired sorted spectra over sqrt(n) stays
        # small at matched (n, r) even though the draws are independent
        cfg = ExperimentConfig(
            kind="universality", n=500, r=3, p=0.3, trials=4, master_seed=2,
            ensemble=BERNOULLI, threads=2,
        )
        rec = run_experiment(cfg)
        assert rec.aggregate["mean_hausdorff_scaled"] < 0.5

    def test_wrapped_samplers_see_every_draw(self, monkeypatch):
        # the per-layer spans of perfbench/ rebind the samplers on this module; a
        # table that captured them when imported would draw past the wrappers
        seen = []
        for name in ("sample_surrogate", "sample_hypergraph"):
            def counting(params, seed, name=name, sampler=getattr(experiments, name)):
                seen.append((name, seed))
                return sampler(params, seed)

            monkeypatch.setattr(experiments, name, counting)
        bulk = ExperimentConfig(kind="bulk", n=30, r=3, trials=3, master_seed=1)
        run_experiment(bulk)
        assert seen == [("sample_surrogate", bulk.trial_seed(i)) for i in range(3)]
        seen.clear()
        both = ExperimentConfig(kind="universality", n=30, r=3, trials=2, master_seed=2)
        run_experiment(both)
        assert sorted(seen) == sorted(
            [("sample_hypergraph", both.trial_seed(i)) for i in range(2)]
            + [("sample_surrogate", both.trial_seed(2 + i)) for i in range(2)]
        )


class TestWignerSpecialisation:
    def test_r2_classical_semicircle(self):
        # at r = 2 the ensemble is an off-diagonal Wigner matrix; the pooled
        # ESD over 20 trials at n = 500 must match sc(1) to ks < 0.05
        from hypergraph_spectra.laws import EmpiricalLaw, SemicircleLaw
        from hypergraph_spectra.metrics import ks_distance

        cfg = ExperimentConfig(
            kind="bulk", n=500, r=2, trials=20, master_seed=13, threads=4
        )
        rec = run_experiment(cfg)
        pooled = EmpiricalLaw(rec.data["eigenvalues"].ravel())
        assert ks_distance(pooled, SemicircleLaw(1.0)) < 0.05


class TestDiagnostics:
    def test_truncation_scale_example(self):
        report = assumption_diagnostics(ModelParams(10, 4, 0.5))
        assert report["k_n"] == pytest.approx(math.sqrt(280.0) / 256.0, rel=1e-12)
        assert report["k_n"] == pytest.approx(0.065365, abs=1e-6)

    def test_sparse_example_flagged(self):
        report = assumption_diagnostics(ModelParams(20, 3, 0.1))
        assert report["d_avg"] == pytest.approx(17.1)
        assert report["d_avg_over_r7"] == pytest.approx(0.00782, abs=1e-5)
        assert report["adjacency_sparsity_ok"] is False

    def test_dense_flag(self):
        report = assumption_diagnostics(ModelParams(12, 3, 1.0))
        assert report["dense"] is True
        assert report["d_avg"] == math.comb(11, 2)

    def test_threshold_controls_flags(self):
        params = ModelParams(20, 3, 0.1)
        lenient = assumption_diagnostics(params, threshold=1e-3)
        assert lenient["adjacency_sparsity_ok"] is True


class TestPersistence:
    def test_record_directory_layout(self, tmp_path):
        cfg = ExperimentConfig(kind="bulk", n=30, r=3, trials=3, master_seed=7)
        rec = run_experiment(cfg)
        run_dir = persist_record(rec, tmp_path, timestamp="20260101T000000")
        assert run_dir == tmp_path / "runs" / "bulk" / "20260101T000000-7"
        payload = json.loads((run_dir / "record.json").read_text())
        assert payload["config"]["n"] == 30
        assert len(payload["trials"]) == 3
        assert "mean_esd_ks" in payload["aggregate"]
        csv = np.loadtxt(run_dir / "eigenvalues.csv", delimiter=",", skiprows=1)
        assert csv.shape == (90, 3)

    @pytest.mark.parametrize("arr", [
        np.random.default_rng(1).standard_normal((1, 40)),
        np.random.default_rng(2).standard_normal((5, 30)) * 1e-300,
        np.array([[-0.0, np.inf], [np.nan, 2.0**60]]),
    ], ids=["one-trial", "multi-trial", "2x2"])
    def test_csv_bytes_are_those_of_savetxt(self, tmp_path, arr):
        rec = experiments.ExperimentRecord(
            {"kind": "bulk", "master_seed": 3}, [], {}, 0.0, data={"eigenvalues": arr}
        )
        run_dir = persist_record(rec, tmp_path, timestamp="t")
        trial_idx = np.repeat(np.arange(arr.shape[0]), arr.shape[1])
        flat = np.column_stack([trial_idx, np.tile(np.arange(arr.shape[1]), arr.shape[0]), arr.ravel()])
        np.savetxt(tmp_path / "expected.csv", flat, delimiter=",", header="trial,index,value")
        written = (run_dir / "eigenvalues.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()
        assert written.count(b"\n") == 1 + arr.size

    def test_pooled_record_carries_provenance(self, tmp_path):
        cfg = ExperimentConfig(kind="edge_bbp", n=60, r=4, trials=3, master_seed=2, threads=2)
        run_dir = persist_record(run_experiment(cfg), tmp_path, timestamp="t")
        payload = json.loads((run_dir / "record.json").read_text())
        prov = payload["provenance"]
        assert set(prov) == {"python", "numpy", "scipy", "blas", "workers", "blas_pinned"}
        assert prov["numpy"] == np.__version__
        assert 1 <= prov["workers"] <= 2
        assert prov["blas_pinned"] is bool(experiments._openblas()[0])
        assert all(lib["threads"] == 1 for lib in prov["blas"])
        assert not any("provenance" in row for row in payload["trials"])
        assert "provenance" not in payload["aggregate"]

    def test_serial_edge_record_reports_the_pinned_solve(self, caller_blas):
        # a serial record runs at the caller's BLAS threads, but every edge solve
        # pins itself to one; the rows do not depend on the count either way
        set_blas_threads(2)
        edge = run_experiment(ExperimentConfig(kind="edge_bbp", n=300, r=4, trials=2))
        bulk = run_experiment(ExperimentConfig(kind="bulk", n=30, r=3, trials=1))
        assert edge.provenance["blas_pinned"] is True
        assert all(lib["threads"] == 1 for lib in edge.provenance["blas"])
        assert edge.provenance["workers"] == 1
        assert bulk.provenance["blas_pinned"] is False
        assert all(lib["threads"] == 2 for lib in bulk.provenance["blas"])
        set_blas_threads(1)
        again = run_experiment(ExperimentConfig(kind="edge_bbp", n=300, r=4, trials=2))
        assert again.trials == edge.trials and again.provenance == edge.provenance

    def test_persisted_proportional_record_holds_only_eigenvalues(self, tmp_path):
        cfg = ExperimentConfig(
            kind="edge_regimes", n=60, r=30, trials=3, master_seed=5, regime="proportional",
        )
        rec = run_experiment(cfg)
        run_dir = persist_record(rec, tmp_path, timestamp="t")
        assert sorted(p.name for p in run_dir.iterdir()) == ["eigenvalues.csv", "record.json"]
        payload = json.loads((run_dir / "record.json").read_text())
        assert set(payload["artifacts"]) == {"eigenvalues"}

    def test_dispatch_diagnostics_kind(self):
        cfg = ExperimentConfig(kind="diagnostics", n=20, r=3, p=0.1)
        rec = run_experiment(cfg)
        assert rec.aggregate["d_avg_over_r7"] == pytest.approx(0.00782, abs=1e-5)
        assert rec.trials == []

    def test_dispatch_known_kind(self):
        cfg = ExperimentConfig(kind="bulk", n=24, r=3, trials=2, master_seed=0)
        rec = run_experiment(cfg)
        assert rec.config["kind"] == "bulk"

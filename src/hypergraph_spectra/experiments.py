"""Seeded Monte-Carlo experiment suites over the hypergraph matrix ensembles.

Each ``run_*`` function takes an ExperimentConfig and returns an
ExperimentRecord holding the config snapshot, one summary row per trial,
aggregate statistics recomputable from those rows, raw eigenvalue arrays for
persistence, and a provenance block (versions, BLAS libraries, pool size).
Every kind goes through one trial loop, ``_run``: a kind supplies only
``trial(index, seed)``, giving its row statistics and per-trial arrays, and
``finish(rows, data)``, giving its aggregate and gate keys.  The loop owns the
timer, the per-trial seeds (derived from the master seed by splitmix64), the
rows, the stacking of arrays in trial order, the tolerance gate and the
record.  The edge kinds read at most depth = k + 1 eigenvalues at each end and
compute only those, by a Lanczos solve started from a vector derived from the
trial seed (``spectra.extreme_eigenvalues``); the others solve densely.

With ``threads > 1`` trials run on a thread pool (the eigensolvers release the
GIL) of at most as many workers as usable cores, and every trial runs the
bundled OpenBLAS libraries at one thread, so pool and BLAS threads do not
compete for the cores; aggregation is a deterministic fold in trial order.
Reproducibility contract: a record is bit-reproducible for a fixed config at a
fixed BLAS thread count per trial.  That count is the caller's when
``threads == 1`` and one when ``threads > 1``.  From n in the low hundreds the
dense kinds depend on it in the last bits of the eigenvalues, so a pooled
dense record equals the serial record run at one BLAS thread; the Lanczos
edge kinds depend on neither the BLAS thread count nor ``threads``.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np
import scipy

from .combinatorics import (
    DEFAULT_EDGE_BUDGET,
    ModelParams,
    average_degree,
    check_edge_budget,
    derive_seed,
    log_binomial,
    sample_hypergraph,
)
from .gham import (
    adjacency_from_hypergraph,
    gham_from_adjacency,
    laplacian,
    laplacian_tilde,
    sample_surrogate,
)
from .laws import (
    EmpiricalLaw,
    FreeConvolutionLaw,
    GaussianLaw,
    Law,
    SemicircleLaw,
)
from .metrics import bl_upper_bound, hausdorff_spectra, ks_distance, w1_distance
from .spectra import Scaling, extreme_eigenvalues, symmetric_eigenvalues

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "ExperimentRecord",
    "RegimeError",
    "run_bulk",
    "run_laplacian_bulk",
    "run_edge_bbp",
    "run_edge_regimes",
    "run_laplacian_edge",
    "run_concentration",
    "run_universality",
    "run_experiment",
    "bbp_edge_limit",
    "assumption_diagnostics",
    "edge_limit_pushforward",
    "persist_record",
]

BERNOULLI = "bernoulli_hypergraph"
SURROGATE = "gaussian_surrogate"

EXPERIMENT_KINDS = (
    "bulk",
    "laplacian_bulk",
    "edge_bbp",
    "edge_regimes",
    "laplacian_edge",
    "concentration",
    "universality",
    "diagnostics",
)


class RegimeError(ValueError):
    """An experiment regime's side condition on (n, r) is violated."""


@dataclass
class ExperimentConfig:
    kind: str
    n: int
    r: int
    p: float = 0.5
    trials: int = 10
    master_seed: int = 0
    ensemble: str = SURROGATE
    matrix: str = "gham"  # gham | laplacian | laplacian_tilde
    scaling: Scaling = Scaling.BY_SQRT_N
    k: int = 1
    regime: str | None = None
    tolerance: float | None = None
    pushforward_draws: int = 100_000
    scale_r_with_n: bool = False
    threads: int = 1
    edge_budget: float = DEFAULT_EDGE_BUDGET
    # explicit constants standing in for "<<" and ">>" side conditions
    side_factor_small: float = 0.2
    side_factor_large: float = 5.0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        if self.ensemble not in (BERNOULLI, SURROGATE):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.matrix not in ("gham", "laplacian", "laplacian_tilde"):
            raise ValueError(f"unknown matrix kind {self.matrix!r}")
        if isinstance(self.scaling, str):
            self.scaling = Scaling(self.scaling)
        params = self.model_params()  # validates (n, r, p)
        if self.ensemble == BERNOULLI:
            check_edge_budget(params, self.edge_budget)

    def model_params(self) -> ModelParams:
        return ModelParams(n=self.n, r=self.r, p=self.p)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["scaling"] = self.scaling.value
        return out

    def trial_seed(self, index: int) -> int:
        return derive_seed(self.master_seed, index)


@dataclass
class ExperimentRecord:
    """One experiment run: config snapshot, per-trial rows, aggregates.

    ``data`` holds raw arrays (eigenvalues, pushforward draws) that back the
    pooled aggregates; it is persisted as CSV, not inside the JSON.  The edge
    kinds keep only the 2 * depth eigenvalues per trial that they compute.
    """

    config: dict
    trials: list[dict]
    aggregate: dict
    wall_clock_s: float
    artifacts: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "wall_clock_s": self.wall_clock_s,
            "provenance": self.provenance,
            "artifacts": self.artifacts,
        }


@functools.cache
def _openblas() -> tuple:
    """(file name, get_num_threads, set_num_threads_local) for each OpenBLAS
    bundled with numpy or scipy that exports both symbols; empty under any
    other BLAS."""
    found = []
    for module, getter in (
        (np, "scipy_openblas_get_num_threads64_"),
        (scipy, "scipy_openblas_get_num_threads"),
    ):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                found.append((path.name, getattr(lib, getter), lib.openblas_set_num_threads_local))
            except (OSError, AttributeError):
                continue
    return tuple(found)


def _pool_size(cfg: ExperimentConfig) -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return min(cfg.threads, cfg.trials, cores)


def _map_trials(cfg: ExperimentConfig, worker):
    """Run worker(index, seed) for every trial; results in trial order.

    With threads > 1 each pool worker sets every bundled OpenBLAS to one
    thread.  That setting reaches the calling thread too (the count is
    process-wide in these builds), so the caller saves the counts before the
    pool starts and restores them once it has joined, also when a trial
    raises.  Two pooled runs at once in one process would race on them."""
    seeds = [cfg.trial_seed(i) for i in range(cfg.trials)]
    if cfg.threads == 1:
        return [worker(i, s) for i, s in zip(range(cfg.trials), seeds)]
    blas = _openblas()
    saved = [get() for _, get, _ in blas]

    def pinned(index: int, seed: int):
        for _, _, set_local in blas:
            set_local(1)
        return worker(index, seed)

    try:
        with ThreadPoolExecutor(max_workers=_pool_size(cfg)) as pool:
            return list(pool.map(pinned, range(cfg.trials), seeds))
    finally:
        for (_, _, set_local), count in zip(blas, saved):
            set_local(count)


def _provenance(cfg: ExperimentConfig) -> dict:
    """Versions, bundled BLAS libraries with the thread count trials ran at,
    and the pool size; kept out of the rows and the aggregate."""
    pooled = cfg.threads > 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": [
            {"library": name, "threads": 1 if pooled else get()}
            for name, get, _ in _openblas()
        ],
        "workers": _pool_size(cfg) if pooled else 1,
        "blas_pinned": pooled and bool(_openblas()),
    }


def _run(cfg: ExperimentConfig, trial, finish, legs=None) -> ExperimentRecord:
    """The Monte-Carlo loop shared by every experiment kind.

    ``trial(index, seed)`` returns the kind's row statistics and a dict of
    per-trial arrays; each row gets ``trial`` and ``seed`` first, and each
    array is stacked across trials, in trial order, into ``data``.
    ``finish(rows, data)`` returns the aggregate and its gate keys: with a
    tolerance set, ``tolerance`` and ``passed`` (every gate key below the
    tolerance) end the aggregate, unless a gate key is None.  ``legs`` lists
    (sub-config, trial) pairs for a kind that samples several model sizes; by
    default the one leg is (cfg, trial).
    """
    t0 = time.perf_counter()
    rows: list[dict] = []
    data: dict[str, np.ndarray] = {}
    for leg, leg_trial in legs or [(cfg, trial)]:

        def worker(index: int, seed: int):
            stats, arrays = leg_trial(index, seed)
            return {"trial": index, "seed": seed, **stats}, arrays

        results = _map_trials(leg, worker)
        rows += [row for row, _ in results]
        for key in results[0][1]:
            data[key] = np.stack([arrays[key] for _, arrays in results])
    aggregate, gate = finish(rows, data)
    if cfg.tolerance is not None and all(aggregate[key] is not None for key in gate):
        aggregate["tolerance"] = cfg.tolerance
        aggregate["passed"] = all(aggregate[key] < cfg.tolerance for key in gate)
    return ExperimentRecord(
        config=cfg.to_dict(),
        trials=rows,
        aggregate=aggregate,
        wall_clock_s=time.perf_counter() - t0,
        data=data,
        provenance=_provenance(cfg),
    )


def _trial_matrix(cfg: ExperimentConfig, seed: int, matrix: str = "gham"):
    """One draw of the normalised adjacency matrix, or of one of its
    Laplacians, plus the surrogate components when applicable."""
    params = cfg.model_params()
    if cfg.ensemble == SURROGATE:
        comp, h = sample_surrogate(params, seed)
    else:
        hg = sample_hypergraph(params, seed, max_expected_edges=cfg.edge_budget)
        comp, h = None, gham_from_adjacency(adjacency_from_hypergraph(hg), params)
    if matrix == "laplacian":
        return laplacian(h), comp
    if matrix == "laplacian_tilde":
        return laplacian_tilde(h, cfg.r), comp
    return h, comp


def _pooled_measure(eigs: np.ndarray) -> EmpiricalLaw:
    # pooling eigenvalues across equal-size trials IS the average of the
    # per-trial empirical CDFs, with no grid discretisation
    return EmpiricalLaw(eigs.ravel())


def _pooled_esd(eigs: np.ndarray, reference: Law) -> dict:
    pooled = _pooled_measure(eigs)
    return {
        "mean_esd_ks": ks_distance(pooled, reference),
        "mean_esd_w1": w1_distance(pooled, reference),
        "mean_esd_bl_upper": bl_upper_bound(pooled, reference),
    }


def _row_stats(rows: list[dict], *keys: str) -> dict:
    out = {}
    for key in keys:
        values = np.asarray([row[key] for row in rows], dtype=float)
        out[f"mean_{key}"] = float(values.mean())
        if values.size > 1:
            std = float(values.std(ddof=1))
            out[f"std_{key}"] = std
            out[f"stderr_{key}"] = std / math.sqrt(values.size)
    return out


def _abs_errors(aggregate: dict, keys: tuple[str, str], target: float) -> dict:
    """Distances of the mean (max, min) statistics to +target and -target."""
    return {
        "abs_error_max": abs(aggregate[f"mean_{keys[0]}"] - target),
        "abs_error_min": abs(aggregate[f"mean_{keys[1]}"] + target),
    }


def _pushforward_ks(cfg: ExperimentConfig, rows: list[dict], keys, names, data: dict) -> dict:
    """Two-sample KS of the (max, min) row statistics against a pushforward
    sample of the proportional-regime edge limits; the draws go into data."""
    push_seed = cfg.trial_seed(cfg.trials)  # disjoint from trial seeds
    draws = edge_limit_pushforward(cfg.r / cfg.n, cfg.pushforward_draws, push_seed)
    data["pushforward_max"], data["pushforward_min"] = draws
    return {
        name: ks_distance(EmpiricalLaw([row[key] for row in rows]), EmpiricalLaw(push))
        for name, key, push in zip(names, keys, draws)
    }


def _run_esd(cfg: ExperimentConfig, reference: Law, matrix: str, scaling: Scaling, w1: bool):
    """Per-trial and pooled ESD of the scaled matrix against a reference law."""
    keys = ("ks", "w1") if w1 else ("ks",)

    def trial(index: int, seed: int):
        m, _ = _trial_matrix(cfg, seed, matrix)
        lam = symmetric_eigenvalues(m, scaling=scaling, r=cfg.r)
        measure = EmpiricalLaw(lam)
        stats = {"ks": ks_distance(measure, reference)}
        if w1:
            stats["w1"] = w1_distance(measure, reference)
        return stats, {"eigenvalues": lam}

    def finish(rows: list[dict], data: dict):
        aggregate = {"reference": reference.descriptor()}
        aggregate.update(_pooled_esd(data["eigenvalues"], reference))
        aggregate.update(_row_stats(rows, *keys))
        return aggregate, ["mean_esd_ks"]

    return _run(cfg, trial, finish)


def run_bulk(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bulk spectrum experiment: the ESD of n^{-1/2} H against the semicircle
    law with variance (1 - r/n)^2."""
    reference = SemicircleLaw((1.0 - cfg.model_params().size_ratio) ** 2)
    return _run_esd(cfg, reference, "gham", Scaling.BY_SQRT_N, w1=True)


def _laplacian_reference(cfg: ExperimentConfig) -> Law:
    r, c = cfg.r, cfg.r / cfg.n
    key = (cfg.matrix, cfg.scaling, cfg.regime or "fixed_r")
    if key == ("laplacian", Scaling.BY_SQRT_N, "fixed_r"):
        return FreeConvolutionLaw(GaussianLaw(float(r - 1)), SemicircleLaw(1.0))
    if key == ("laplacian_tilde", Scaling.BY_SQRT_N, "fixed_r"):
        return FreeConvolutionLaw(GaussianLaw(1.0 / (r - 1)), SemicircleLaw(1.0))
    if key == ("laplacian", Scaling.BY_SQRT_NR, "proportional"):
        return FreeConvolutionLaw(GaussianLaw(1.0), GaussianLaw(c))
    if key == ("laplacian_tilde", Scaling.BY_SQRT_N, "proportional"):
        return SemicircleLaw((1.0 - c) ** 2)
    raise RegimeError(
        f"no limiting law for matrix={cfg.matrix}, scaling={cfg.scaling.value}, "
        f"regime={cfg.regime}; supported: (laplacian, by_sqrt_n, fixed_r), "
        f"(laplacian_tilde, by_sqrt_n, fixed_r), (laplacian, by_sqrt_nr, "
        f"proportional), (laplacian_tilde, by_sqrt_n, proportional)"
    )


def run_laplacian_bulk(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bulk spectrum of a Laplacian matrix against its limiting law (a free
    additive convolution for fixed r, a semicircle or Gaussian convolution in
    the proportional regime)."""
    if cfg.matrix == "gham":
        raise ValueError("laplacian_bulk needs matrix='laplacian' or 'laplacian_tilde'")
    return _run_esd(cfg, _laplacian_reference(cfg), cfg.matrix, cfg.scaling, w1=False)


def bbp_edge_limit(r: int) -> float:
    """Limit of lambda_1/sqrt(n) for fixed edge size r: 2 up to r = 3, then
    sqrt(r-2) + 1/sqrt(r-2)."""
    if r <= 3:
        return 2.0
    return math.sqrt(r - 2) + 1.0 / math.sqrt(r - 2)


def run_edge_bbp(cfg: ExperimentConfig) -> ExperimentRecord:
    """Extreme eigenvalues of the surrogate at fixed r: lambda_1/sqrt(n) and
    lambda_n/sqrt(n) against the phase-transition limit at r = 3."""
    _require_surrogate(cfg)
    target = bbp_edge_limit(cfg.r)
    keys = ("lambda_max_scaled", "lambda_min_scaled")
    root_n = math.sqrt(cfg.n)

    def trial(index: int, seed: int):
        h, _ = _trial_matrix(cfg, seed)
        lam = extreme_eigenvalues(h, 1, seed)
        stats = {keys[0]: float(lam[0]) / root_n, keys[1]: float(lam[-1]) / root_n}
        return stats, {"eigenvalues": lam}

    def finish(rows: list[dict], data: dict):
        aggregate = {"target": target, **_row_stats(rows, *keys)}
        aggregate.update(_abs_errors(aggregate, keys, target))
        return aggregate, ["abs_error_max", "abs_error_min"]

    return _run(cfg, trial, finish)


def edge_limit_pushforward(c: float, draws: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo sample of the proportional-regime edge limits
    (c/2) z +- sqrt((c^2/4) z^2 + c(1-c)) for standard Gaussian z."""
    if not (0.0 < c < 1.0):
        raise ValueError(f"need 0 < c < 1, got c={c}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(draws)
    half = 0.5 * c * z
    disc = np.sqrt(half * half + c * (1.0 - c))
    return half + disc, half - disc


def _edge_trial(cfg: ExperimentConfig, matrix: str, keys, j: int, multiplier, divisor):
    """Trial of an extreme-eigenvalue regime: the surrogate's scalar Gaussian
    U, then multiplier * lambda_{1+j} / divisor and its mirror at lambda_{n-j}
    (eigenvalues descending)."""

    def trial(index: int, seed: int):
        m, comp = _trial_matrix(cfg, seed, matrix)
        lam = extreme_eigenvalues(m, j + 1, seed)
        stats = {
            "U": comp.U,
            keys[0]: multiplier * float(lam[j]) / divisor,
            keys[1]: multiplier * float(lam[-1 - j]) / divisor,
        }
        return stats, {"eigenvalues": lam}

    return trial


def run_edge_regimes(cfg: ExperimentConfig) -> ExperimentRecord:
    """Extreme-eigenvalue experiments for the surrogate across growth regimes.

    regime='proportional': lambda_1/n is compared in distribution (two-sample
    KS) against a pushforward Monte-Carlo sample of the limit functional of a
    standard Gaussian; per-trial rows also record the scalar Gaussian U that
    generated the trial.
    regime='sqrt_nr': mean lambda_1/sqrt(nr) against 1 (and the minimum
    against -1).
    regime='secondary': the (1+k)-th eigenvalues scaled by sqrt(n) against
    +-2(1 - r/n), with the observed fluctuation scale reported.
    """
    _require_surrogate(cfg)
    regime = cfg.regime or "proportional"
    n, r, k = cfg.n, cfg.r, cfg.k
    # regime -> (row keys, order-statistic position, divisor, target)
    table = {
        "proportional": (("lambda_max_over_n", "lambda_min_over_n"), 0, n, None),
        "sqrt_nr": (("lambda_max_scaled", "lambda_min_scaled"), 0, math.sqrt(n * r), 1.0),
        "secondary": (
            ("lambda_sub_max_scaled", "lambda_sub_min_scaled"), k, math.sqrt(n),
            2.0 * (1.0 - r / n),
        ),
    }
    if regime not in table:
        raise RegimeError(f"unknown edge regime {regime!r}")
    keys, j, divisor, target = table[regime]

    def finish(rows: list[dict], data: dict):
        aggregate: dict = {"regime": regime}
        if target is None:
            names = ("ks_lambda_max", "ks_lambda_min")
            aggregate.update(_pushforward_ks(cfg, rows, keys, names, data))
            aggregate.update(_row_stats(rows, *keys))
            return aggregate, ["ks_lambda_max"]
        aggregate["target"] = target
        if regime == "secondary":
            aggregate["k"] = k
        aggregate.update(_row_stats(rows, *keys))
        aggregate.update(_abs_errors(aggregate, keys, target))
        return aggregate, ["abs_error_max", "abs_error_min"]

    return _run(cfg, _edge_trial(cfg, "gham", keys, j, 1, divisor), finish)


def _check_laplacian_edge_regime(cfg: ExperimentConfig) -> None:
    n, r = cfg.n, cfg.r
    small, large = cfg.side_factor_small, cfg.side_factor_large
    if cfg.regime == "B_i" and r > small * math.sqrt(math.log(n)):
        raise RegimeError(
            f"regime B_i requires r << sqrt(log n): need r <= "
            f"{small * math.sqrt(math.log(n)):.3g}, got r={r}"
        )
    if cfg.regime == "C_i" and r > small * math.sqrt(n):
        raise RegimeError(
            f"regime C_i requires r << sqrt(n): need r <= {small * math.sqrt(n):.3g}, "
            f"got r={r}"
        )
    if cfg.regime == "C_ii" and r < large * math.sqrt(n * math.log(n)):
        raise RegimeError(
            f"regime C_ii requires r >> sqrt(n log n): need r >= "
            f"{large * math.sqrt(n * math.log(n)):.3g}, got r={r}"
        )


def run_laplacian_edge(cfg: ExperimentConfig) -> ExperimentRecord:
    """Extreme eigenvalues of the Laplacian matrices of the surrogate.

    Regimes (selected by cfg.regime, side conditions validated with explicit
    constants):
      A    -- lambda_k(L) / (n sqrt(2 log n)), centering sqrt(c(1-c))
      B_i  -- (r-1) lambda_1(Ltilde) / (n sqrt(2 log n)), same centering;
              requires r << sqrt(log n)
      B_ii -- lambda_1(Ltilde)/n against the proportional-regime pushforward
      C_i  -- (r-1) lambda_{1+k}(Ltilde) / (n sqrt(2 log n)), same centering;
              requires r << sqrt(n)
      C_ii -- lambda_{1+k}(Ltilde) / sqrt(n), centering 2(1 - c);
              requires r >> sqrt(n log n)
    """
    _require_surrogate(cfg)
    n, r, k = cfg.n, cfg.r, cfg.k
    c = r / n
    tilde = "laplacian_tilde"
    log_scale = n * math.sqrt(2.0 * math.log(n))
    centering = math.sqrt(c * (1.0 - c))
    # regime -> (matrix, order-statistic position, multiplier, divisor, target)
    table = {
        "A": ("laplacian", k - 1, 1, log_scale, centering),
        "B_i": (tilde, 0, r - 1, log_scale, centering),
        "B_ii": (tilde, 0, 1, n, None),
        "C_i": (tilde, k, r - 1, log_scale, centering),
        "C_ii": (tilde, k, 1, math.sqrt(n), 2.0 * (1.0 - c)),
    }
    if cfg.regime not in table:
        raise RegimeError(
            f"laplacian_edge regime must be one of {tuple(table)}, got {cfg.regime!r}"
        )
    _check_laplacian_edge_regime(cfg)
    matrix, j, multiplier, divisor, target = table[cfg.regime]
    keys = ("stat_max", "stat_min")

    def finish(rows: list[dict], data: dict):
        aggregate = {"regime": cfg.regime, **_row_stats(rows, *keys)}
        if target is None:
            names = ("ks_stat_max", "ks_stat_min")
            aggregate.update(_pushforward_ks(cfg, rows, keys, names, data))
            aggregate["note"] = (
                "reference pushforward uses (c/2) z + sqrt((c^2/4) z^2 + c(1-c)), the "
                "same functional as the adjacency edge limit (z^2 under the radical)"
            )
            return aggregate, ["ks_stat_max"]
        aggregate["target"] = target
        aggregate.update(_abs_errors(aggregate, keys, target))
        return aggregate, ["abs_error_max", "abs_error_min"]

    return _run(cfg, _edge_trial(cfg, matrix, keys, j, multiplier, divisor), finish)


def run_concentration(cfg: ExperimentConfig) -> ExperimentRecord:
    """Fluctuation-scaling experiment: the per-trial KS distance between each
    ESD and the pooled mean ESD is collected at sizes n and 2n, and the ratio
    of sample standard deviations reported (about 1/2 at fixed r if the
    fluctuation scale is 1/n)."""
    sizes = [(cfg.n, cfg.r), (2 * cfg.n, 2 * cfg.r if cfg.scale_r_with_n else cfg.r)]
    legs = []
    for which, (n_size, r_size) in enumerate(sizes):
        sub = ExperimentConfig(
            kind="bulk",
            n=n_size,
            r=r_size,
            p=cfg.p,
            trials=cfg.trials,
            master_seed=derive_seed(cfg.master_seed, which),
            ensemble=cfg.ensemble,
            threads=cfg.threads,
            edge_budget=cfg.edge_budget,
        )

        # defaults bind this leg's values; the legs run after the loop
        def trial(index: int, seed: int, sub=sub, n_size=n_size, r_size=r_size):
            h, _ = _trial_matrix(sub, seed)
            lam = symmetric_eigenvalues(h) / math.sqrt(n_size)
            return {"n": n_size, "r": r_size}, {f"eigenvalues_n{n_size}": lam}

        legs.append((sub, trial))

    def finish(rows: list[dict], data: dict):
        stds: list[float | None] = []
        for leg_rows, eigs in zip((rows[: cfg.trials], rows[cfg.trials:]), data.values()):
            pooled = _pooled_measure(eigs)
            ks_values = [ks_distance(EmpiricalLaw(lam), pooled) for lam in eigs]
            for row, ks in zip(leg_rows, ks_values):
                row["ks"] = ks
            stds.append(float(np.std(ks_values, ddof=1)) if len(ks_values) > 1 else None)
        aggregate = {
            "std_small": stds[0],
            "std_large": stds[1],
            "ratio": (None if None in stds or stds[0] == 0 else stds[1] / stds[0]),
            "sizes": [list(s) for s in sizes],
        }
        return aggregate, ["ratio"]

    return _run(cfg, None, finish, legs)


def run_universality(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bernoulli hypergraph vs Gaussian surrogate at matched (n, r): both mean
    ESDs against the semicircle reference, and the scaled Hausdorff distance
    between paired sorted spectra as a sanity statistic."""
    params = cfg.model_params()
    reference = SemicircleLaw((1.0 - params.size_ratio) ** 2)

    def trial(index: int, seed: int):
        hg = sample_hypergraph(params, seed, max_expected_edges=cfg.edge_budget)
        h_bern = gham_from_adjacency(adjacency_from_hypergraph(hg), params)
        lam_bern = symmetric_eigenvalues(h_bern) / math.sqrt(cfg.n)
        # independent surrogate stream, offset past the Bernoulli seeds
        _, h_gauss = sample_surrogate(params, cfg.trial_seed(cfg.trials + index))
        lam_gauss = symmetric_eigenvalues(h_gauss) / math.sqrt(cfg.n)
        stats = {
            "ks_bernoulli": ks_distance(EmpiricalLaw(lam_bern), reference),
            "ks_gaussian": ks_distance(EmpiricalLaw(lam_gauss), reference),
            "hausdorff_scaled": hausdorff_spectra(
                lam_bern * math.sqrt(cfg.n), lam_gauss * math.sqrt(cfg.n)
            )
            / math.sqrt(cfg.n),
        }
        return stats, {"eigenvalues_bernoulli": lam_bern, "eigenvalues_gaussian": lam_gauss}

    def finish(rows: list[dict], data: dict):
        ks_bern = ks_distance(_pooled_measure(data["eigenvalues_bernoulli"]), reference)
        ks_gauss = ks_distance(_pooled_measure(data["eigenvalues_gaussian"]), reference)
        aggregate = {
            "reference": reference.descriptor(),
            "mean_esd_ks_bernoulli": ks_bern,
            "mean_esd_ks_gaussian": ks_gauss,
            "ks_difference": abs(ks_bern - ks_gauss),
            **_row_stats(rows, "hausdorff_scaled"),
        }
        return aggregate, ["ks_difference"]

    return _run(cfg, trial, finish)


def assumption_diagnostics(params: ModelParams, threshold: float = 1.0) -> dict:
    """Sparsity and tail-condition diagnostics for a model configuration.

    Reports the truncation scales K_n = sqrt(nN)/r^4 and K'_n =
    sqrt(nN)/r^{5/2}, the average degree, and the normalised sparsity ratios
    d_avg/r^7 (adjacency) and d_avg/r^4 (Laplacian) with pass flags against the
    given threshold.  'dense' flags inclusion probabilities >= 1/2.
    """
    n, r = params.n, params.r
    log_nn = math.log(n) + log_binomial(n - 2, r - 2)
    k_n = math.exp(0.5 * log_nn - 4.0 * math.log(r))
    k_n_prime = math.exp(0.5 * log_nn - 2.5 * math.log(r))
    d_avg = average_degree(params)
    ratio_adjacency = d_avg / r**7
    ratio_laplacian = d_avg / r**4
    return {
        "n": n,
        "r": r,
        "p": params.p,
        "k_n": k_n,
        "k_n_prime": k_n_prime,
        "d_avg": d_avg,
        "d_avg_over_r7": ratio_adjacency,
        "d_avg_over_r4": ratio_laplacian,
        "threshold": threshold,
        "adjacency_sparsity_ok": bool(ratio_adjacency >= threshold),
        "laplacian_sparsity_ok": bool(ratio_laplacian >= threshold),
        "dense": bool(params.p >= 0.5),
    }


def _require_surrogate(cfg: ExperimentConfig) -> None:
    if cfg.ensemble != SURROGATE:
        raise ValueError(
            f"{cfg.kind} is defined for the Gaussian surrogate ensemble; "
            f"got ensemble={cfg.ensemble!r}"
        )


_RUNNERS = {
    "bulk": run_bulk,
    "laplacian_bulk": run_laplacian_bulk,
    "edge_bbp": run_edge_bbp,
    "edge_regimes": run_edge_regimes,
    "laplacian_edge": run_laplacian_edge,
    "concentration": run_concentration,
    "universality": run_universality,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Dispatch a config to its runner (diagnostics excepted, which has no
    Monte-Carlo loop and returns a record directly)."""
    if cfg.kind == "diagnostics":
        t0 = time.perf_counter()
        report = assumption_diagnostics(cfg.model_params())
        return ExperimentRecord(
            config=cfg.to_dict(),
            trials=[],
            aggregate=report,
            wall_clock_s=time.perf_counter() - t0,
            provenance=_provenance(cfg),
        )
    return _RUNNERS[cfg.kind](cfg)


def persist_record(
    record: ExperimentRecord, out_dir: str | Path, timestamp: str | None = None
) -> Path:
    """Write a record to <out_dir>/runs/<kind>/<timestamp>-<seed>/ as JSON,
    with eigenvalue and pushforward arrays as CSV side files."""
    stamp = timestamp or datetime.now().strftime("%Y%m%dT%H%M%S")
    kind = record.config["kind"]
    seed = record.config["master_seed"]
    run_dir = Path(out_dir) / "runs" / kind / f"{stamp}-{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, array in record.data.items():
        path = run_dir / f"{name}.csv"
        arr = np.asarray(array)
        if arr.ndim == 1:
            np.savetxt(path, arr, delimiter=",", header="value")
        else:
            trial_idx = np.repeat(np.arange(arr.shape[0]), arr.shape[1])
            flat = np.column_stack([trial_idx, np.tile(np.arange(arr.shape[1]), arr.shape[0]), arr.ravel()])
            np.savetxt(path, flat, delimiter=",", header="trial,index,value")
        record.artifacts[name] = str(path)
    (run_dir / "record.json").write_text(json.dumps(record.to_json_dict(), indent=2))
    return run_dir

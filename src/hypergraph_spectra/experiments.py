"""Seeded Monte-Carlo experiment suites over the hypergraph matrix ensembles.

``run_experiment`` takes an ExperimentConfig and returns an ExperimentRecord:
the config, one summary row per trial, an aggregate recomputable from the rows,
the per-trial eigenvalue arrays and a provenance block (versions, the BLAS
library, pool size).  A kind is a row (runner, check, reads, draws) of
``_KINDS`` and an ensemble a row (draw, reads, check) of ``_ENSEMBLES``: the
surrogate reads n and r alone, the Bernoulli hypergraph p too.  A config runs
its kind's check and those of the ensembles it draws when built, and is
frozen; ``_reject_unread`` rejects an optional field set off its default that
no row of its kind, of an ensemble it draws or of its edge regime reads.  No
field sets a scaling: each limit law fixes its own.  Every kind runs through
one trial loop, ``_run``, giving only its legs, (config, trial) pairs whose
``trial(index, seed)`` returns the row statistics and per-trial arrays (one
leg for most kinds, two for ``concentration``, none for ``diagnostics``), and
``finish(rows, data)``, returning its aggregate and gate keys.  The loop owns
the timer, the per-trial seeds (splitmix64 of the master seed), the rows, the
stacking of arrays in trial order, the tolerance gate and the record.  A
trial's matrix is one draw of its ensemble's row, mapped by one row of
``gham.MATRICES``.  The three edge kinds are rows of one (kind, regime) table,
``_edge_table``, run by ``_run_edge``, which computes only the depth = k + 1
eigenvalues it reads at each end, by a seeded Lanczos solve that stops once
they converge (``spectra.extreme_eigenvalues``).  The other kinds solve densely.

With ``threads > 1`` trials run on a thread pool (the eigensolvers release the
GIL) of at most as many workers as usable cores, inside the one-thread pin of
``spectra._one_blas_thread``, so pool and BLAS threads do not compete for the
cores; aggregation is a deterministic fold in trial order.
Reproducibility contract: a record is bit-reproducible for a fixed config at a
fixed BLAS thread count per trial.  That count is the caller's when
``threads == 1`` and one when ``threads > 1``.  From n in the low hundreds the
dense kinds depend on it in the last bits of the eigenvalues, so a pooled
dense record equals the serial record run at one BLAS thread.  The Lanczos
edge kinds are independent of the BLAS thread count and of ``threads``,
because their solve pins itself to one BLAS thread.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import scipy

from .combinatorics import (
    ModelParams,
    average_degree,
    check_edge_budget,
    derive_seed,
    log_binomial,
    sample_hypergraph,
)
from .gham import (
    MATRICES,
    MATRIX_KINDS,
    adjacency_from_hypergraph,
    gham_from_adjacency,
    sample_surrogate,
)
from .laws import (
    EmpiricalLaw,
    FreeConvolutionLaw,
    GaussianLaw,
    Law,
    SemicircleLaw,
)
from .metrics import hausdorff_spectra, ks_distance, metric_report, w1_distance
from .spectra import Scaling, extreme_eigenvalues, symmetric_eigenvalues
from .spectra import _one_blas_thread, _openblas  # the OpenBLAS loader and pin

__all__ = [
    "EXPERIMENT_KINDS",
    "MATRIX_KINDS",
    "ExperimentConfig",
    "ExperimentRecord",
    "RegimeError",
    "run_experiment",
    "bbp_edge_limit",
    "assumption_diagnostics",
    "persist_record",
]

BERNOULLI = "bernoulli_hypergraph"
SURROGATE = "gaussian_surrogate"

class RegimeError(ValueError):
    """An experiment regime's side condition on (n, r) is violated."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked when built: every kind accepts ``_ALWAYS_READ``,
    and its rows of ``_KINDS``, ``_ENSEMBLES`` or ``_edge_table`` name the rest."""

    kind: str
    n: int
    r: int
    p: float = 0.5
    trials: int = 10
    master_seed: int = 0
    ensemble: str = SURROGATE
    matrix: str = "gham"  # one of MATRIX_KINDS
    k: int = 1
    regime: str | None = None
    tolerance: float | None = None
    scale_r_with_n: bool = False
    threads: int = 1
    # explicit constants standing in for "<<" and ">>" side conditions
    side_factor_small: float = 0.2
    side_factor_large: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            value, type_name = getattr(self, f.name), f.type.removesuffix(" | None")
            want = {"int": int, "float": (int, float), "bool": bool}.get(type_name)
            if want is None or (value is None and type_name != f.type):
                continue
            if not isinstance(value, want) or isinstance(value, bool) != (type_name == "bool"):
                raise ValueError(f"config key {f.name!r} must be a JSON {type_name}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config key {f.name!r} must be finite, got {value!r}")
            # the tolerance and side factors: at or below 0 a gate never passes or is vacuous
            if type_name == "float" and f.name != "p" and value <= 0:
                raise ValueError(f"need {f.name} > 0, got {f.name}={value!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        if self.ensemble not in _ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.matrix not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.matrix!r}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")
        _check_r_below_n(self.model_params())  # model_params validates (n, r, p)
        if self.k >= self.n:
            raise ValueError(f"need k < n={self.n}, got k={self.k}")
        _, check, reads, draws = _KINDS[self.kind]
        if draws and self.ensemble not in draws:
            names = " or ".join(draws).replace("_", " ").capitalize()  # "Gaussian surrogate"
            raise ValueError(f"{self.kind} is defined for the {names} ensemble; "
                             f"got ensemble={self.ensemble!r}")
        for ensemble_check in filter(None, (_ENSEMBLES[e][2] for e in _drawn(self))):
            ensemble_check(self)
        _reject_unread(self, reads)
        if check is not None:
            check(self)

    def model_params(self) -> ModelParams:
        return ModelParams(n=self.n, r=self.r, p=self.p)

    def to_dict(self) -> dict:
        return asdict(self)

    def trial_seed(self, index: int) -> int:
        return derive_seed(self.master_seed, index)


@dataclass
class ExperimentRecord:
    """One experiment run: config snapshot, per-trial rows, aggregates.

    ``data`` holds the per-trial eigenvalue arrays that back the pooled
    aggregates; it is persisted as CSV, not inside the JSON.  The edge
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


# the fields every kind accepts: the CLI or a caller may set them for any kind
_ALWAYS_READ = ("kind", "n", "r", "master_seed", "ensemble", "threads")
# the optional fields of every Monte-Carlo kind, and of every edge kind
_GATED = ("trials", "tolerance")
_EDGE = (*_GATED, "regime")


def _reject_unread(cfg: ExperimentConfig, reads: tuple, regime: str | None = None) -> None:
    """Reject an optional field set off its default that neither ``_ALWAYS_READ``,
    ``reads`` nor an ensemble the config draws reads: the kind, or its regime."""
    reads = _ALWAYS_READ + reads + sum((_ENSEMBLES[e][1] for e in _drawn(cfg)), ())
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in reads and value != f.default:
            reader = f"{cfg.kind} regime {regime}" if regime else cfg.kind
            raise ValueError(f"{reader} does not read {f.name}; got {f.name}={value!r}")


def _drawn(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The ensembles the config draws: its kind's row names them, or None for its own."""
    draws = _KINDS[cfg.kind][3]
    return (cfg.ensemble,) if draws is None else draws


def _pool_size(cfg: ExperimentConfig) -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return min(cfg.threads, cfg.trials, cores)


def _map_trials(cfg: ExperimentConfig, worker):
    """Run worker(index, seed) for every trial; results in trial order.

    With threads > 1 the pool runs inside ``spectra._one_blas_thread``: numpy's
    bundled OpenBLAS at one thread until the pool has joined, also when a
    trial raises, then back at the caller's count."""
    seeds = [cfg.trial_seed(i) for i in range(cfg.trials)]
    if cfg.threads == 1:
        return [worker(i, s) for i, s in zip(range(cfg.trials), seeds)]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=_pool_size(cfg)) as pool:
        return list(pool.map(worker, range(cfg.trials), seeds))


def _provenance(cfg: ExperimentConfig) -> dict:
    """Versions, numpy's bundled OpenBLAS with the thread count trials ran at,
    and the pool size; kept out of the rows and the aggregate.  Pooled trials
    and every edge solve (which pins itself) run BLAS at one thread."""
    pooled = cfg.threads > 1
    pinned = pooled or _KINDS[cfg.kind][0] is _run_edge
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": [
            {"library": name, "threads": 1 if pinned else get()}
            for name, get, _ in _openblas()[0]
        ],
        "workers": _pool_size(cfg) if pooled else 1,
        "blas_pinned": pinned and bool(_openblas()[0]),
    }


def _run(cfg: ExperimentConfig, legs, finish) -> ExperimentRecord:
    """The trial loop shared by every experiment kind.

    ``legs`` lists (config, trial) pairs, run in order, each for its config's
    trials: one leg for most kinds, one per model size for concentration, none
    for diagnostics.  ``trial(index, seed)`` returns the kind's row statistics
    and a dict of per-trial arrays; each row gets ``trial`` and ``seed`` first,
    and each array is stacked across trials, in trial order, into ``data``.
    ``finish(rows, data)`` returns the aggregate and its gate keys: with a
    tolerance set, ``tolerance`` and ``passed`` (every gate key below the
    tolerance) end the aggregate, unless a gate key is None.
    """
    t0 = time.perf_counter()
    rows: list[dict] = []
    data: dict[str, np.ndarray] = {}
    for leg, leg_trial in legs:

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


def _check_r_below_n(params: ModelParams) -> None:
    """Every kind, and the surrogate (whose theta^2 < 0 at r = n = 3), needs r < n."""
    if params.r >= params.n:
        raise ValueError(f"need r < n (c = r/n < 1), got r={params.r}, n={params.n}")


def _surrogate_draw(params: ModelParams, seed: int) -> tuple[np.ndarray, float]:
    comp, h = sample_surrogate(params, seed)
    return h, comp.U


def _hypergraph_gham(hg) -> np.ndarray:
    a = adjacency_from_hypergraph(hg)
    return gham_from_adjacency(a, hg.params, out=a)


def _check_hypergraph(cfg: ExperimentConfig) -> None:
    """Needs 0 < p < 1, else no sample has variance to standardise by, and the edge budget."""
    if not 0.0 < cfg.p < 1.0:
        raise ValueError(f"sampling a hypergraph needs 0 < p < 1, got p={cfg.p}")
    if _KINDS[cfg.kind][3] is None:
        check_edge_budget(cfg.model_params())
    else:  # the kind draws hypergraphs whatever the ensemble: advise a smaller model
        check_edge_budget(cfg.model_params(), advice=f"every {cfg.kind} trial samples a "
                          "hypergraph, whatever the ensemble, so lower n, r or p")


# ensemble -> (draw: (ModelParams, seed) -> (GHAM, the surrogate's U or None),
# the optional fields it reads, its check or None).  A draw looks up its
# samplers when called, so a wrapper set on this module sees every draw.
_ENSEMBLES = {
    SURROGATE: (_surrogate_draw, (), None),
    BERNOULLI: (lambda params, seed: (_hypergraph_gham(sample_hypergraph(params, seed)), None),
                ("p",), _check_hypergraph),
}


def _trial_matrix(cfg: ExperimentConfig, seed: int, matrix: str = "gham"):
    """One draw of the config's ensemble mapped to a matrix kind of
    ``gham.MATRICES``, with the surrogate's U (None for hypergraphs)."""
    h, u = _ENSEMBLES[cfg.ensemble][0](cfg.model_params(), seed)
    return MATRICES[matrix](h, cfg.r), u


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


def _edge_limit_ks(c: float, rows: list[dict], keys, names) -> dict:
    """KS of the (max, min) row statistics against the exact proportional-regime
    edge limits g+-(z) = (c/2) z +- sqrt((c^2/4) z^2 + c(1-c)), z standard
    Gaussian.  Each branch is strictly increasing in z, with inverse
    z = (y^2 - c(1-c)) / (c y) on its side of zero, and KS is invariant under
    such a map: it is the KS of the back-mapped z against N(0, 1)."""
    if not (0.0 < c < 1.0):
        raise ValueError(f"need 0 < c < 1, got c={c}")
    out = {}
    for name, key, sign in zip(names, keys, (1.0, -1.0)):
        y = np.asarray([row[key] for row in rows], dtype=float)
        wrong = y[sign * y <= 0.0]
        if wrong.size:
            side = "positive" if sign > 0 else "negative"
            raise ValueError(
                f"{key} must be {side} on every trial to invert the edge limit, "
                f"got {wrong.size} trial(s) such as {float(wrong[0])}"
            )
        z = (y * y - c * (1.0 - c)) / (c * y)
        out[name] = ks_distance(EmpiricalLaw(z), GaussianLaw(1.0))
    return out


def _run_esd(cfg: ExperimentConfig, scaling: Scaling, reference: Law, w1: bool):
    """Per-trial and pooled ESD of the config's matrix, at the given scaling,
    against a reference law."""
    keys = ("ks", "w1") if w1 else ("ks",)

    def trial(index: int, seed: int):
        m, _ = _trial_matrix(cfg, seed, cfg.matrix)
        lam = symmetric_eigenvalues(m, scaling=scaling, r=cfg.r)
        measure = EmpiricalLaw(lam)
        stats = {"ks": ks_distance(measure, reference)}
        if w1:
            stats["w1"] = w1_distance(measure, reference)
        return stats, {"eigenvalues": lam}

    def finish(rows: list[dict], data: dict):
        # pooling eigenvalues across equal-size trials IS the average of the
        # per-trial empirical CDFs, with no grid discretisation
        report = metric_report(EmpiricalLaw(data["eigenvalues"].ravel()), reference)
        aggregate = {
            "reference": reference.descriptor(),
            "mean_esd_ks": report.ks,
            "mean_esd_w1": report.w1,
            "mean_esd_bl_upper": report.bl_upper,
            **_row_stats(rows, *keys),
        }
        return aggregate, ["mean_esd_ks"]

    return _run(cfg, [(cfg, trial)], finish)


def _run_bulk(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bulk spectrum experiment: the ESD of n^{-1/2} H against the semicircle
    law with variance (1 - r/n)^2."""
    reference = SemicircleLaw((1.0 - cfg.model_params().size_ratio) ** 2)
    return _run_esd(cfg, Scaling.BY_SQRT_N, reference, w1=True)


# (matrix, regime) -> (scaling, the laplacian_bulk limiting law at that scaling,
# from (r, c = r/n))
_LAPLACIAN_LAWS = {
    ("laplacian", "fixed_r"): (Scaling.BY_SQRT_N, lambda r, c: FreeConvolutionLaw(
        GaussianLaw(float(r - 1)), SemicircleLaw(1.0))),
    ("laplacian_tilde", "fixed_r"): (Scaling.BY_SQRT_N, lambda r, c: FreeConvolutionLaw(
        GaussianLaw(1.0 / (r - 1)), SemicircleLaw(1.0))),
    ("laplacian", "proportional"): (Scaling.BY_SQRT_NR, lambda r, c: FreeConvolutionLaw(
        GaussianLaw(1.0), GaussianLaw(c))),
    ("laplacian_tilde", "proportional"): (Scaling.BY_SQRT_N, lambda r, c: SemicircleLaw(
        (1.0 - c) ** 2)),
}


def _laplacian_reference(cfg: ExperimentConfig) -> tuple[Scaling, Law]:
    """The check of laplacian_bulk: the scaling and limiting law of its
    (matrix, regime).  A free convolution is solved on first use, not here."""
    if cfg.matrix == "gham":
        raise ValueError("laplacian_bulk needs matrix='laplacian' or 'laplacian_tilde'")
    row = _LAPLACIAN_LAWS.get((cfg.matrix, cfg.regime or "fixed_r"))
    if row is None:
        supported = ", ".join(f"({m}, {g})" for m, g in _LAPLACIAN_LAWS)
        raise RegimeError(f"no limiting law for matrix={cfg.matrix}, regime={cfg.regime}; "
                          f"supported: {supported}")
    scaling, law = row
    return scaling, law(cfg.r, cfg.r / cfg.n)


def _run_laplacian_bulk(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bulk spectrum of a Laplacian matrix, at its row's scaling, against its
    limiting law (a free additive convolution for fixed r, a semicircle or
    Gaussian convolution in the proportional regime)."""
    return _run_esd(cfg, *_laplacian_reference(cfg), w1=False)


def bbp_edge_limit(r: int) -> float:
    """Limit of lambda_1/sqrt(n) for fixed edge size r: 2 up to r = 3, then
    sqrt(r-2) + 1/sqrt(r-2)."""
    if r <= 3:
        return 2.0
    return math.sqrt(r - 2) + 1.0 / math.sqrt(r - 2)


_PROPORTIONAL_NOTE = (
    "reference is the exact law of (c/2) z + sqrt((c^2/4) z^2 + c(1-c)) for "
    "standard Gaussian z, the same functional as the adjacency edge limit "
    "(z^2 under the radical)"
)

def _edge_table(n: int, r: int, k: int) -> dict:
    """kind -> regime -> (matrix, row keys, order-statistic position j,
    multiplier, divisor, target, the optional fields the regime reads beyond
    ``_EDGE``) for the extreme-eigenvalue kinds at (n, r, k).

    A trial records multiplier * lambda_{1+j} / divisor and its mirror at
    lambda_{n-j} (eigenvalues descending).  The mean of each is scored against
    +-target or, for target None, the trials are scored in distribution (exact
    one-sample KS) against the proportional-regime edge law
    (c/2) z +- sqrt((c^2/4) z^2 + c(1-c)) of a standard Gaussian z, c = r/n.
      edge_bbp      fixed_r      lambda_1/sqrt(n), target 2 up to r = 3, then
                                 sqrt(r-2) + 1/sqrt(r-2) (the BBP transition)
      edge_regimes  proportional lambda_1/n against the exact edge law
                    sqrt_nr      lambda_1/sqrt(nr), target 1
                    secondary    lambda_{1+k}/sqrt(n), target 2(1 - c)
      laplacian_edge (side conditions checked with explicit constants)
                    A            lambda_k(L) / (n sqrt(2 log n)), target sqrt(c(1-c))
                    B_i          (r-1) lambda_1(Ltilde) / (n sqrt(2 log n)), same
                                 target; requires r << sqrt(log n)
                    B_ii         lambda_1(Ltilde)/n against the exact edge law
                    C_i          (r-1) lambda_{1+k}(Ltilde) / (n sqrt(2 log n)), same
                                 target; requires r << sqrt(n)
                    C_ii         lambda_{1+k}(Ltilde) / sqrt(n), target 2(1 - c);
                                 requires r >> sqrt(n log n)
    """
    c = r / n
    root_n = math.sqrt(n)
    log_scale = n * math.sqrt(2.0 * math.log(n))
    centering = math.sqrt(c * (1.0 - c))
    scaled = ("lambda_max_scaled", "lambda_min_scaled")
    stat = ("stat_max", "stat_min")
    tilde = "laplacian_tilde"
    return {
        "edge_bbp": {"fixed_r": ("gham", scaled, 0, 1, root_n, bbp_edge_limit(r), ())},
        "edge_regimes": {
            "proportional": ("gham", ("lambda_max_over_n", "lambda_min_over_n"), 0, 1, n, None, ()),
            "sqrt_nr": ("gham", scaled, 0, 1, math.sqrt(n * r), 1.0, ()),
            "secondary": (
                "gham", ("lambda_sub_max_scaled", "lambda_sub_min_scaled"), k, 1, root_n,
                2.0 * (1.0 - c), ("k",),
            ),
        },
        "laplacian_edge": {
            "A": ("laplacian", stat, k - 1, 1, log_scale, centering, ("k",)),
            "B_i": (tilde, stat, 0, r - 1, log_scale, centering, ("side_factor_small",)),
            "B_ii": (tilde, stat, 0, 1, n, None, ()),
            "C_i": (tilde, stat, k, r - 1, log_scale, centering, ("k", "side_factor_small")),
            "C_ii": (tilde, stat, k, 1, root_n, 2.0 * (1.0 - c), ("k", "side_factor_large")),
        },
    }


def _edge_row(cfg: ExperimentConfig) -> tuple[str, tuple]:
    """The check of the edge kinds: (regime, row of ``_edge_table``).  It
    rejects an unknown regime, a side condition that fails with the config's
    explicit constants, and an optional field that the regime does not read."""
    n, r = cfg.n, cfg.r
    table = _edge_table(n, r, cfg.k)[cfg.kind]
    # the regime that a kind runs when cfg.regime is None; laplacian_edge has none
    regime = cfg.regime or {"edge_bbp": "fixed_r", "edge_regimes": "proportional"}.get(cfg.kind)
    if regime not in table:
        raise RegimeError(f"{cfg.kind} regime must be one of {tuple(table)}, got {cfg.regime!r}")
    small, large = cfg.side_factor_small, cfg.side_factor_large
    side = {
        "B_i": ("r << sqrt(log n)", "<=", small * math.sqrt(math.log(n))),
        "C_i": ("r << sqrt(n)", "<=", small * math.sqrt(n)),
        "C_ii": ("r >> sqrt(n log n)", ">=", large * math.sqrt(n * math.log(n))),
    }.get(regime)
    if side is not None:
        condition, op, bound = side
        if (r > bound) if op == "<=" else (r < bound):
            raise RegimeError(
                f"regime {regime} requires {condition}: need r {op} {bound:.3g}, got r={r}"
            )
    _reject_unread(cfg, _EDGE + table[regime][-1], regime)
    return regime, table[regime]


def _run_edge(cfg: ExperimentConfig) -> ExperimentRecord:
    """The kinds edge_bbp, edge_regimes and laplacian_edge: one (kind, regime)
    row of ``_edge_table``.  A row of the record holds the surrogate's scalar
    Gaussian U and the two statistics; the aggregate holds the regime, their
    mean, std and stderr, then the target and the absolute errors of the
    means, or the KS distances to the exact edge law and a note."""
    regime, (matrix, keys, j, multiplier, divisor, target, _) = _edge_row(cfg)

    def trial(index: int, seed: int):
        m, u = _trial_matrix(cfg, seed, matrix)
        lam = extreme_eigenvalues(m, j + 1, seed)
        stats = {
            "U": u,
            keys[0]: multiplier * float(lam[j]) / divisor,
            keys[1]: multiplier * float(lam[-1 - j]) / divisor,
        }
        return stats, {"eigenvalues": lam}

    def finish(rows: list[dict], data: dict):
        aggregate = {"regime": regime, **_row_stats(rows, *keys)}
        if target is None:
            # lambda_max_over_n -> ks_lambda_max, stat_max -> ks_stat_max
            names = tuple("ks_" + key.removesuffix("_over_n") for key in keys)
            aggregate.update(_edge_limit_ks(cfg.r / cfg.n, rows, keys, names))
            aggregate["note"] = _PROPORTIONAL_NOTE
            return aggregate, [names[0]]
        aggregate["target"] = target
        aggregate["abs_error_max"] = abs(aggregate[f"mean_{keys[0]}"] - target)
        aggregate["abs_error_min"] = abs(aggregate[f"mean_{keys[1]}"] + target)
        return aggregate, ["abs_error_max", "abs_error_min"]

    return _run(cfg, [(cfg, trial)], finish)


def _concentration_legs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The check of concentration: its two bulk configs, at sizes (n, r) and
    (2n, r), or (2n, 2r) with scale_r_with_n, which bulk does not read;
    building them checks each as a bulk config, its edge budget too."""
    sizes = [(cfg.n, cfg.r), (2 * cfg.n, 2 * cfg.r if cfg.scale_r_with_n else cfg.r)]
    return [replace(cfg, kind="bulk", n=n, r=r, scale_r_with_n=False,
                    master_seed=derive_seed(cfg.master_seed, which))
            for which, (n, r) in enumerate(sizes)]


def _run_concentration(cfg: ExperimentConfig) -> ExperimentRecord:
    """Fluctuation-scaling experiment: the per-trial KS distance between each
    ESD and the pooled mean ESD is collected at sizes n and 2n, and the ratio
    of sample standard deviations reported (about 1/2 at fixed r if the
    fluctuation scale is 1/n)."""
    subs = _concentration_legs(cfg)
    legs = []
    for sub in subs:
        # the default binds this leg's config; the legs run after the loop
        def trial(index: int, seed: int, sub=sub):
            h, _ = _trial_matrix(sub, seed)
            lam = symmetric_eigenvalues(h) / math.sqrt(sub.n)
            return {"n": sub.n, "r": sub.r}, {f"eigenvalues_n{sub.n}": lam}

        legs.append((sub, trial))

    def finish(rows: list[dict], data: dict):
        stds: list[float | None] = []
        for leg_rows, eigs in zip((rows[: cfg.trials], rows[cfg.trials:]), data.values()):
            pooled = EmpiricalLaw(eigs.ravel())
            ks_values = [ks_distance(EmpiricalLaw(lam), pooled) for lam in eigs]
            for row, ks in zip(leg_rows, ks_values):
                row["ks"] = ks
            stds.append(float(np.std(ks_values, ddof=1)) if len(ks_values) > 1 else None)
        aggregate = {
            "std_small": stds[0],
            "std_large": stds[1],
            "ratio": (None if None in stds or stds[0] == 0 else stds[1] / stds[0]),
            "sizes": [[sub.n, sub.r] for sub in subs],
        }
        return aggregate, ["ratio"]

    return _run(cfg, legs, finish)


def _run_universality(cfg: ExperimentConfig) -> ExperimentRecord:
    """Bernoulli hypergraph vs Gaussian surrogate at matched (n, r): both mean
    ESDs against the semicircle reference, and the scaled Hausdorff distance
    between paired sorted spectra as a sanity statistic."""
    params = cfg.model_params()
    reference = SemicircleLaw((1.0 - params.size_ratio) ** 2)

    def trial(index: int, seed: int):
        h_bern, _ = _ENSEMBLES[BERNOULLI][0](params, seed)
        lam_bern = symmetric_eigenvalues(h_bern) / math.sqrt(cfg.n)
        # independent surrogate stream, offset past the Bernoulli seeds
        h_gauss, _ = _ENSEMBLES[SURROGATE][0](params, cfg.trial_seed(cfg.trials + index))
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
        ks_bern = ks_distance(EmpiricalLaw(data["eigenvalues_bernoulli"].ravel()), reference)
        ks_gauss = ks_distance(EmpiricalLaw(data["eigenvalues_gaussian"].ravel()), reference)
        aggregate = {
            "reference": reference.descriptor(),
            "mean_esd_ks_bernoulli": ks_bern,
            "mean_esd_ks_gaussian": ks_gauss,
            "ks_difference": abs(ks_bern - ks_gauss),
            **_row_stats(rows, "hausdorff_scaled"),
        }
        return aggregate, ["ks_difference"]

    return _run(cfg, [(cfg, trial)], finish)


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


def _run_diagnostics(cfg: ExperimentConfig) -> ExperimentRecord:
    """The sparsity diagnostics of the config's model: no trials and no gate."""
    return _run(cfg, [], lambda rows, data: (assumption_diagnostics(cfg.model_params()), []))


# kind -> (runner, check or None, the optional fields it reads in any regime,
# the ensembles it draws, which the config's must be among if there are any, or
# None to draw the config's).  The runner calls the same check for its result.
_KINDS = {
    "bulk": (_run_bulk, None, _GATED, None),
    "laplacian_bulk": (_run_laplacian_bulk, _laplacian_reference,
                       (*_GATED, "matrix", "regime"), None),
    "edge_bbp": (_run_edge, _edge_row, _EDGE, (SURROGATE,)),
    "edge_regimes": (_run_edge, _edge_row, (*_EDGE, "k"), (SURROGATE,)),
    "laplacian_edge": (_run_edge, _edge_row,
                       (*_EDGE, "k", "side_factor_small", "side_factor_large"), (SURROGATE,)),
    "concentration": (_run_concentration, _concentration_legs, (*_GATED, "scale_r_with_n"), None),
    "universality": (_run_universality, None, (*_GATED, "p"), (BERNOULLI, SURROGATE)),
    "diagnostics": (_run_diagnostics, None, ("p",), ()),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Run a config's experiment: the one entry to every kind's runner."""
    return _KINDS[cfg.kind][0](cfg)


def persist_record(
    record: ExperimentRecord, out_dir: str | Path, timestamp: str | None = None
) -> Path:
    """Write a record to <out_dir>/runs/<kind>/<timestamp>-<seed>/ as JSON,
    with each per-trial eigenvalue array as a CSV side file."""
    stamp = timestamp or datetime.now().strftime("%Y%m%dT%H%M%S")
    kind = record.config["kind"]
    seed = record.config["master_seed"]
    run_dir = Path(out_dir) / "runs" / kind / f"{stamp}-{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, array in record.data.items():
        path = run_dir / f"{name}.csv"
        arr = np.asarray(array)
        trial_idx = np.repeat(np.arange(arr.shape[0]), arr.shape[1])
        flat = np.column_stack([trial_idx, np.tile(np.arange(arr.shape[1]), arr.shape[0]), arr.ravel()])
        # the bytes of np.savetxt, formatted in one call rather than one a row
        rows = "%.18e,%.18e,%.18e\n" * len(flat) % tuple(flat.ravel().tolist())
        path.write_text("# trial,index,value\n" + rows)
        record.artifacts[name] = str(path)
    (run_dir / "record.json").write_text(json.dumps(record.to_json_dict(), indent=2))
    return run_dir

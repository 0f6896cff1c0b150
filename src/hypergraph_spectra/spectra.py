"""Eigenvalue extraction and empirical spectral statistics.

A SpectralSample is a descending-sorted eigenvalue vector tagged with its
scaling and provenance; its empirical spectral distribution is the uniform law
on those atoms, ``laws.EmpiricalLaw`` (``EmpiricalMeasure`` here is the same
class under its older name).  The dense symmetric eigensolver is LAPACK's (via
numpy); residual-based backward-error probes live in the test suite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .laws import EmpiricalLaw

EmpiricalMeasure = EmpiricalLaw

__all__ = [
    "Scaling",
    "SpectralSample",
    "EmpiricalMeasure",
    "symmetric_eigenvalues",
    "esd",
    "low_rank_eigenvalues",
    "edge_statistics",
    "gaussian_max_centering",
    "save_spectrum_csv",
    "load_spectrum_csv",
]


class Scaling(str, Enum):
    RAW = "raw"
    BY_SQRT_N = "by_sqrt_n"
    BY_N = "by_n"
    BY_SQRT_NR = "by_sqrt_nr"

    def factor(self, n: int, r: int | None = None) -> float:
        if self is Scaling.RAW:
            return 1.0
        if self is Scaling.BY_SQRT_N:
            return 1.0 / math.sqrt(n)
        if self is Scaling.BY_N:
            return 1.0 / n
        if r is None:
            raise ValueError("by_sqrt_nr scaling needs the edge size r")
        return 1.0 / math.sqrt(n * r)


@dataclass(frozen=True)
class SpectralSample:
    """Eigenvalues sorted descending, with the applied scaling and provenance."""

    eigenvalues: np.ndarray
    scaling: Scaling = Scaling.RAW
    ensemble: str = ""
    seed: int | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d vector")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", lam)

    def __len__(self) -> int:
        return self.eigenvalues.size


def symmetric_eigenvalues(
    matrix: np.ndarray,
    scaling: Scaling = Scaling.RAW,
    r: int | None = None,
    ensemble: str = "",
    seed: int | None = None,
) -> SpectralSample:
    """All eigenvalues of a symmetric matrix, multiplied by the requested
    scaling factor and sorted descending.

    Raises ValueError on non-finite or non-symmetric input.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    scale = np.abs(matrix).max()
    tol = 1e-10 * max(scale, 1.0)
    if np.abs(matrix - matrix.T).max() > tol:
        raise ValueError("matrix is not symmetric")
    lam = np.linalg.eigvalsh(matrix)[::-1] * scaling.factor(n, r)
    return SpectralSample(eigenvalues=lam, scaling=scaling, ensemble=ensemble, seed=seed)


def esd(sample: SpectralSample) -> EmpiricalLaw:
    """Empirical spectral distribution: mass 1/n on each eigenvalue."""
    return EmpiricalLaw(sample.eigenvalues)


def low_rank_eigenvalues(
    alpha: float, beta: float, u: float, v: np.ndarray
) -> tuple[float, float]:
    """The two (generically) nonzero eigenvalues of the rank-two matrix
    alpha*u*11^T + beta*(1 v^T + v 1^T).

    With vbar the mean of v and s^2 = (1/n) sum (v_i - vbar)^2:

        lambda_{max,min} / n = (alpha/2) u + beta vbar
                               +- sqrt(((alpha/2) u + beta vbar)^2 + beta^2 s^2).

    All remaining eigenvalues are zero.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n < 2:
        raise ValueError("need at least a 2-dimensional matrix")
    vbar = float(np.mean(v))
    s_sq = float(np.mean((v - vbar) ** 2))
    center = 0.5 * alpha * u + beta * vbar
    half_span = math.sqrt(center * center + beta * beta * s_sq)
    return n * (center + half_span), n * (center - half_span)


def edge_statistics(sample: SpectralSample, k: int) -> tuple[float, float]:
    """(k-th largest, k-th smallest) eigenvalue of an already-sorted sample."""
    n = len(sample)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    return float(sample.eigenvalues[k - 1]), float(sample.eigenvalues[n - k])


def gaussian_max_centering(n: int, k: int = 1) -> float:
    """Centering constant for the k-th largest of n i.i.d. standard Gaussians:

        a_n = sqrt(2 log n) - (log log n + log 4 pi) / (2 sqrt(2 log n)).

    The depth k shifts only the limiting fluctuation law, not the centering.
    Requires n >= 3 (log log n is negative or undefined below that).
    """
    if n < 3:
        raise ValueError(f"centering needs n >= 3, got n={n}")
    if k < 1:
        raise ValueError(f"order-statistic depth must be >= 1, got k={k}")
    root = math.sqrt(2.0 * math.log(n))
    return root - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * root)


def save_spectrum_csv(sample: SpectralSample, path: str | Path) -> None:
    """One eigenvalue per line, preceded by a comment header carrying the
    provenance and scaling tags."""
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# ensemble={sample.ensemble} seed={sample.seed} "
            f"scaling={sample.scaling.value}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue"])
        for lam in sample.eigenvalues:
            writer.writerow([repr(float(lam))])


def load_spectrum_csv(path: str | Path) -> SpectralSample:
    lines = Path(path).read_text().splitlines()
    meta = {"ensemble": "", "seed": None, "scaling": "raw"}
    data_start = 0
    if lines and lines[0].startswith("#"):
        for token in lines[0].lstrip("# ").split():
            key, _, value = token.partition("=")
            if key in meta:
                meta[key] = value
        data_start = 1
    values = [
        float(row)
        for row in lines[data_start:]
        if row.strip() and row.strip() != "eigenvalue"
    ]
    seed = None if meta["seed"] in (None, "None", "") else int(meta["seed"])
    lam = np.sort(np.asarray(values))[::-1]
    return SpectralSample(
        eigenvalues=lam,
        scaling=Scaling(meta["scaling"]),
        ensemble=str(meta["ensemble"]),
        seed=seed,
    )

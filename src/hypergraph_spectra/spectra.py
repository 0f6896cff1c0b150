"""Eigenvalue extraction and the spectrum CSV format.

A spectrum is a plain ``ndarray`` of eigenvalues sorted descending; its
empirical spectral distribution is the uniform law on those atoms,
``laws.EmpiricalLaw`` (``EmpiricalMeasure`` here is the same class under its
older name).  Every full spectrum comes from ``symmetric_eigenvalues`` (LAPACK,
via numpy), a few eigenvalues at each end from a seeded Lanczos solve (ARPACK,
via ``scipy.sparse.linalg``, which the solve imports at its first call).
"""

from __future__ import annotations

import csv
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .combinatorics import derive_seed
from .laws import EmpiricalLaw

EmpiricalMeasure = EmpiricalLaw

__all__ = [
    "Scaling",
    "EmpiricalMeasure",
    "symmetric_eigenvalues",
    "low_rank_eigenvalues",
    "EigensolverError",
    "extreme_eigenvalues",
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


def symmetric_eigenvalues(
    matrix: np.ndarray, scaling: Scaling = Scaling.RAW, r: int | None = None
) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, multiplied by the requested
    scaling factor and sorted descending.

    Raises ValueError on non-finite or non-symmetric input.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = np.abs(matrix).max()  # nan or inf when any entry is
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    residual = matrix - matrix.T
    asymmetry = np.abs(residual, out=residual).max()
    del residual  # the LAPACK solve copies the matrix: free this n x n array first
    if asymmetry > 1e-10 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(matrix)[::-1] * scaling.factor(n, r)


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


# Lanczos basis size; ARPACK's default max(2k+1, 20) restarts slowly at a bulk
# edge with no outlier (the surrogate at r <= 3)
_LANCZOS_NCV = 80


class EigensolverError(RuntimeError):
    """The Lanczos solve did not converge; carries its size and progress."""

    def __init__(self, n: int, depth: int, ncv: int, converged: int):
        super().__init__(
            f"Lanczos solve for {depth} eigenvalue(s) at each end of an n={n} "
            f"matrix converged {converged} of {2 * depth} with ncv={ncv}"
        )
        self.n, self.depth, self.ncv, self.converged = n, depth, ncv, converged


def extreme_eigenvalues(matrix: np.ndarray, depth: int, seed: int) -> np.ndarray:
    """The ``depth`` largest eigenvalues of a symmetric matrix, then its
    ``depth`` smallest, each block descending (2 * depth values).

    One Lanczos solve to machine precision finds both ends (ARPACK, which="BE").
    Its start and restart vectors come from ``derive_seed(seed, 0)``, so the
    values depend on (matrix, seed) alone.  The dense solver runs only where
    ARPACK cannot, at 2 * depth >= n - 1.  Raises EigensolverError when the
    solve does not converge.
    """
    n = matrix.shape[0]
    if not 1 <= depth <= n:
        raise ValueError(f"need 1 <= depth <= {n}, got depth={depth}")
    if 2 * depth >= n - 1:
        lam = symmetric_eigenvalues(matrix)
        return np.concatenate([lam[:depth], lam[n - depth:]])
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # deferred: slow to import
    rng = np.random.default_rng(derive_seed(seed, 0))
    ncv = min(n, max(_LANCZOS_NCV, 4 * depth))
    v0 = rng.uniform(-1.0, 1.0, n)
    try:
        lam = eigsh(matrix, 2 * depth, which="BE", v0=v0, ncv=ncv, tol=0,
                    return_eigenvectors=False, rng=rng)
    except ArpackNoConvergence as exc:
        raise EigensolverError(n, depth, ncv, len(exc.eigenvalues)) from exc
    return np.sort(lam)[::-1]


def save_spectrum_csv(
    eigenvalues: np.ndarray, path: str | Path, ensemble: str, seed: int | None, scaling: Scaling
) -> None:
    """One eigenvalue per line, preceded by a comment header carrying the
    provenance and scaling tags."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# ensemble={ensemble} seed={seed} scaling={scaling.value}\n")
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue"])
        for lam in eigenvalues:
            writer.writerow([repr(float(lam))])


def load_spectrum_csv(path: str | Path) -> EmpiricalLaw:
    """The empirical spectral distribution of a spectrum CSV; the header's
    tags are skipped."""
    rows = (row.strip() for row in Path(path).read_text().splitlines())
    return EmpiricalLaw([float(row) for row in rows
                         if row and not row.startswith("#") and row != "eigenvalue"])

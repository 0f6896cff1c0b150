"""Eigenvalue extraction and the spectrum CSV format.

A spectrum is a plain ``ndarray`` of eigenvalues sorted descending; its
empirical spectral distribution is the uniform law on those atoms,
``laws.EmpiricalLaw`` (``EmpiricalMeasure`` here is the same class under its
older name).  Every full spectrum comes from ``symmetric_eigenvalues`` (LAPACK,
via numpy), a few eigenvalues at each end from a seeded thick-restart Lanczos
solve in numpy that stops when they have converged (``extreme_eigenvalues``),
whose matvec is numpy's bundled OpenBLAS ``dsymv`` on the upper triangle, at
one BLAS thread (``_one_blas_thread``); ``_openblas`` loads that symbol and the
thread-count handles at the first solve or experiment, not at import.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import math
import threading
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


@functools.cache
def _openblas() -> tuple:
    """((file name, get_num_threads, set_num_threads_local) for each OpenBLAS
    bundled with numpy that exports both symbols, numpy's ILP64
    ``cblas_dsymv`` or None); no handles and None under any other BLAS.  Every
    solve runs on numpy's BLAS; the package calls no scipy routine that runs
    BLAS, so scipy's bundled OpenBLAS is neither loaded nor pinned."""
    found, symv = [], None
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            found.append((path.name, lib.scipy_openblas_get_num_threads64_,
                          lib.openblas_set_num_threads_local))
        except (OSError, AttributeError):
            continue
        symv = symv or getattr(lib, "scipy_cblas_dsymv64_", None)
    if symv is not None:  # (order, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
        i, n, d, p = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        symv.argtypes, symv.restype = (i, i, n, d, p, n, p, n, d, p, n), None
    return tuple(found), symv


_pin_lock, _pin = threading.Lock(), [0, []]  # entrants, the counts the first one saved


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS at one thread inside the block.  The count is
    process-wide, so concurrent and nested blocks share one pin: the first
    entrant saves the counts, the last restores them, also on an exception."""
    handles = _openblas()[0]
    with _pin_lock:
        if _pin[0] == 0:  # set_num_threads_local returns the count it replaces
            _pin[1] = [set_local(1) for _, _, set_local in handles]
        _pin[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin[0] -= 1
            if _pin[0] == 0:
                for (_, _, set_local), count in zip(handles, _pin[1]):
                    set_local(count)


# Lanczos basis size (ncv): a basis of ARPACK's default max(2k+1, 20) vectors
# restarts slowly at a bulk edge with no outlier (the surrogate at r <= 3)
_LANCZOS_NCV = 80
# thick restarts before a solve gives up, the counterpart of ARPACK's maxiter
_MAX_RESTARTS = 100
# unit roundoff: ARPACK's tolerance at tol=0 on a Ritz residual, and here also
# the tolerance on a Ritz value's Kato-Temple error bound
_EPS = np.finfo(float).eps / 2


class EigensolverError(RuntimeError):
    """The Lanczos solve did not converge; carries its size, its progress and
    the work it did."""

    def __init__(self, n: int, depth: int, ncv: int, converged: int, matvecs: int,
                 restarts: int):
        super().__init__(
            f"Lanczos solve for {depth} eigenvalue(s) at each end of an n={n} "
            f"matrix converged {converged} of {2 * depth} with ncv={ncv} after "
            f"{matvecs} matvecs and {restarts} restarts"
        )
        self.n, self.depth, self.ncv, self.converged = n, depth, ncv, converged
        self.matvecs, self.restarts = matvecs, restarts


def extreme_eigenvalues(matrix: np.ndarray, depth: int, seed: int) -> np.ndarray:
    """The ``depth`` largest eigenvalues of a symmetric matrix, then its
    ``depth`` smallest, each block descending (2 * depth values).

    A thick-restart Lanczos solve (Wu & Simon 2000) finds both ends with a
    basis of at most ncv + 1 vectors, ncv = min(n, max(80, 4 * depth)), each
    reorthogonalised by classical Gram-Schmidt run twice.  Every 8 steps and
    at a full basis it stops if each of the 2 * depth Ritz values theta at the
    ends has converged: with residual res = beta * |s_last| and tolerance
    tol = eps * max(|theta|, eps^(2/3)), either res <= tol (ARPACK's test at
    tol=0, which alone decides a cluster), or res < gap and res^2 <= gap * tol,
    gap being the distance from theta to the nearer of its Ritz neighbours:
    the Kato-Temple bound |theta - lambda| <= res^2 / gap (Parlett, The
    Symmetric Eigenvalue Problem, ch. 11) puts the value within tol while its
    vector still has a residual above it.  A full basis restarts from
    max(depth, ncv / 8) Ritz vectors at each end, and an invariant subspace
    goes on from a new random vector.
    Start and new vectors come from ``derive_seed(seed, 0)``.  The matvec
    reads only the upper triangle (OpenBLAS ``dsymv``; symmetry is not
    checked) at one BLAS thread, as a threaded ``dsymv``'s bits depend on
    the thread count, so the values depend on (matrix, seed) alone; a
    non-OpenBLAS build multiplies by the whole matrix.  The dense solver runs
    at 2 * depth >= n - 1.  Raises EigensolverError, which carries the
    matvecs and restarts made, past ``_MAX_RESTARTS`` restarts or on a
    non-finite value.
    """
    n = matrix.shape[0]
    if not 1 <= depth <= n:
        raise ValueError(f"need 1 <= depth <= {n}, got depth={depth}")
    if 2 * depth >= n - 1:
        lam = symmetric_eigenvalues(matrix)
        return np.concatenate([lam[:depth], lam[n - depth:]])
    a = np.ascontiguousarray(matrix, dtype=float)  # dsymv reads n x n doubles at a
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    rng = np.random.default_rng(derive_seed(seed, 0))
    ncv = min(n, max(_LANCZOS_NCV, 4 * depth))
    keep = max(depth, ncv // 8)
    basis = np.empty((ncv + 1, n))  # orthonormal rows; row j + 1 takes A @ row j
    h = np.zeros((ncv, ncv))  # the projection basis A basis^T
    symv = _openblas()[1]

    def orthogonalise(w, v):  # w -= v^T v w twice; the diagonal term, the two norms
        c = v @ w
        w -= c @ v
        first = np.linalg.norm(w)
        d = v @ w
        w -= d @ v
        return c[-1] + d[-1], first, np.linalg.norm(w)

    with _one_blas_thread():
        basis[0] = rng.uniform(-1.0, 1.0, n)
        basis[0] /= np.linalg.norm(basis[0])
        j, matvecs, restarts, done = 0, 0, 0, np.zeros(2 * depth, dtype=bool)
        while True:
            matvecs += 1
            x, w = basis[j], basis[j + 1]
            if symv is None:
                np.matmul(a, x, out=w)
            else:  # 101, 121: CblasRowMajor, CblasUpper
                symv(101, 121, n, 1.0, a.ctypes.data, n, x.ctypes.data, 1, 0.0, w.ctypes.data, 1)
            h[j, j], first, beta = orthogonalise(w, basis[:j + 1])
            j += 1
            if beta <= 0.717 * first:  # ARPACK's test that w lies in the basis
                w[:], beta = rng.uniform(-1.0, 1.0, n), 0.0
                orthogonalise(w, basis[:j])
            w /= np.linalg.norm(w)
            if j < ncv:
                h[j, j - 1] = h[j - 1, j] = beta
                if j % 8 or j < 2 * depth:
                    continue
            if not math.isfinite(beta):  # a non-finite entry reaches every later vector
                raise EigensolverError(n, depth, ncv, int(done.sum()), matvecs, restarts)
            theta, s = np.linalg.eigh(h[:j, :j])
            ends = np.r_[:depth, j - depth:j]
            res = beta * np.abs(s[-1, ends])
            tol = _EPS * np.maximum(np.abs(theta[ends]), _EPS ** (2 / 3))
            step = np.diff(theta)  # the gap to the nearer Ritz neighbour, of those there are
            gap = np.minimum(np.r_[np.inf, step], np.r_[step, np.inf])[ends]
            done = (res <= tol) | ((res < gap) & (res * res <= gap * tol))
            if done.all():
                return np.sort(theta[ends])[::-1]
            if j < ncv:
                continue
            if restarts == _MAX_RESTARTS:
                raise EigensolverError(n, depth, ncv, int(done.sum()), matvecs, restarts)
            restarts, kept = restarts + 1, np.r_[:keep, j - keep:j]
            basis[:2 * keep] = s[:, kept].T @ basis[:j]
            basis[2 * keep] = basis[j]
            j = 2 * keep
            h[:] = 0.0
            h[range(j), range(j)] = theta[kept]
            h[j, :j] = h[:j, j] = beta * s[-1, kept]


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

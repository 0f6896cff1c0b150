"""Construction of hypergraph adjacency matrices and their Gaussian surrogate.

The central object is the centered, variance-normalised adjacency matrix
("GHAM"): off-diagonal entries have zero mean and unit variance, the diagonal
is zero, and entries at vertex-pair overlap 0/1/2 have covariances rho/gamma/1.
The exact Gaussian surrogate

    G = alpha * U * 11^T + beta * (V 1^T + 1 V^T) + theta * Z,

with its diagonal removed, reproduces that covariance structure entrywise; Z
follows the GOE convention (off-diagonal variance 1, diagonal variance 2) so
that the diagonal of G has the matching variance alpha^2 + 4 beta^2 + 2 theta^2.

``sample_surrogate`` builds G over its own Gaussian draw: one n x n float64
array at its peak, plus one block-sized temporary.  Also provided: the two
Laplacian maps, and ``MATRICES``, the one table from a matrix kind to the map
that builds that matrix in place on a GHAM.  The brute-force references that
check this construction (edge-by-edge GHAM, trace identity, the full surrogate
matrix) live with the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import HypergraphSample, ModelParams

__all__ = [
    "CovarianceParams",
    "SurrogateComponents",
    "adjacency_from_hypergraph",
    "gham_from_adjacency",
    "covariance_params",
    "sample_surrogate",
    "laplacian",
    "laplacian_tilde",
    "MATRICES",
    "MATRIX_KINDS",
]


@dataclass(frozen=True)
class CovarianceParams:
    """Entry covariances of the normalised adjacency matrix and the matching
    surrogate coefficients.

    rho    -- covariance of entries at disjoint vertex pairs
    gamma  -- covariance of entries sharing one vertex
    alpha, beta, theta -- surrogate coefficients with alpha^2 = rho,
    alpha^2 + beta^2 = gamma, alpha^2 + 2 beta^2 + theta^2 = 1.
    """

    rho: float
    gamma: float
    alpha: float
    beta: float
    theta: float


@dataclass(frozen=True)
class SurrogateComponents:
    """Raw Gaussian draws behind one surrogate matrix.

    U is a scalar standard Gaussian and V an n-vector of standard Gaussians;
    seed reproduces both and the GOE-convention symmetric Gaussian matrix Z.
    """

    U: float
    V: np.ndarray
    seed: int

    @property
    def Z(self) -> np.ndarray:
        """Z = (raw + raw^T)/sqrt(2), redrawn from the seed at each access: G' is
        built over the draw.  Only the tests and the benchmark's byte counter read it."""
        n = self.V.size
        rng = np.random.default_rng(self.seed)
        rng.standard_normal(n + 1)  # U and V
        raw = rng.standard_normal((n, n))
        return (raw + raw.T) / math.sqrt(2.0)


def adjacency_from_hypergraph(sample: HypergraphSample) -> np.ndarray:
    """Integer adjacency matrix: A_ij = number of edges containing both i and j
    (i != j), zero diagonal."""
    n = sample.params.n
    # one row per edge slot, so that each pass reads its two slots contiguously
    slots = np.subtract(sample.edges.T, 1, order="C")
    # slots i < j of increasing rows fill the upper triangle with exact integer counts
    upper = np.zeros(n * n)
    for i, j in itertools.combinations(range(sample.params.r), 2):
        upper += np.bincount(slots[i] * n + slots[j], minlength=n * n)
    a = upper.reshape(n, n)
    a += a.T
    return a


def gham_from_adjacency(a: np.ndarray, params: ModelParams) -> np.ndarray:
    """Center and normalise an adjacency matrix to zero-mean unit-variance
    off-diagonal entries: (A_ij - p*N) / (sqrt(p(1-p)) * sqrt(N)), zero diagonal.

    Requires 0 < p < 1 (entry variance degenerates at the endpoints).
    """
    if not (0.0 < params.p < 1.0):
        raise ValueError(f"standardisation needs 0 < p < 1, got p={params.p}")
    n_pair = params.edges_per_pair
    scale = math.sqrt(params.p * (1.0 - params.p)) * math.sqrt(n_pair)
    h = (a - params.p * n_pair) / scale
    np.fill_diagonal(h, 0.0)
    return h


def covariance_params(params: ModelParams) -> CovarianceParams:
    """Exact covariance parameters rho = (r-2)(r-3)/((n-2)(n-3)),
    gamma = (r-2)/(n-2) and the surrogate coefficients derived from them.

    For r <= 3 the numerators vanish identically, so rho (and for r = 2 also
    gamma) is zero without touching the denominators.
    """
    n, r = params.n, params.r
    gamma = 0.0 if r == 2 else (r - 2) / (n - 2)
    rho = 0.0 if r <= 3 else ((r - 2) * (r - 3)) / ((n - 2) * (n - 3))
    beta_sq = gamma - rho
    theta_sq = 1.0 - 2.0 * gamma + rho
    for name, value in (("beta^2", beta_sq), ("theta^2", theta_sq)):
        if value < -1e-12:
            raise ArithmeticError(f"covariance invariant violated: {name} = {value}")
    beta_sq = max(beta_sq, 0.0)
    theta_sq = max(theta_sq, 0.0)
    return CovarianceParams(
        rho=rho,
        gamma=gamma,
        alpha=math.sqrt(rho),
        beta=math.sqrt(beta_sq),
        theta=math.sqrt(theta_sq),
    )


# side of the square blocks the surrogate is symmetrised and assembled in: a
# block pair's temporary stays in cache and small beside the n x n array
_BLOCK = 256


def sample_surrogate(
    params: ModelParams, seed: int
) -> tuple[SurrogateComponents, np.ndarray]:
    """Draw the Gaussian surrogate and return (components, G') where G' is the
    surrogate matrix with its diagonal zeroed.

    Entrywise G'_ij = alpha*U + beta*(V_i + V_j) + theta*Z_ij for i != j, which
    matches the normalised adjacency matrix of a Gaussian-weight hypergraph in
    distribution.  The normals are drawn into the array that becomes G', and
    each block pair is symmetrised into one block-sized temporary before G' is
    written over it: the peak is one n x n array and one block.
    """
    cov = covariance_params(params)
    rng = np.random.default_rng(seed)
    u = float(rng.standard_normal())
    v = rng.standard_normal(params.n)
    g = rng.standard_normal((params.n, params.n))
    shift = cov.alpha * u
    root2 = math.sqrt(2.0)
    for i in range(0, params.n, _BLOCK):
        bi = slice(i, i + _BLOCK)
        for j in range(i, params.n, _BLOCK):
            bj = slice(j, j + _BLOCK)
            # each entry is ((V_i + V_j) beta + alpha U) + theta (raw_ij + raw_ji)/sqrt(2),
            # in the operation order of the whole-matrix formula: the blocking
            # does not change a bit.  Both raw blocks are read before either is
            # written.
            zb = g[bi, bj] + g[bj, bi].T
            zb /= root2
            zb *= cov.theta
            gb = g[bi, bj]
            np.add.outer(v[bi], v[bj], out=gb)
            gb *= cov.beta
            gb += shift
            gb += zb
            del zb  # the one block-sized temporary; freed before the next is made
            # a diagonal block is already symmetric (IEEE addition commutes);
            # mirroring it onto itself would only cost an overlap copy
            if j != i:
                g[bj, bi] = gb.T
    np.fill_diagonal(g, 0.0)
    return SurrogateComponents(U=u, V=v, seed=seed), g


def laplacian(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Combinatorial Laplacian diag(X 1) - X.  Annihilates the all-ones vector.
    With out=x it is built in place over x; without out, x is left untouched."""
    diag = x.sum(axis=1) - x.diagonal()
    out = np.subtract(0.0, x, out=out)  # not -x: an exact zero of x stays +0.0, as in diag - x
    np.fill_diagonal(out, diag)
    return out


def laplacian_tilde(x: np.ndarray, r: int, out: np.ndarray | None = None) -> np.ndarray:
    """Degree-rescaled Laplacian diag(X 1)/(r-1) - X; coincides with the
    combinatorial Laplacian at r = 2.  ``out`` as for ``laplacian``."""
    if r < 2:
        raise ValueError(f"edge size r must be >= 2, got {r}")
    diag = x.sum(axis=1) / (r - 1) - x.diagonal()
    out = np.subtract(0.0, x, out=out)
    np.fill_diagonal(out, diag)
    return out


# matrix kind -> (GHAM h, edge size r) -> the matrix a spectrum is taken of: the
# GHAM and its two Laplacians, which are built over h, so a caller passes a GHAM
# it no longer needs.  The entries look up laplacian and laplacian_tilde when
# they are called, so a wrapper set on this module sees every Laplacian.
MATRICES = {
    "gham": lambda h, r: h,
    "laplacian": lambda h, r: laplacian(h, out=h),
    "laplacian_tilde": lambda h, r: laplacian_tilde(h, r, out=h),
}
MATRIX_KINDS = tuple(MATRICES)

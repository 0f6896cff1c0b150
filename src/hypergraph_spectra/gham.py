"""Construction of hypergraph adjacency matrices and their Gaussian surrogate.

The central object is the centered, variance-normalised adjacency matrix
("GHAM"): off-diagonal entries have zero mean and unit variance, the diagonal
is zero, and entries at vertex-pair overlap 0/1/2 have covariances rho/gamma/1.
The exact Gaussian surrogate

    G = alpha * U * 11^T + beta * (V 1^T + 1 V^T) + theta * Z,

with its diagonal removed, reproduces that covariance structure entrywise; Z
follows the GOE convention (off-diagonal variance 1, diagonal variance 2) so
that the diagonal of G has the matching variance alpha^2 + 4 beta^2 + 2 theta^2.

Also provided: the two Laplacian maps.  The brute-force references that check
this construction (edge-by-edge GHAM, trace identity) live with the tests.
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
    "surrogate_matrix",
    "laplacian",
    "laplacian_tilde",
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

    U is a scalar standard Gaussian, V an n-vector of standard Gaussians and Z
    a GOE-convention symmetric Gaussian matrix; seed reproduces all three.
    """

    U: float
    V: np.ndarray
    Z: np.ndarray
    seed: int


def adjacency_from_hypergraph(sample: HypergraphSample) -> np.ndarray:
    """Integer adjacency matrix: A_ij = number of edges containing both i and j
    (i != j), zero diagonal."""
    n = sample.params.n
    edges = sample.edges - 1
    # slots i < j of increasing rows fill the upper triangle with exact integer counts
    upper = np.zeros(n * n)
    for i, j in itertools.combinations(range(sample.params.r), 2):
        upper += np.bincount(edges[:, i] * n + edges[:, j], minlength=n * n)
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


def sample_surrogate(
    params: ModelParams, seed: int
) -> tuple[SurrogateComponents, np.ndarray]:
    """Draw the Gaussian surrogate and return (components, G') where G' is the
    surrogate matrix with its diagonal zeroed.

    Entrywise G'_ij = alpha*U + beta*(V_i + V_j) + theta*Z_ij for i != j, which
    matches the normalised adjacency matrix of a Gaussian-weight hypergraph in
    distribution.  The full matrix (diagonal kept) is available via
    ``surrogate_matrix``.
    """
    cov = covariance_params(params)
    rng = np.random.default_rng(seed)
    u = float(rng.standard_normal())
    v = rng.standard_normal(params.n)
    raw = rng.standard_normal((params.n, params.n))
    z = raw + raw.T
    del raw
    z /= math.sqrt(2.0)
    comp = SurrogateComponents(U=u, V=v, Z=z, seed=seed)
    g = surrogate_matrix(comp, cov)
    np.fill_diagonal(g, 0.0)
    return comp, g


def surrogate_matrix(comp: SurrogateComponents, cov: CovarianceParams) -> np.ndarray:
    """Full surrogate matrix alpha*U*11^T + beta*(V 1^T + 1 V^T) + theta*Z,
    diagonal included, built in place."""
    g = np.add.outer(comp.V, comp.V)
    g *= cov.beta
    g += cov.alpha * comp.U
    g += cov.theta * comp.Z
    return g


def laplacian(x: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian diag(X 1) - X.  Annihilates the all-ones vector."""
    return np.diag(x.sum(axis=1)) - x


def laplacian_tilde(x: np.ndarray, r: int) -> np.ndarray:
    """Degree-rescaled Laplacian diag(X 1)/(r-1) - X; coincides with the
    combinatorial Laplacian at r = 2."""
    if r < 2:
        raise ValueError(f"edge size r must be >= 2, got {r}")
    return np.diag(x.sum(axis=1)) / (r - 1) - x

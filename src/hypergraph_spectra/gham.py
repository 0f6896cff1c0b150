"""Construction of hypergraph adjacency matrices and their Gaussian surrogate.

The central object is the centered, variance-normalised adjacency matrix
("GHAM"): off-diagonal entries have zero mean and unit variance, the diagonal
is zero, and entries at vertex-pair overlap 0/1/2 have covariances rho/gamma/1.
The exact Gaussian surrogate

    G = alpha * U * 11^T + beta * (V 1^T + 1 V^T) + theta * Z,

with its diagonal removed, reproduces that covariance structure entrywise; Z
follows the GOE convention (off-diagonal variance 1, diagonal variance 2) so
that the diagonal of G has the matching variance alpha^2 + 4 beta^2 + 2 theta^2.

Also provided: the two Laplacian maps, exact overlap/trace identities and the
squared Lipschitz constants of the three matrix-valued maps on weight vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .combinatorics import HypergraphSample, ModelParams

__all__ = [
    "CovarianceParams",
    "SurrogateComponents",
    "adjacency_from_hypergraph",
    "gham_from_adjacency",
    "gham_from_weights",
    "covariance_params",
    "sample_surrogate",
    "surrogate_matrix",
    "laplacian",
    "laplacian_tilde",
    "edge_matrix_trace",
    "lipschitz_constants",
    "save_matrix_csv",
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


def gham_from_weights(params: ModelParams, weights: np.ndarray) -> np.ndarray:
    """Normalised adjacency matrix N^{-1/2} sum_l w_l Q_l for an explicit weight
    vector over all C(n, r) potential edges in lexicographic order.

    Q_l is the indicator matrix of edge l (ones off the diagonal on the edge's
    vertex block).  Only feasible for small C(n, r); used by the exact identity
    and Lipschitz checks.
    """
    n, r = params.n, params.r
    m = params.num_possible_edges
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {weights.shape}")
    h = np.zeros((n, n))
    for w, edge in zip(weights, itertools.combinations(range(n), r)):
        idx = np.asarray(edge)
        h[np.ix_(idx, idx)] += w
    np.fill_diagonal(h, 0.0)
    return h / math.sqrt(params.edges_per_pair)


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


def edge_matrix_trace(e1: tuple[int, ...], e2: tuple[int, ...]) -> int:
    """Trace of the product of the indicator matrices of two hyperedges.

    Equals s^2 - s where s is the overlap |e1 & e2|; in particular it vanishes
    for disjoint edges.
    """
    s = len(set(e1) & set(e2))
    return s * s - s


def lipschitz_constants(params: ModelParams) -> tuple[float, float, float]:
    """Squared Lipschitz constants (delta_sq, gamma_sq, xi_sq) of the maps from
    the weight vector to, respectively, n^{-1/2} H, (nr)^{-1/2} L_H and
    n^{-1/2} Ltilde_H, all in Frobenius norm.

    delta_sq = (1/(nN)) * sum_s (s^2 - s)            * C(r,s) C(n-r, r-s)
    gamma_sq = (1/(nrN)) * sum_s ((r^2-2r) s + s^2)  * C(r,s) C(n-r, r-s)
    xi_sq    = (1/(nN)) * sum_s s^2                  * C(r,s) C(n-r, r-s)

    The sums are evaluated in exact integer arithmetic before the final
    division.  The closed-form bounds delta_sq <= r^2/n, gamma_sq <= r and
    xi_sq <= r/(r-1) + r^2/n are asserted on the way out.
    """
    n, r = params.n, params.r
    n_pair = params.edges_per_pair
    sum_delta = 0
    sum_gamma = 0
    sum_xi = 0
    for s in range(r + 1):
        count = math.comb(r, s) * math.comb(n - r, r - s)
        sum_delta += (s * s - s) * count
        sum_gamma += ((r * r - 2 * r) * s + s * s) * count
        sum_xi += s * s * count
    delta_sq = sum_delta / (n * n_pair)
    gamma_sq = sum_gamma / (n * r * n_pair)
    xi_sq = sum_xi / (n * n_pair)
    slack = 1e-12
    if delta_sq > r * r / n + slack:
        raise ArithmeticError(f"delta_sq={delta_sq} exceeds bound r^2/n={r*r/n}")
    if gamma_sq > r + slack:
        raise ArithmeticError(f"gamma_sq={gamma_sq} exceeds bound r={r}")
    if xi_sq > r / (r - 1) + r * r / n + slack:
        raise ArithmeticError(
            f"xi_sq={xi_sq} exceeds bound r/(r-1)+r^2/n={r/(r-1)+r*r/n}"
        )
    return delta_sq, gamma_sq, xi_sq


def save_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Row-major CSV of the full symmetric matrix."""
    np.savetxt(path, matrix, delimiter=",")

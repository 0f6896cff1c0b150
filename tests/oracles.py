"""Brute-force and closed-form reference code that only the tests use: counting
oracles, the GHAM built edge by edge from a weight vector, the trace identity
and Lipschitz constants of the matrix maps, the Stieltjes-inversion density,
and the aggregate fold of an experiment record."""

import itertools
import math

import numpy as np


def enumerate_edges(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of {1..n} in lexicographic order.  Only for small C(n, r)."""
    return list(itertools.combinations(range(1, n + 1), r))


def edge_overlap_count(n: int, r: int, s: int) -> int:
    """Number of r-subsets of {1..n} sharing exactly s vertices with a fixed one.

    Equals C(r, s) * C(n-r, r-s).  Summed over s = 0..r this recovers C(n, r).
    """
    if not (0 <= s <= r <= n):
        raise ValueError(f"need 0 <= s <= r <= n, got n={n}, r={r}, s={s}")
    return math.comb(r, s) * math.comb(n - r, r - s)


def gham_from_weights(params, weights: np.ndarray) -> np.ndarray:
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


def edge_matrix_trace(e1: tuple[int, ...], e2: tuple[int, ...]) -> int:
    """Trace of the product of the indicator matrices of two hyperedges.

    Equals s^2 - s where s is the overlap |e1 & e2|; in particular it vanishes
    for disjoint edges.
    """
    s = len(set(e1) & set(e2))
    return s * s - s


def lipschitz_constants(params) -> tuple[float, float, float]:
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


def stieltjes_inversion_density(law, x, eps: float = 1e-9) -> np.ndarray:
    """Density proxy (1/pi) Im S(x + i eps) for any law with a Stieltjes
    transform; the reference pipeline shared by the convolution identities."""
    x = np.asarray(x, dtype=float)
    s = law.stieltjes(x + 1j * eps)
    return np.maximum(np.asarray(s).imag / math.pi, 0.0)


def recompute_aggregates(record) -> dict:
    """Recompute every mean_/std_/stderr_ aggregate from the per-trial rows.

    Returns the recomputed subset; used to verify that stored aggregates are a
    pure fold of the rows.
    """
    out = {}
    rows = record.trials
    for key in record.aggregate:
        prefix, _, stat_key = key.partition("_")
        if prefix not in ("mean", "std", "stderr") or not rows or stat_key not in rows[0]:
            continue
        values = np.asarray([row[stat_key] for row in rows], dtype=float)
        if prefix == "mean":
            out[key] = float(values.mean())
        else:
            std = float(values.std(ddof=1))
            out[key] = std if prefix == "std" else std / math.sqrt(values.size)
    return out

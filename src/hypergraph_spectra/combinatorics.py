"""Exact counting and reproducible sampling of Erdos-Renyi r-uniform hypergraphs.

Vertices are 1-indexed.  Hyperedges are r-subsets of {1..n}; a hypergraph
stores them as one read-only (k, r) int64 array of increasing rows in
lexicographic order.  All counting is done in exact integer arithmetic
(binomials can be astronomically large), with log-space fallbacks for
quantities that are consumed as floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ModelParams",
    "HypergraphSample",
    "SamplingBudgetError",
    "binomial_coefficient",
    "log_binomial",
    "average_degree",
    "edge_overlap_count",
    "enumerate_edges",
    "derive_seed",
    "check_edge_budget",
    "sample_hypergraph",
    "save_hypergraph_json",
    "load_hypergraph_json",
]

DEFAULT_EDGE_BUDGET = 10**7


class SamplingBudgetError(RuntimeError):
    """Expected edge count exceeds the sampling budget.

    Raised before any random drawing happens.  At scales where the Bernoulli
    hypergraph cannot be materialised, use the Gaussian surrogate ensemble
    instead (see ``gham.sample_surrogate``), which matches the covariance
    structure exactly without enumerating edges.
    """


def binomial_coefficient(n: int, k: int) -> int:
    """Exact C(n, k) as an arbitrary-precision integer.

    Raises ValueError unless 0 <= k <= n.
    """
    if k < 0 or k > n:
        raise ValueError(f"binomial coefficient requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k), computed via lgamma (safe for huge n)."""
    if k < 0 or k > n:
        raise ValueError(f"log binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class ModelParams:
    """Model triple (n, r, p): n vertices, r-uniform edges, inclusion probability p.

    Derived counts:
      num_possible_edges  -- C(n, r), the number of potential hyperedges.
      edges_per_pair      -- C(n-2, r-2), potential hyperedges through a fixed
                             vertex pair; the variance normaliser of the
                             adjacency matrix.
      size_ratio          -- r/n.
    """

    n: int
    r: int
    p: float

    def __post_init__(self):
        if not (2 <= self.r <= self.n):
            raise ValueError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"need 0 <= p <= 1, got p={self.p}")

    @property
    def num_possible_edges(self) -> int:
        return binomial_coefficient(self.n, self.r)

    @property
    def edges_per_pair(self) -> int:
        return binomial_coefficient(self.n - 2, self.r - 2)

    @property
    def size_ratio(self) -> float:
        return self.r / self.n


@dataclass(frozen=True, eq=False)
class HypergraphSample:
    """A sampled hypergraph.  ``edges`` takes any array-like of increasing rows
    in [1, n], stored as a read-only (k, r) int64 copy in lexicographic order."""

    params: ModelParams
    edges: np.ndarray
    seed: int

    def __post_init__(self):
        n, r = self.params.n, self.params.r
        edges = np.asarray(self.edges) if len(self.edges) else np.empty((0, r), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != r or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be integer rows of length {r}, got {edges.shape}")
        if not np.all(edges[:, 1:] > edges[:, :-1]):
            raise ValueError(f"edges must be strictly increasing {r}-subsets")
        if np.any(edges[:, 0] < 1) or np.any(edges[:, -1] > n):
            raise ValueError(f"edge vertices must lie in [1, {n}]")
        # a stable sort is linear on rows already in order, as the sampler's are
        edges = edges[np.argsort(_row_keys(edges, n), kind="stable")].astype(np.int64, copy=False)
        if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
            raise ValueError("duplicate edges in sample")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if not isinstance(other, HypergraphSample):
            return NotImplemented
        same = (self.params, self.seed) == (other.params, other.seed)
        return same and np.array_equal(self.edges, other.edges)


def average_degree(params: ModelParams) -> float:
    """Expected number of hyperedges containing a fixed vertex: C(n-1, r-1) * p.

    Evaluated in log space when the binomial overflows float64.
    """
    if params.p == 0.0:
        return 0.0
    c = binomial_coefficient(params.n - 1, params.r - 1)
    if c < 2**53:
        return c * params.p
    return math.exp(log_binomial(params.n - 1, params.r - 1) + math.log(params.p))


def edge_overlap_count(n: int, r: int, s: int) -> int:
    """Number of r-subsets of {1..n} sharing exactly s vertices with a fixed one.

    Equals C(r, s) * C(n-r, r-s).  Summed over s = 0..r this recovers C(n, r).
    """
    if not (0 <= s <= r <= n):
        raise ValueError(f"need 0 <= s <= r <= n, got n={n}, r={r}, s={s}")
    return math.comb(r, s) * math.comb(n - r, r - s)


def _edge_rows(n: int, r: int) -> np.ndarray:
    """All C(n, r) r-subsets of {1..n} as increasing rows in lexicographic order."""
    rows = np.empty((1, 0), dtype=np.int64)
    for j in range(r):
        # each row extends by every value from (its last + 1) to n - r + 1 + j
        last = rows[:, -1] if j else np.zeros(1, dtype=np.int64)
        counts = n - r + 1 + j - last
        starts = np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), np.arange(counts.sum()) - starts])
    return rows


def enumerate_edges(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of {1..n} in lexicographic order.  Only for small C(n, r)."""
    return list(map(tuple, _edge_rows(n, r).tolist()))


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Per-trial seed from (master_seed, trial_index) via splitmix64.

    The master seed selects a splitmix64 stream; the trial index selects the
    position in the stream.  Output is a 64-bit unsigned integer suitable for
    ``numpy.random.default_rng``.
    """
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _draw_edge_count(rng: np.random.Generator, m: int, p: float) -> int:
    """One draw from Binomial(m, p).

    Exact CDF inversion (via the regularised incomplete beta function) while m
    fits in float64 integers; beyond that the count is approximated by a
    Gaussian when m*p*(1-p) > 1e6 and by Poisson(m*p) otherwise.  The budget
    check in ``sample_hypergraph`` guarantees m*p is moderate here.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return m
    if m <= 2**53:
        from scipy import stats  # deferred: slow to import, and only this draw needs it
        u = rng.random()
        return int(stats.binom.ppf(u, m, p))
    mean = math.exp(math.log(m) + math.log(p))
    variance = mean * (1.0 - p)
    if variance > 1e6:
        k = int(round(mean + math.sqrt(variance) * rng.standard_normal()))
        return max(0, k)
    return int(rng.poisson(mean))


def _draw_subset_rows(rng: np.random.Generator, n: int, r: int, count: int) -> np.ndarray:
    """``count`` i.i.d. uniform r-subsets of {1..n}, one sorted row each.

    Duplicate rows are possible; distinctness is enforced by the caller.
    """
    if r <= 8 and 4 * r <= n:
        # rejection on within-row collisions; collision probability is
        # at most r^2/n <= 1/4 per row under the guard above
        rows = rng.integers(1, n + 1, size=(count, r), dtype=np.int64)
        rows.sort(axis=1)
        ok = np.all(rows[:, 1:] != rows[:, :-1], axis=1)
        return rows[ok]
    # random-keys method: the r smallest of n i.i.d. uniform keys index a
    # uniform r-subset; chunked to bound memory
    out = []
    chunk = max(1, min(count, int(2e7) // max(n, 1)))
    done = 0
    while done < count:
        take = min(chunk, count - done)
        keys = rng.random((take, n))
        rows = np.argpartition(keys, r - 1, axis=1)[:, :r].astype(np.int64) + 1
        rows.sort(axis=1)
        out.append(rows)
        done += take
    return np.concatenate(out, axis=0)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Keys ordered as the rows are lexicographically: base-(n+1) uint64 codes
    when (n+1)^r < 2^63, else each row's big-endian bytes as one void scalar."""
    r = rows.shape[1]
    if r * math.log2(n + 1) < 63:
        codes = np.zeros(len(rows), dtype=np.uint64)
        for j in range(r):
            codes = codes * np.uint64(n + 1) + rows[:, j].astype(np.uint64)
        return codes
    return np.ascontiguousarray(rows, dtype=">i8").view(np.dtype((np.void, 8 * r))).ravel()


def _sample_distinct_edges(
    rng: np.random.Generator, n: int, r: int, k: int, m: int
) -> np.ndarray:
    """First k distinct subsets of an i.i.d. uniform subset stream (uniform over
    k-subsets of the m possible edges), or the complement trick when k > m/2.
    Returns a (k, r) array in lexicographic order."""
    if 2 * k > m:
        # sampling the complement preserves uniformity and avoids the long
        # coupon-collector tail; m <= 2k is small enough to enumerate
        rows = _edge_rows(n, r)
        excluded = _sample_distinct_edges(rng, n, r, m - k, m)
        return rows[~np.isin(_row_keys(rows, n), _row_keys(excluded, n))]

    chunks = [np.empty((0, r), dtype=np.int64)]
    seen = _row_keys(chunks[0], n)
    while len(seen) < k:
        batch = max(1024, 2 * (k - len(seen)))
        rows = _draw_subset_rows(rng, n, r, batch)
        keys = _row_keys(rows, n)
        # first occurrence within the batch, in stream order
        _, first_idx = np.unique(keys, return_index=True)
        first_idx.sort()
        rows, keys = rows[first_idx], keys[first_idx]
        fresh = ~np.isin(keys, seen)
        take = k - len(seen)
        chunks.append(rows[fresh][:take])
        seen = np.concatenate([seen, keys[fresh][:take]])
    return np.concatenate(chunks)[np.argsort(seen)]


def check_edge_budget(
    params: ModelParams, max_expected_edges: float = DEFAULT_EDGE_BUDGET
) -> None:
    """Raise SamplingBudgetError when the expected edge count C(n,r)*p exceeds
    ``max_expected_edges``; compared in log space, since C(n,r) may overflow."""
    if params.p > 0.0:
        log_expected = math.log(params.num_possible_edges) + math.log(params.p)
        if log_expected > math.log(max_expected_edges):
            raise SamplingBudgetError(
                f"expected edge count C({params.n},{params.r})*{params.p} exceeds "
                f"budget {max_expected_edges:g}; use the Gaussian surrogate ensemble "
                f"(ensemble='gaussian_surrogate', gham.sample_surrogate) at this scale"
            )


def sample_hypergraph(
    params: ModelParams, seed: int, max_expected_edges: float = DEFAULT_EDGE_BUDGET
) -> HypergraphSample:
    """Sample an Erdos-Renyi r-uniform hypergraph: each of the C(n, r) potential
    hyperedges is included independently with probability p.

    The edge count is drawn from Binomial(C(n,r), p) and that many distinct
    uniform r-subsets are then selected, which is distributionally identical to
    per-edge coin flips.  Identical (params, seed) reproduce identical output.

    Raises SamplingBudgetError when the expected edge count C(n,r)*p exceeds
    ``max_expected_edges``.

    Examples
    --------
    >>> sample = sample_hypergraph(ModelParams(6, 3, 1.0), seed=0)
    >>> len(sample.edges)
    20
    >>> sample.edges[0].tolist()
    [1, 2, 3]
    """
    check_edge_budget(params, max_expected_edges)
    m = params.num_possible_edges
    rng = np.random.default_rng(seed)
    # clamped: binom.ppf(0, m, p) is -1 when the uniform draw is exactly 0
    k = min(max(_draw_edge_count(rng, m, params.p), 0), m)
    edges = _sample_distinct_edges(rng, params.n, params.r, k, m)
    return HypergraphSample(params=params, edges=edges, seed=seed)


def save_hypergraph_json(sample: HypergraphSample, path: str | Path) -> None:
    """Serialise to JSON: {"n","r","p","seed","edges"} with lexicographically
    sorted edges.  Byte-identical for identical samples."""
    payload = {
        "n": sample.params.n,
        "r": sample.params.r,
        "p": sample.params.p,
        "seed": sample.seed,
        "edges": sample.edges.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")


def load_hypergraph_json(path: str | Path) -> HypergraphSample:
    payload = json.loads(Path(path).read_text())
    params = ModelParams(n=payload["n"], r=payload["r"], p=payload["p"])
    edges = np.sort(np.asarray(payload["edges"]), axis=-1)
    return HypergraphSample(params=params, edges=edges, seed=payload["seed"])

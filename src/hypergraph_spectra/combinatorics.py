"""Exact counting and reproducible sampling of Erdos-Renyi r-uniform hypergraphs.

Vertices are 1-indexed.  Hyperedges are r-subsets of {1..n}; a hypergraph
stores them slot-major, one read-only (r, k) int64 array whose transposed view
holds the increasing rows in lexicographic order.  All counting is exact integer
arithmetic (binomials can be astronomically large), with log-space fallbacks for
quantities consumed as floats.  A hypergraph's edge count is one exact
Binomial(C(n, r), p) quantile, computed in numpy; ``scipy.stats`` is imported
only in the rare draw that lands next to a step of the binomial CDF.

The sampler's memory is bounded by its keys: one base-(n+1) uint64 code per
drawn subset (r big-endian int64 words when the code would not fit).  A round
draws as many subsets as its k distinct ones need by the coupon-collector
law, plus six standard deviations, so a second round is rare.  Both draw
methods, rejection and random keys, run in chunks of one budget of random
values, so rows live only within a chunk and only keys live across chunks and
rounds; the complement's dropped subsets are located by closed-form rank and
the keys left enumerated in key order, without rows; the edges are decoded
from the keys once, a slot to a row.  At n=200, r=3, p=0.3 the traced peak
is 32 bytes per edge, in that decoding: key and edge.
The random-keys draw (r > 8 or n < 4r) adds one chunk of values and indices,
3 MB: about 190 bytes per edge at n=100, r=9 with 2e4 edges, and 160 to 210
with byte keys at n=1000, r=9 and n=40, r=12 with 2e5 edges.
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
    in [1, n], stored in lexicographic order as the (k, r) transposed view of
    one read-only C-contiguous (r, k) int64 array: one contiguous row a slot.

    The constructor validates and sorts the rows it is given, as for loaded or
    user rows, decoding them from their sorted keys.  ``sample_hypergraph`` skips both
    through ``_of_sampled``: its rows are built distinct, increasing and in
    lexicographic order.
    """

    params: ModelParams
    edges: np.ndarray
    seed: int

    def __post_init__(self):
        n, r = self.params.n, self.params.r
        edges = np.asarray(self.edges) if len(self.edges) else np.empty((0, r), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != r or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be integer rows of length {r}, got {edges.shape}")
        if not all(np.all(edges[:, j] < edges[:, j + 1]) for j in range(r - 1)):
            raise ValueError(f"edges must be strictly increasing {r}-subsets")
        if np.any(edges[:, 0] < 1) or np.any(edges[:, -1] > n):
            raise ValueError(f"edge vertices must lie in [1, {n}]")
        # keys are injective, so equal neighbours in key order are duplicate
        # rows; the sampler's rows come sorted, which a stable sort finds fast
        keys = np.sort(_row_keys(edges, n), kind="stable")
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges in sample")
        edges = _rows_from_keys(keys, n, r)
        edges.base.flags.writeable = edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _of_sampled(cls, params: ModelParams, edges: np.ndarray, seed: int) -> HypergraphSample:
        """The sample of the sampler's own slot-major rows (``_rows_from_keys``),
        stored read-only as they are, without ``__post_init__``'s checks and sort."""
        sample = object.__new__(cls)
        edges.base.flags.writeable = edges.flags.writeable = False
        for name, value in (("params", params), ("edges", edges), ("seed", seed)):
            object.__setattr__(sample, name, value)
        return sample

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


def _edge_keys(n: int, r: int) -> np.ndarray:
    """The ``_row_keys`` of all C(n, r) r-subsets of {1..n}, in key order.

    Integer codes are enumerated as ``_edge_rows`` enumerates rows, from each
    prefix's code and last element alone; byte keys encode ``_edge_rows``.
    """
    if not _fits_uint64(n, r):
        return _row_keys(_edge_rows(n, r), n)
    keys = last = np.zeros(1, dtype=np.int64)
    for j in range(r):
        counts = n - r + 1 + j - last
        starts = np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        last = np.arange(len(starts))
        last -= starts
        del starts
        keys = np.repeat(keys * (n + 1), counts)
        keys += last
    return keys.view(np.uint64)


def _lex_ranks(keys: np.ndarray, n: int, r: int) -> np.ndarray:
    """Each ``_row_keys`` key's int64 position among the r-subsets of {1..n} in
    lexicographic order (Knuth, TAOCP 4A, 7.2.1.3): C(n - s_j, r - j) subsets
    follow s_0 < ... < s_{r-1} and first differ from it in slot j, where s_j > j,
    so rank = C(n, r) - 1 - sum_j C(n - s_j, r - j), one table gather a slot."""
    table = np.array([[math.comb(n - v, r - j) * (v > j) for v in range(n + 1)] for j in range(r)])
    ranks = np.full(len(keys), math.comb(n, r) - 1, dtype=np.int64)
    if keys.dtype != np.uint64:
        for j, words in enumerate(np.ascontiguousarray(keys).view(">i8").reshape(-1, r).T):
            ranks -= table[j][words]
        return ranks
    # digits by floor division, from the last slot; mode="clip" gathers in place
    rest, digit = keys.view(np.int64), np.empty(len(keys), dtype=np.int64)
    for j in range(r - 1, 0, -1):
        quotient = rest // (n + 1)
        np.subtract(rest, np.multiply(quotient, n + 1, out=digit), out=digit)
        ranks -= table[j].take(digit, out=digit, mode="clip")
        rest = quotient
    ranks -= table[0][rest]
    return ranks


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


# Bernstein's inequality bounds the Binomial(m, p) mass t or more from the mean
# by 2 exp(-t^2 / (2 (variance + t/3))); the quantile's window leaves out less
# than _TAIL_MASS of it
_TAIL_MASS = 1e-17
# a uniform draw this close to a step of the window's CDF is left to scipy, so
# that rounding in that CDF never decides the count
_STEP_MARGIN = 1e-9


def _binomial_quantile(u: float, m: int, p: float) -> int:
    """The smallest k with F(k) >= u for Binomial(m, p), 0 < u < 1, 0 < p < 1,
    m <= 2**53: what ``scipy.stats.binom.ppf`` returns.

    The pmf is built on a window around the mean that leaves out less than
    ``_TAIL_MASS``, as running products of pmf(j+1)/pmf(j) = (m-j)/(j+1) *
    p/(1-p) outward from the mode; its cumulative sum, normalised by the
    window total, is searched for u.  A u within ``_STEP_MARGIN`` of a step is
    answered by ``binom.ppf`` itself, so the count matches scipy's bits.
    """
    mean = m * p
    log_bound = math.log(2.0 / _TAIL_MASS)
    t = log_bound / 3.0 + math.sqrt(log_bound**2 / 9.0 + 2.0 * log_bound * mean * (1.0 - p))
    lo, hi = max(0, math.floor(mean - t)), min(m, math.ceil(mean + t))
    mode = min(max(math.floor((m + 1) * p), lo), hi)
    odds = p / (1.0 - p)
    down = np.arange(mode, lo, -1, dtype=np.float64)
    up = np.arange(mode, hi, dtype=np.float64)
    cdf = np.cumsum(np.concatenate((
        np.cumprod(down / (m + 1.0 - down) / odds)[::-1],
        [1.0],
        np.cumprod((m - up) / (up + 1.0) * odds),
    )))
    cdf /= cdf[-1]
    i = int(np.searchsorted(cdf, u))
    below = cdf[i - 1] if i else 0.0
    if cdf[i] - u <= _STEP_MARGIN or u - below <= _STEP_MARGIN:
        from scipy.stats import binom  # slow to import; this branch is rare
        return int(binom.ppf(u, m, p))
    return lo + i


def _draw_edge_count(rng: np.random.Generator, m: int, p: float) -> int:
    """One draw from Binomial(m, p), in [0, m].

    Exact inversion of one uniform draw by ``_binomial_quantile`` while m fits
    in float64 integers (a draw of exactly 0 gives 0); beyond that the count is
    approximated by a Gaussian when m*p*(1-p) > 1e6 and by Poisson(m*p)
    otherwise.  The budget check in ``sample_hypergraph`` guarantees m*p, and
    so the quantile's window, is moderate here.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return m
    if m <= 2**53:
        u = rng.random()
        return _binomial_quantile(u, m, p) if u > 0.0 else 0
    mean = math.exp(math.log(m) + math.log(p))
    variance = mean * (1.0 - p)
    if variance > 1e6:
        k = int(round(mean + math.sqrt(variance) * rng.standard_normal()))
        return max(0, k)
    return int(rng.poisson(mean))


# size-optimal compare-exchange networks: applying each (i, j) pair in turn,
# min to column i and max to column j, sorts every row of r <= 8 columns
_SORTING_NETWORKS = {
    2: [(0, 1)],
    3: [(0, 2), (0, 1), (1, 2)],
    4: [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)],
    5: [(0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)],
    6: [(0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)],
    7: [(0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4), (1, 2),
        (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6)],
    8: [(0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3),
        (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6)],
}


def _sorted_columns(rows: np.ndarray) -> list[np.ndarray]:
    """The columns of ``rows`` (k, r <= 8) with each row sorted, by the
    compare-exchange network for r: elementwise over whole columns, where
    ``rows.sort(axis=1)`` runs a sort per row."""
    cols = list(rows.T)
    for i, j in _SORTING_NETWORKS[rows.shape[1]]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return cols


# random values per chunk of the subset draw, r per row by rejection and n per
# row by random keys; a chunk's rows and their temporaries are its only
# row-wide arrays, a few MB
_DRAW_VALUES = 3 * 2**16


def _draw_keys(rng: np.random.Generator, n: int, r: int, count: int) -> np.ndarray:
    """``_row_keys`` of ``count`` i.i.d. uniform r-subsets of {1..n}, in draw
    order.  Duplicate keys are possible; distinctness is enforced by the caller.

    For r <= 8 and n >= 4r the rows are drawn as ``count`` rows of r uniform
    values, and those with a within-row collision are dropped (at most
    C(r, 2)/n <= (r - 1)/8 of them), so fewer keys may come back.  Otherwise
    each row is drawn by random keys: the r smallest of n i.i.d. uniform
    values index a uniform r-subset.  Both draws run in chunks of
    ``_DRAW_VALUES`` random values, which take the same values from the
    stream as one whole draw; only the keys outlive a chunk.
    """
    rejection = _by_rejection(n, r)
    codes = _fits_uint64(n, r)
    keys = np.empty(count, dtype=np.uint64 if codes else np.dtype((np.void, 8 * r)))
    kept = 0
    step = max(1, _DRAW_VALUES // (r if rejection else n))
    # random keys are drawn into one buffer: a new array per chunk, freed with
    # argpartition's equal-sized indices, made glibc trim the heap and fault
    # its pages in again on every chunk of a process's first sample
    values = None if rejection else np.empty((min(step, count), n))
    for start in range(0, count, step):
        take = min(step, count - start)
        if rejection:
            cols = _sorted_columns(rng.integers(1, n + 1, size=(take, r), dtype=np.int64))
            ok = cols[1] != cols[0]
            for j in range(2, r):
                ok &= cols[j] != cols[j - 1]
            # coded over the whole chunk and gathered once: one boolean gather
            # instead of one per column
            chunk = _horner(cols, n)[ok] if codes else _row_keys(np.column_stack(cols)[ok], n)
        else:
            rng.random(out=values[:take])
            rows = np.argpartition(values[:take], r - 1, axis=1)[:, :r] + 1
            rows.sort(axis=1)
            chunk = _row_keys(rows, n)
        keys[kept:kept + len(chunk)] = chunk
        kept += len(chunk)
    return keys[:kept]


def _by_rejection(n: int, r: int) -> bool:
    """Does ``_draw_keys`` draw r-subsets of {1..n} by rejection, not by
    random keys?"""
    return r <= 8 and 4 * r <= n


def _fits_uint64(n: int, r: int) -> bool:
    """Do base-(n+1) codes of r-subsets of {1..n} fit in 63 bits?"""
    return r * math.log2(n + 1) < 63


def _horner(cols, n: int) -> np.ndarray:
    """Base-(n+1) uint64 codes of the rows whose int64 columns are ``cols``."""
    keys = cols[0].copy()
    for col in cols[1:]:
        keys *= n + 1
        keys += col
    return keys.view(np.uint64)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Keys ordered as the rows are lexicographically: base-(n+1) uint64 codes
    when (n+1)^r < 2^63, else each row's big-endian bytes as one void scalar."""
    r = rows.shape[1]
    if _fits_uint64(n, r):
        # accumulated in int64 whatever the rows' dtype
        return _horner(rows.astype(np.int64, copy=False).T, n)
    return np.ascontiguousarray(rows, dtype=">i8").view(np.dtype((np.void, 8 * r))).ravel()


def _rows_from_keys(keys: np.ndarray, n: int, r: int) -> np.ndarray:
    """The (k, r) int64 rows whose ``_row_keys`` are ``keys``, in the same order:
    the transposed view of a C-contiguous (r, k) array, one row per slot."""
    if keys.dtype != np.uint64:
        words = np.ascontiguousarray(keys).view(">i8").reshape(-1, r)
        return words.T.astype(np.int64, order="C").T
    slots = np.empty((r, len(keys)), dtype=np.int64)
    slots[0] = keys.view(np.int64)  # the quotient, which the last division leaves there
    for j in range(r - 1, 0, -1):
        np.divmod(slots[0], n + 1, out=(slots[0], slots[j]))
    return slots.T


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of the first occurrence of each distinct key, and that key, in
    key order: the smallest position in each run of equal sorted keys."""
    if keys.dtype != np.uint64:
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(_run_heads(keys))
        first = np.minimum.reduceat(order, starts)
        del order
        return first, keys[starts]
    # one in-place sort of the words key << shift | position, modulo 2**64,
    # orders the draws by the key bits below the cut, then by position, and
    # is much faster than an argsort.  Key bits above the cut, if any, go to
    # ``top``, and a stable sort by them completes the key order (a radix
    # sort while they take at most 16 bits).  Each array is dropped as soon
    # as it is spent
    shift = max(len(keys) - 1, 1).bit_length()
    cut = np.uint64(64 - shift)
    high = int(keys.max(initial=0)) >> int(cut)
    top = (keys >> cut).astype(np.min_scalar_type(high)) if high else None
    packed = keys << np.uint64(shift)
    del keys
    packed |= np.arange(len(packed), dtype=np.uint64)
    packed.sort()
    position = np.uint64((1 << shift) - 1)
    if high:
        top = top[(packed & position).view(np.int64)]
        order = np.argsort(top, kind="stable")
        top, packed = top[order], packed[order]
        del order
    keys = packed >> np.uint64(shift)
    heads = _run_heads(keys)
    if high:
        heads |= _run_heads(top)
    packed = packed[heads]
    packed &= position
    keys = keys[heads]
    if high:
        # the keys' bits below the cut came from the words; add those above
        top = top[heads].astype(np.uint64)
        top <<= cut
        keys |= top
    return packed.view(np.int64), keys


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the elements of ``keys`` that differ from their predecessor."""
    heads = np.empty(len(keys), dtype=bool)
    heads[:1] = True
    heads[1:] = keys[1:] != keys[:-1]
    return heads


# standard deviations that a round's draws add to the expected need, which a
# one-sided Gaussian tail exceeds with chance 1e-9; and the fewest draws a
# round makes
_ROUND_MARGIN = 6.0
_MIN_ROUND_DRAWS = 1024


def _round_draws(n: int, r: int, kept: int, k: int, m: int) -> int:
    """Draws of ``_draw_keys`` that take the distinct subsets of a stream that
    has shown ``kept`` of the m to ``k``, with ``_ROUND_MARGIN`` standard
    deviations to spare.

    After j distinct subsets the next new one takes a geometric number of
    draws with success chance 1 - j/m (the coupon collector; Feller, vol. 1,
    IX.3).  Their means and variances, summed from kept to k, are bounded by
    the integrals m ln((m - kept)/(m - k)) and m (h(k/m) - h(kept/m)), with
    h(x) = x/(1-x) + ln(1-x).  Both are evaluated from f = k/m as k phi(f)
    and k (1/(1-f) - phi(f)), phi(x) = -ln(1-x)/x, so that m, which can
    exceed any float, never becomes one.  A rejection-drawn row is dropped
    with chance q = 1 - prod_{j<r} (1 - j/n), so T wanted rows take T/(1-q)
    draws on average, with variance (Var T + q E T)/(1-q)^2.
    """
    def phi(x):
        return -math.log1p(-x) / x if x else 1.0

    f, g = k / m, kept / m
    mean = k * phi(f) - kept * phi(g)
    variance = k * (1.0 / (1.0 - f) - phi(f)) - kept * (1.0 / (1.0 - g) - phi(g))
    q = 1.0 - math.prod(1.0 - j / n for j in range(r)) if _by_rejection(n, r) else 0.0
    spread = math.sqrt(max(variance, 0.0) + q * mean)
    return max(_MIN_ROUND_DRAWS, math.ceil((mean + _ROUND_MARGIN * spread) / (1.0 - q)))


def _distinct_keys(rng: np.random.Generator, n: int, r: int, k: int, m: int) -> np.ndarray:
    """Sorted ``_row_keys`` of the first k distinct subsets of an i.i.d. uniform
    subset stream (uniform over k-subsets of the m possible edges), or of the
    complement trick when k > m/2.  Each round draws ``_round_draws`` subsets,
    drops the keys seen before and keeps the smallest first stream positions
    still needed, by a partition cut-off; a round's keys stay in key order, so
    only a second round, rare by its sizing, sorts.  The keys are those of the
    stream's first k distinct subsets however it is cut into rounds.

    A round of b draws holds b keys plus one ``_draw_keys`` chunk, then about
    three 8-byte words per key while finding first occurrences; b is about
    m ln(m/(m - k)), 1.0k to 1.4k on the direct path.  The complement path masks
    out its dropped subsets' ``_lex_ranks`` before it enumerates the m keys."""
    if 2 * k > m:
        # sampling the complement preserves uniformity and avoids the long
        # coupon-collector tail; m <= 2k is small enough to enumerate, which
        # waits until the complement's draw has freed its temporaries
        keep = np.ones(m, dtype=bool)
        keep[_lex_ranks(_distinct_keys(rng, n, r, m - k, m), n, r)] = False
        return _edge_keys(n, r)[keep]

    rounds = [_row_keys(np.empty((0, r), dtype=np.int64), n)]
    kept = 0
    while kept < k:
        first, keys = _first_occurrences(_draw_keys(rng, n, r, _round_draws(n, r, kept, k, m)))
        if kept:
            fresh = ~np.isin(keys, np.concatenate(rounds))
            first, keys = first[fresh], keys[fresh]
        take = k - kept
        if len(first) > take:
            keys = keys[first <= np.partition(first, take - 1)[take - 1]]
        rounds.append(keys)
        kept += len(keys)
    return rounds[1] if len(rounds) == 2 else np.sort(np.concatenate(rounds))


def check_edge_budget(
    params: ModelParams,
    advice: str = "use the Gaussian surrogate ensemble "
    "(ensemble='gaussian_surrogate', gham.sample_surrogate) at this scale",
) -> None:
    """Raise SamplingBudgetError, ending in ``advice``, when the expected edge
    count C(n,r)*p exceeds ``DEFAULT_EDGE_BUDGET``; compared in log space,
    since C(n,r) may overflow."""
    if params.p > 0.0:
        log_expected = math.log(params.num_possible_edges) + math.log(params.p)
        if log_expected > math.log(DEFAULT_EDGE_BUDGET):
            raise SamplingBudgetError(
                f"expected edge count C({params.n},{params.r})*{params.p} exceeds "
                f"budget {DEFAULT_EDGE_BUDGET:g}; {advice}"
            )


def sample_hypergraph(params: ModelParams, seed: int) -> HypergraphSample:
    """Sample an Erdos-Renyi r-uniform hypergraph: each of the C(n, r) potential
    hyperedges is included independently with probability p.

    The edge count is drawn from Binomial(C(n,r), p) and that many distinct
    uniform r-subsets are then selected, which is distributionally identical to
    per-edge coin flips.  Identical (params, seed) reproduce identical output.

    Raises SamplingBudgetError, before any draw, when the expected edge count
    C(n,r)*p exceeds ``DEFAULT_EDGE_BUDGET`` (1e7).

    Examples
    --------
    >>> sample = sample_hypergraph(ModelParams(6, 3, 1.0), seed=0)
    >>> len(sample.edges)
    20
    >>> sample.edges[0].tolist()
    [1, 2, 3]
    """
    check_edge_budget(params)
    n, r, m = params.n, params.r, params.num_possible_edges
    rng = np.random.default_rng(seed)
    k = _draw_edge_count(rng, m, params.p)
    edges = _rows_from_keys(_distinct_keys(rng, n, r, k, m), n, r)
    return HypergraphSample._of_sampled(params, edges, seed)


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

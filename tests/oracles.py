"""Brute-force and closed-form counting oracles that only the tests use."""

import itertools
import math


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

"""Property tests of the array-native sampler, adjacency and sample type.

The sampler is checked against a reference that runs the same random stream
through Python tuples and a set, one edge at a time, so any (n, r, p, seed)
must give the identical edge list.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergraph_spectra import combinatorics
from hypergraph_spectra.combinatorics import (
    HypergraphSample,
    ModelParams,
    _distinct_keys,
    _draw_edge_count,
    _rows_from_keys,
    load_hypergraph_json,
    sample_hypergraph,
    save_hypergraph_json,
)
from hypergraph_spectra.gham import adjacency_from_hypergraph

from oracles import whole_random_keys_draw, whole_rejection_draw

MAX_EXPECTED_EDGES = 20_000


@st.composite
def model_params(draw):
    n = draw(st.integers(2, 22))
    r = draw(st.integers(2, n))
    m = math.comb(n, r)
    # bounds the work per example; p = 1 stays reachable whenever m is small
    p = draw(st.floats(0.0, 1.0)) * min(1.0, MAX_EXPECTED_EDGES / m)
    return ModelParams(n, r, p)


seeds = st.integers(0, 2**64 - 1)


def reference_distinct_edges(rng, n, r, k, m):
    """First k distinct rows of the subset stream, kept one tuple at a time."""
    if 2 * k > m:
        excluded = set(reference_distinct_edges(rng, n, r, m - k, m))
        return [e for e in itertools.combinations(range(1, n + 1), r) if e not in excluded]
    edges, seen = [], set()
    while len(edges) < k:
        batch = max(1024, 2 * (k - len(edges)))
        if r <= 8 and 4 * r <= n:
            rows = whole_rejection_draw(rng, n, r, batch)
        else:
            rows = whole_random_keys_draw(rng, n, r, batch)
        for row in map(tuple, rows.tolist()):
            if row not in seen:
                seen.add(row)
                edges.append(row)
                if len(edges) == k:
                    break
    return sorted(edges)


def reference_sample(params, seed):
    rng = np.random.default_rng(seed)
    m = params.num_possible_edges
    k = _draw_edge_count(rng, m, params.p)
    return reference_distinct_edges(rng, params.n, params.r, k, m)


@settings(max_examples=60, deadline=None)
@given(params=model_params(), seed=seeds)
# rows keyed by bytes, (n+1)^r >= 2^63: direct and complement paths
@example(params=ModelParams(22, 14, 0.01), seed=5)
@example(params=ModelParams(20, 15, 0.9), seed=13)
# direct path near k = m/2, where a round of 2k draws held too few distinct rows
@example(params=ModelParams(16, 4, 0.49), seed=1)
def test_sampler_matches_tuple_reference_and_invariants(params, seed):
    sample = sample_hypergraph(params, seed)
    edges = sample.edges
    assert edges.dtype == np.int64 and edges.shape[1:] == (params.r,)
    assert not edges.flags.writeable
    rows = [tuple(e) for e in edges.tolist()]
    assert rows == reference_sample(params, seed)
    # strictly increasing rows in [1, n], distinct and in lexicographic order
    assert np.all(edges[:, 1:] > edges[:, :-1])
    assert np.all((edges >= 1) & (edges <= params.n))
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize(
    "params,seed",
    [(ModelParams(60, 3, 0.3), 22), (ModelParams(16, 4, 0.49), 1), (ModelParams(7, 3, 0.9), 11)],
    ids=["one-round", "near-half", "complement"],
)
def test_distinct_edges_come_back_in_lexicographic_order(params, seed):
    # checked before HypergraphSample, whose own sort would hide a missing one
    rng = np.random.default_rng(seed)
    m = params.num_possible_edges
    k = _draw_edge_count(rng, m, params.p)
    n, r = params.n, params.r
    rows = _rows_from_keys(_distinct_keys(rng, n, r, k, m), n, r)
    assert [tuple(e) for e in rows.tolist()] == reference_sample(params, seed)


@pytest.mark.parametrize(
    "params,seed",
    [
        (ModelParams(16, 4, 0.49), 1),
        (ModelParams(30, 9, 3000 / math.comb(30, 9)), 2),
        (ModelParams(240, 8, 2000 / math.comb(240, 8)), 3),
        (ModelParams(22, 14, 0.01), 5),
        (ModelParams(20, 15, 0.9), 13),
    ],
    ids=["codes", "codes-random-keys", "bytes", "bytes-random-keys", "bytes-complement"],
)
def test_fallback_rounds_take_the_keys_of_one_round(monkeypatch, params, seed):
    # rounds sized to a third of the subsets still missing always fall short,
    # so every later round drops the keys seen before and the last one sorts
    n, r, m = params.n, params.r, params.num_possible_edges

    def distinct_keys():
        rng = np.random.default_rng(seed)
        return _distinct_keys(rng, n, r, _draw_edge_count(rng, m, params.p), m)

    one_round = distinct_keys()
    rounds = []

    def undershoot(n, r, kept, k, m):
        rounds.append(kept)
        return max(1, (k - kept) // 3)

    monkeypatch.setattr(combinatorics, "_round_draws", undershoot)
    keys = distinct_keys()
    assert len(rounds) >= 3
    assert keys.dtype == one_round.dtype
    np.testing.assert_array_equal(keys, one_round)
    rows = _rows_from_keys(keys, n, r)
    assert [tuple(e) for e in rows.tolist()] == reference_sample(params, seed)


@pytest.mark.parametrize(
    "params,seed,bound",
    [
        (ModelParams(200, 3, 0.3), 51, 48),
        (ModelParams(150, 3, 0.7), 52, 56),
        (ModelParams(100, 9, 2e4 / math.comb(100, 9)), 53, 400),
    ],
    ids=["direct", "complement", "random-keys"],
)
def test_sampler_peak_memory_per_edge(params, seed, bound):
    # the warm-up makes the sampler's first call, whose one-time allocations
    # would otherwise be counted as the sampler's
    sample_hypergraph(ModelParams(10, 3, 0.3), 0)
    tracemalloc.start()
    try:
        sample = sample_hypergraph(params, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the edges take 24 bytes each.  The direct and complement paths both
    # peak at 40 bytes per edge, in decoding the edges from their keys; with
    # a round of 2k draws in place of one sized to the draws k distinct keys
    # need, the direct path peaked at 45, in finding first occurrences.  A
    # whole-batch draw of 2k rows peaked at 128 and 81, and a stable
    # np.unique selection at 173.  The random-keys draw peaks near 190, most
    # of it one chunk's values and indices (3 MB) over only 2e4 edges; when
    # it kept every drawn row until the batch ended it peaked at 3344
    assert peak / len(sample.edges) < bound


def indicator_matrix(n, edge):
    a = np.zeros(n)
    a[np.asarray(edge) - 1] = 1.0
    return np.outer(a, a) - np.diag(a)


@settings(max_examples=40, deadline=None)
@given(params=model_params(), seed=seeds)
def test_adjacency_equals_sum_of_edge_indicators(params, seed):
    sample = sample_hypergraph(params, seed)
    if len(sample.edges) > 2000:
        sample = HypergraphSample(params, sample.edges[::97], seed)
    brute = np.zeros((params.n, params.n))
    for e in sample.edges:
        brute += indicator_matrix(params.n, e)
    np.testing.assert_array_equal(adjacency_from_hypergraph(sample), brute)


@st.composite
def edge_sets(draw):
    """Parameters plus a nonempty list of distinct increasing rows, in any order."""
    n = draw(st.integers(3, 12))
    r = draw(st.integers(2, n - 1))
    subsets = st.sets(st.integers(1, n), min_size=r, max_size=r).map(sorted)
    rows = draw(st.lists(subsets, min_size=1, max_size=15, unique_by=tuple))
    return ModelParams(n, r, 0.5), rows


@settings(max_examples=60, deadline=None)
@given(case=edge_sets(), data=st.data())
def test_sample_rejects_malformed_rows(case, data):
    params, rows = case
    sample = HypergraphSample(params, rows, 0)
    assert [tuple(e) for e in sample.edges.tolist()] == sorted(map(tuple, rows))
    i = data.draw(st.integers(0, len(rows) - 1))
    bad_rows = {
        "wrong width": [row[1:] for row in rows],
        "ragged": [row + [params.n + 1] if j == i else row for j, row in enumerate(rows)],
        "out of range": [[0] + row[1:] if j == i else row for j, row in enumerate(rows)],
        "too large": [row[:-1] + [params.n + 1] if j == i else row for j, row in enumerate(rows)],
        "unsorted row": [row[::-1] if j == i else row for j, row in enumerate(rows)],
        "duplicate row": rows + [rows[i]],
    }
    for bad in bad_rows.values():
        with pytest.raises(ValueError):
            HypergraphSample(params, bad, 0)


@settings(max_examples=40, deadline=None)
@given(params=model_params(), seed=seeds)
def test_json_round_trip(params, seed, tmp_path_factory):
    sample = sample_hypergraph(params, seed)
    path = tmp_path_factory.mktemp("json") / "h.json"
    save_hypergraph_json(sample, path)
    assert load_hypergraph_json(path) == sample

"""Tests for exact counting and hypergraph sampling."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from hypergraph_spectra import combinatorics
from hypergraph_spectra.combinatorics import (
    HypergraphSample,
    ModelParams,
    SamplingBudgetError,
    average_degree,
    binomial_coefficient,
    check_edge_budget,
    derive_seed,
    load_hypergraph_json,
    sample_hypergraph,
    save_hypergraph_json,
)
from scipy import stats

from oracles import (
    edge_overlap_count,
    enumerate_edges,
    whole_random_keys_draw,
    whole_rejection_draw,
)


def product_binomial(n, k):
    """Independent oracle: multiplicative evaluation with exact integers."""
    k = min(k, n - k)
    num, den = 1, 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


class TestBinomialCoefficient:
    def test_small_value(self):
        assert binomial_coefficient(8, 2) == 28 == product_binomial(8, 2)

    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_empty_subset(self, n):
        assert binomial_coefficient(n, 0) == 1

    def test_large_value_against_product_oracle(self):
        assert binomial_coefficient(30, 15) == 155117520
        assert product_binomial(30, 15) == 155117520

    def test_arbitrary_precision(self):
        value = binomial_coefficient(500, 250)
        assert value == product_binomial(500, 250)
        assert value > 10**100

    @pytest.mark.parametrize("n,k", [(5, -1), (5, 6), (-1, 0)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError):
            binomial_coefficient(n, k)


class TestModelParams:
    def test_derived_counts(self):
        params = ModelParams(6, 3, 0.5)
        assert params.num_possible_edges == 20
        assert params.edges_per_pair == 4
        assert params.size_ratio == 0.5

    def test_r2_pair_count_is_one(self):
        assert ModelParams(8, 2, 0.1).edges_per_pair == 1

    @pytest.mark.parametrize("n,r,p", [(3, 1, 0.5), (3, 4, 0.5), (5, 3, -0.1), (5, 3, 1.5)])
    def test_invalid(self, n, r, p):
        with pytest.raises(ValueError):
            ModelParams(n, r, p)


class TestAverageDegree:
    def test_example(self):
        assert average_degree(ModelParams(20, 3, 0.1)) == pytest.approx(17.1)

    def test_zero_probability(self):
        assert average_degree(ModelParams(20, 3, 0.0)) == 0.0

    def test_complete_graph_degree(self):
        assert average_degree(ModelParams(10, 2, 1.0)) == pytest.approx(9.0)

    def test_log_space_path(self):
        # C(999, 499) overflows float64; the log-space route must still give
        # a finite, consistent value for tiny p
        value = average_degree(ModelParams(1000, 500, 1e-280))
        expected = math.exp(
            math.lgamma(1000) - math.lgamma(500) - math.lgamma(501) + math.log(1e-280)
        )
        assert value == pytest.approx(expected, rel=1e-9)


class TestEdgeOverlapCount:
    def test_full_overlap_is_self(self):
        assert edge_overlap_count(8, 3, 3) == 1

    def test_disjoint(self):
        assert edge_overlap_count(8, 3, 0) == 10

    def test_single_vertex_overlap(self):
        assert edge_overlap_count(8, 3, 1) == 30

    def test_brute_force_enumeration(self):
        fixed = (1, 2, 3)
        counts = {s: 0 for s in range(4)}
        for edge in itertools.combinations(range(1, 9), 3):
            counts[len(set(edge) & set(fixed))] += 1
        for s in range(4):
            assert edge_overlap_count(8, 3, s) == counts[s]

    def test_total_is_binomial(self):
        for n in range(2, 13):
            for r in range(2, n + 1):
                total = sum(edge_overlap_count(n, r, s) for s in range(r + 1))
                assert total == binomial_coefficient(n, r)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            edge_overlap_count(8, 3, 4)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(12345, i) for i in range(1000)]
        assert seeds == [derive_seed(12345, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_uint64_range(self):
        for i in (0, 1, 10**6):
            s = derive_seed(2**63, i)
            assert 0 <= s < 2**64

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)


class TestRowKeys:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8])
    @pytest.mark.parametrize("n,r", [(1, 1), (9, 3), (200, 3), (300, 5), (2**20, 3)])
    def test_base_n_plus_one_codes(self, dtype, n, r):
        rng = np.random.default_rng(n + r)
        hi = min(n, np.iinfo(dtype).max)
        rows = np.sort(rng.integers(1, hi + 1, size=(500, r)), axis=1).astype(dtype)
        keys = combinatorics._row_keys(rows, n)
        expected = [sum(int(v) * (n + 1) ** (r - 1 - j) for j, v in enumerate(row))
                    for row in rows.tolist()]
        assert keys.dtype == np.uint64
        assert keys.tolist() == expected

    def test_empty_rows(self):
        keys = combinatorics._row_keys(np.empty((0, 3), dtype=np.uint64), 10)
        assert keys.dtype == np.uint64 and keys.size == 0

    def test_key_order_is_row_order(self):
        rows = np.array(list(itertools.combinations(range(1, 12), 4)))[::-1]
        keys = combinatorics._row_keys(rows, 11)
        np.testing.assert_array_equal(np.argsort(keys), np.lexsort(rows.T[::-1]))

    @pytest.mark.parametrize("n,r", [(200, 3), (9, 3), (2**20, 3), (1, 1)])
    def test_codes_decode_to_their_rows(self, n, r):
        rows = np.sort(np.random.default_rng(n).integers(1, n + 1, size=(500, r)), axis=1)
        keys = combinatorics._row_keys(rows, n)
        assert keys.dtype == np.uint64
        back = combinatorics._rows_from_keys(keys, n, r)
        assert back.dtype == np.int64 and back.T.flags.c_contiguous
        np.testing.assert_array_equal(back, rows)

    @pytest.mark.parametrize("n,r", [(40, 20), (2**20, 5), (20, 15)])
    def test_bytes_decode_to_their_rows(self, n, r):
        rows = np.sort(np.random.default_rng(n).integers(1, n + 1, size=(500, r)), axis=1)
        keys = combinatorics._row_keys(rows.astype(np.int32), n)
        assert keys.dtype.kind == "V"
        back = combinatorics._rows_from_keys(keys, n, r)
        assert back.dtype == np.int64 and back.T.flags.c_contiguous
        np.testing.assert_array_equal(back, rows)

    @pytest.mark.parametrize("n,r", [(10, 3), (40, 20)])
    def test_empty_keys_decode_to_no_rows(self, n, r):
        keys = combinatorics._row_keys(np.empty((0, r), dtype=np.int64), n)
        back = combinatorics._rows_from_keys(keys, n, r)
        assert back.shape == (0, r) and back.dtype == np.int64


def assert_slot_major(edges):
    """``edges`` is the (k, r) transposed view of one read-only C-contiguous
    (r, k) int64 array, and neither can be written."""
    assert edges.dtype == np.int64 and edges.T.flags.c_contiguous
    assert edges.base.shape == edges.shape[::-1]
    for array in (edges, edges.base):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


class TestSlotMajorEdges:
    @pytest.mark.parametrize("params,seed", [
        (ModelParams(200, 3, 0.3), 51),
        (ModelParams(150, 3, 0.7), 52),
        (ModelParams(40, 20, 5e-9), 31),
        (ModelParams(100, 9, 2e4 / math.comb(100, 9)), 53),
        (ModelParams(6, 3, 0.0), 7),
    ], ids=["codes", "complement", "bytes", "random-keys", "empty"])
    def test_sampled(self, params, seed):
        assert_slot_major(sample_hypergraph(params, seed).edges)

    @pytest.mark.parametrize("params,seed,dtype", [
        (ModelParams(60, 3, 0.3), 22, np.int64),
        (ModelParams(60, 3, 0.3), 22, np.int32),
        (ModelParams(40, 20, 5e-9), 31, np.int64),
    ], ids=["codes", "codes-int32", "bytes"])
    def test_constructed_from_strided_rows(self, params, seed, dtype):
        sample = sample_hypergraph(params, seed)
        rows = sample.edges[::97].astype(dtype, copy=False)
        built = HypergraphSample(sample.params, rows, sample.seed)
        assert_slot_major(built.edges)
        np.testing.assert_array_equal(built.edges, rows)

    def test_loaded(self, tmp_path):
        sample = sample_hypergraph(ModelParams(30, 4, 0.2), 8)
        save_hypergraph_json(sample, tmp_path / "h.json")
        loaded = load_hypergraph_json(tmp_path / "h.json")
        assert_slot_major(loaded.edges)
        assert loaded.edges.tobytes() == sample.edges.tobytes()


class TestSortingNetworks:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_sorts_every_zero_one_row(self, r):
        # 0-1 principle: a compare-exchange network that sorts every 0/1 row
        # sorts every row
        rows = np.array(list(itertools.product([0, 1], repeat=r)))
        expected = np.sort(rows, axis=1)
        np.testing.assert_array_equal(
            np.column_stack(combinatorics._sorted_columns(rows)), expected
        )

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 9) for n in (4 * r, 200)])
    def test_matches_np_sort_with_colliding_rows(self, r, n):
        rows = np.random.default_rng(r * n).integers(1, n + 1, size=(20_000, r))
        expected = np.sort(rows, axis=1)
        assert np.any(expected[:, 1:] == expected[:, :-1])  # collisions are kept
        np.testing.assert_array_equal(
            np.column_stack(combinatorics._sorted_columns(rows)), expected
        )

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 9) for n in (4 * r, 200)])
    def test_rejection_draw_keeps_the_rows_without_collisions(self, r, n):
        keys = combinatorics._draw_keys(np.random.default_rng(r + n), n, r, 5000)
        rows = combinatorics._rows_from_keys(keys, n, r)
        drawn = np.sort(
            np.random.default_rng(r + n).integers(1, n + 1, size=(5000, r), dtype=np.int64),
            axis=1,
        )
        expected = drawn[np.all(drawn[:, 1:] != drawn[:, :-1], axis=1)]
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, expected)


class TestChunkedDraw:
    @pytest.mark.parametrize("n", [150, 200, 2 * 10**4, 2**33])
    @pytest.mark.parametrize(
        "pieces", [[1] * 9 + [991], [3] * 9 + [973]], ids=["ones", "threes"]
    )
    def test_integers_drawn_in_pieces_equal_one_whole_draw(self, n, pieces):
        # the chunked rejection draw is bit-identical to one whole batch only
        # because numpy's stream has this property: split rows of 3 values,
        # an odd count of them, then an odd remainder
        whole_rng, piece_rng = np.random.default_rng(n), np.random.default_rng(n)
        whole = whole_rng.integers(1, n + 1, size=(sum(pieces), 3), dtype=np.int64)
        drawn = [piece_rng.integers(1, n + 1, size=(c, 3), dtype=np.int64) for c in pieces]
        np.testing.assert_array_equal(np.concatenate(drawn), whole)
        assert piece_rng.bit_generator.state == whole_rng.bit_generator.state
        assert piece_rng.random() == whole_rng.random()

    @pytest.mark.parametrize("n", [10, 30, 40, 201])
    @pytest.mark.parametrize(
        "pieces", [[1] * 9 + [991], [3] * 9 + [973]], ids=["ones", "threes"]
    )
    def test_uniforms_drawn_in_pieces_equal_one_whole_draw(self, n, pieces):
        # the same property for the random-keys draw, whose rows are n wide
        whole_rng, piece_rng = np.random.default_rng(n), np.random.default_rng(n)
        whole = whole_rng.random((sum(pieces), n))
        drawn = [piece_rng.random((c, n)) for c in pieces]
        np.testing.assert_array_equal(np.concatenate(drawn), whole)
        assert piece_rng.bit_generator.state == whole_rng.bit_generator.state
        assert piece_rng.random() == whole_rng.random()

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    @pytest.mark.parametrize(
        "r,n",
        [(2, 8), (3, 200), (8, 32), (5, 2**13), (8, 240), (3, 10), (9, 30), (12, 40)],
    )
    def test_keys_of_the_whole_batch_in_any_chunk_size(self, monkeypatch, chunk, r, n):
        # (3, 10), (9, 30) and (12, 40) draw by random keys; (5, 2**13),
        # (8, 240) and (12, 40) take byte keys
        rejection = r <= 8 and 4 * r <= n
        whole_draw = whole_rejection_draw if rejection else whole_random_keys_draw
        expected = whole_draw(np.random.default_rng(n), n, r, 5001)
        # a budget of ``chunk`` rows of r values, or of n by random keys
        monkeypatch.setattr(combinatorics, "_DRAW_VALUES", chunk * (r if rejection else n))
        rng = np.random.default_rng(n)
        keys = combinatorics._draw_keys(rng, n, r, 5001)
        assert keys.dtype == combinatorics._row_keys(expected, n).dtype
        np.testing.assert_array_equal(combinatorics._rows_from_keys(keys, n, r), expected)
        after = np.random.default_rng(n)
        whole_draw(after, n, r, 5001)
        assert rng.random() == after.random()


class TestRoundDraws:
    @staticmethod
    def coupon_moments(m, kept, k):
        """Exact mean and variance of the draws from kept to k distinct of m."""
        j = np.arange(kept, k, dtype=np.float64)
        return float(np.sum(m / (m - j))), float(np.sum(j * m / (m - j) ** 2))

    @pytest.mark.parametrize(
        "n,r,kept,k",
        [(30, 9, 0, 5000), (30, 9, 2000, 7_000_000), (12, 3, 0, 110), (200, 3, 40_000, 600_000)],
        ids=["keys-sparse", "keys-half", "rejection-tiny", "rejection-dense"],
    )
    def test_mean_and_spread_bound_the_coupon_collector(self, monkeypatch, n, r, kept, k):
        m = math.comb(n, r)
        mean, variance = self.coupon_moments(m, kept, k)
        q = 0.0
        if combinatorics._by_rejection(n, r):
            q = 1.0 - math.prod(1 - j / n for j in range(r))
            variance += q * mean
            mean /= 1.0 - q
        monkeypatch.setattr(combinatorics, "_MIN_ROUND_DRAWS", 0)
        monkeypatch.setattr(combinatorics, "_ROUND_MARGIN", 0.0)
        central = combinatorics._round_draws(n, r, kept, k, m)
        # the integral bounds the sum from above by at most m/(m - k) draws
        assert mean <= central <= mean + m / (m - k) / (1.0 - q) + 1
        monkeypatch.setattr(combinatorics, "_ROUND_MARGIN", 1.0)
        spread = combinatorics._round_draws(n, r, kept, k, m) - central
        sd = math.sqrt(variance) / (1.0 - q)
        assert sd - 1 <= spread <= 1.01 * sd + 2

    @pytest.mark.parametrize(
        "n,r,p,seed",
        [(200, 3, 0.3, 51), (150, 3, 0.7, 5), (100, 9, 2e4 / math.comb(100, 9), 53)],
        ids=["direct", "complement", "random-keys"],
    )
    def test_one_round_draws_little_past_the_last_edge(self, monkeypatch, n, r, p, seed):
        rounds = []
        draw_keys = combinatorics._draw_keys

        def spy(rng, n, r, count):
            keys = draw_keys(rng, n, r, count)
            rounds.append((count, keys))
            return keys

        monkeypatch.setattr(combinatorics, "_draw_keys", spy)
        m, edges = math.comb(n, r), len(sample_hypergraph(ModelParams(n, r, p), seed).edges)
        ((count, keys),) = rounds
        # the stream position, among the kept keys, of the first occurrence of
        # the last distinct subset the round takes (m - k of them in the
        # complement); rejected rows only add to it.  A round of 2k draws
        # reached about 1.7 times as far
        first, _ = combinatorics._first_occurrences(keys)
        last = np.sort(first)[min(edges, m - edges) - 1] + 1
        assert count <= 1.05 * last

    def test_edge_count_of_a_binomial_past_float_range(self):
        # C(1032, 516) > 1.8e308 while p = 50 / C(1032, 516) is still a
        # subnormal float: float(m) overflows, so the round is sized from k/m
        n, r = 1032, 516
        params = ModelParams(n, r, 50 / math.comb(n, r))
        edges = sample_hypergraph(params, 1).edges
        assert edges.shape == (50, r)
        # recorded from the sampler that drew a round of 2k subsets
        assert hashlib.sha256(edges.tobytes()).hexdigest() == (
            "232fc16617da3dd5f32cc1ac3be227979a0eb5f7f394c8520f42f0da3d4bf3f1"
        )


class TestEdgeKeys:
    @pytest.mark.parametrize("n,r", [(2, 2), (6, 3), (9, 4), (12, 2), (11, 11), (150, 3)])
    def test_codes_of_every_row_in_key_order(self, n, r):
        keys = combinatorics._edge_keys(n, r)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, combinatorics._row_keys(combinatorics._edge_rows(n, r), n))
        assert len(keys) == math.comb(n, r)

    def test_byte_keys_encode_the_rows(self):
        keys = combinatorics._edge_keys(20, 15)
        assert keys.dtype.kind == "V"
        rows = combinatorics._rows_from_keys(keys, 20, 15)
        assert [tuple(row) for row in rows.tolist()] == enumerate_edges(20, 15)


class TestLexRanks:
    @pytest.mark.parametrize(
        "n,r", [(2, 2), (6, 3), (9, 4), (12, 2), (11, 11), (150, 3), (20, 15)]
    )
    def test_every_subset_ranks_at_its_position(self, n, r):
        keys = combinatorics._edge_keys(n, r)
        assert (keys.dtype == np.uint64) == combinatorics._fits_uint64(n, r)
        ranks = combinatorics._lex_ranks(keys, n, r)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, np.arange(math.comb(n, r)))

    @pytest.mark.parametrize("n,r", [(30, 3), (100, 4), (13, 6), (13, 10), (18, 15), (20, 15)])
    def test_random_subsets_rank_where_a_search_finds_them(self, n, r):
        rng = np.random.default_rng(n * r)
        rows = np.sort(np.argsort(rng.random((500, n)), axis=1)[:, :r] + 1, axis=1)
        keys = combinatorics._row_keys(rows, n)
        expected = np.searchsorted(combinatorics._edge_keys(n, r), keys)
        np.testing.assert_array_equal(combinatorics._lex_ranks(keys, n, r), expected)

    @pytest.mark.parametrize("n,r", [(10, 3), (20, 15)])
    def test_no_keys_no_ranks(self, n, r):
        keys = combinatorics._row_keys(np.empty((0, r), dtype=np.int64), n)
        ranks = combinatorics._lex_ranks(keys, n, r)
        assert ranks.dtype == np.int64 and ranks.shape == (0,)


class TestFirstOccurrences:
    @pytest.mark.parametrize("total_bits,packed", [(64, True), (65, False), (40, True)])
    def test_packed_sort_agrees_with_argsort(self, monkeypatch, total_bits, packed):
        # 1000 positions take 10 bits; the largest key takes the rest
        rng = np.random.default_rng(total_bits)
        key_bits = total_bits - 10
        pool = rng.integers(0, 2**key_bits, size=300, dtype=np.uint64)
        pool[0] = 2**key_bits - 1
        keys = rng.choice(pool, size=1000)
        keys[rng.integers(1000)] = pool[0]
        expected_keys, expected_first = np.unique(keys, return_index=True)
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        first, distinct = combinatorics._first_occurrences(keys)
        monkeypatch.undo()
        assert bool(calls) is not packed
        np.testing.assert_array_equal(distinct, expected_keys)
        np.testing.assert_array_equal(first, expected_first)

    @pytest.mark.parametrize(
        "key_bits,size", [(63, 1000), (60, 70_000), (63, 140_000), (43, 3000)]
    )
    def test_key_bits_above_the_cut_agree_with_unique(self, key_bits, size):
        # key bits plus position bits: 73, 77 and 81 take the stable sort by
        # the top bits (uint16, uint16, uint32 top), 55 does not.  Each key
        # has a twin that differs only in its top bit
        rng = np.random.default_rng(key_bits + size)
        pool = rng.integers(0, 2**key_bits, size=size // 6, dtype=np.uint64)
        pool[:2] = [2**key_bits - 1, 0]
        keys = rng.choice(np.concatenate([pool, pool ^ np.uint64(2 ** (key_bits - 1))]), size=size)
        keys[size // 2] = pool[0]
        expected_keys, expected_first = np.unique(keys, return_index=True)
        first, distinct = combinatorics._first_occurrences(keys.copy())
        np.testing.assert_array_equal(distinct, expected_keys)
        np.testing.assert_array_equal(first, expected_first)
        assert first.dtype == np.int64 and distinct.dtype == np.uint64

    @pytest.mark.parametrize("size", [1000, 140_000])
    def test_keys_equal_below_the_cut_stay_apart(self, size):
        # eight keys whose bits below the cut are equal: only the top bits
        # tell them apart
        family = (np.arange(8, dtype=np.uint64) << np.uint64(60)) | np.uint64(12345)
        keys = np.random.default_rng(size).choice(family, size=size)
        expected_keys, expected_first = np.unique(keys, return_index=True)
        first, distinct = combinatorics._first_occurrences(keys.copy())
        np.testing.assert_array_equal(distinct, expected_keys)
        np.testing.assert_array_equal(first, expected_first)

    def test_byte_keys_use_argsort(self):
        rows = np.array([[5, 6], [1, 2], [5, 6], [1, 3], [1, 2]])
        keys = combinatorics._row_keys(rows, 2**40)
        first, distinct = combinatorics._first_occurrences(keys)
        assert first.tolist() == [1, 3, 0]
        np.testing.assert_array_equal(distinct, keys[[1, 3, 0]])


# (m, p) of every Bernoulli golden record (C(50,3)*0.4, C(40,3)*0.5), benchmark
# config (C(200,3)*0.3, C(150,3)*0.7) and golden sampler case with 0 < p < 1;
# then means below 1, p near 0 and near 1, and m at and near 2**53
QUANTILE_CASES = [
    (19600, 0.4), (9880, 0.5), (1313400, 0.3), (551300, 0.7),
    (35, 0.9), (4060, 0.8), (15504, 0.9), (495, 0.3), (34220, 0.3),
    (137846528820, 5e-09), (3268760, 0.0003), (155117520, 1e-05), (1225, 0.3),
    (36, 0.7), (1820, 0.49),
    (20, 0.01), (10**6, 1e-7), (10**4, 1e-9), (10**3, 1 - 1e-12), (10**6, 1 - 1e-9),
    (2**53, 1e-12), (2**53 - 1, 1e-10), (math.comb(10**5, 3), 2e5 / math.comb(10**5, 3)),
]


class TestBinomialQuantile:
    def test_matches_scipy_binom_ppf(self):
        rng = np.random.default_rng(2024)
        for m, p in QUANTILE_CASES:
            us = rng.random(500)
            ours = [combinatorics._binomial_quantile(u, m, p) for u in us]
            assert ours == stats.binom.ppf(us, m, p).astype(np.int64).tolist(), (m, p)

    @pytest.mark.parametrize("m, p", [(551300, 0.7), (1313400, 0.3), (20, 0.5), (35, 0.9)])
    def test_draw_at_a_cdf_step_is_scipys(self, monkeypatch, m, p):
        # u exactly at F(k) is within the step margin, so scipy answers it
        calls = []
        ppf = stats.binom.ppf
        monkeypatch.setattr(stats.binom, "ppf", lambda *a: calls.append(a) or ppf(*a))
        mean = round(m * p)
        ks = [k for k in range(mean - 3, mean + 4) if 0 <= k < m]
        for k in ks:
            u = float(stats.binom.cdf(k, m, p))
            assert combinatorics._binomial_quantile(u, m, p) == int(ppf(u, m, p))
        assert len(calls) == len(ks)

    @pytest.mark.parametrize("m, p", [(20, 0.5), (551300, 0.7), (10**3, 1 - 1e-12)])
    def test_extreme_draws_stay_in_range(self, m, p):
        for u in (np.nextafter(0.0, 1.0), 1.0 - 2.0**-53):
            k = combinatorics._binomial_quantile(u, m, p)
            assert 0 <= k <= m
            assert k == int(stats.binom.ppf(u, m, p))


class TestSampleHypergraph:
    def test_p_one_gives_all_edges(self):
        sample = sample_hypergraph(ModelParams(6, 3, 1.0), 7)
        assert len(sample.edges) == 20
        assert {tuple(e) for e in sample.edges.tolist()} == set(enumerate_edges(6, 3))

    def test_p_zero_gives_no_edges(self):
        assert len(sample_hypergraph(ModelParams(6, 3, 0.0), 7).edges) == 0

    def test_reproducible(self):
        params = ModelParams(9, 3, 0.4)
        a = sample_hypergraph(params, 123)
        b = sample_hypergraph(params, 123)
        assert np.array_equal(a.edges, b.edges)
        assert a != sample_hypergraph(params, 124) or len(a.edges) == 0

    def test_edges_are_valid_subsets(self):
        sample = sample_hypergraph(ModelParams(12, 4, 0.3), 5)
        for edge in sample.edges:
            assert len(edge) == 4
            assert len(set(edge)) == 4
            assert all(1 <= v <= 12 for v in edge)
            assert list(edge) == sorted(edge)
        assert len({tuple(e) for e in sample.edges.tolist()}) == len(sample.edges)

    def test_edge_count_mean_matches_binomial(self):
        # Binomial(20, 0.5): mean 10, checked to +-0.3 over 10_000 seeds
        params = ModelParams(6, 3, 0.5)
        counts = [len(sample_hypergraph(params, seed).edges) for seed in range(10_000)]
        assert abs(np.mean(counts) - 10.0) < 0.3
        assert abs(np.var(counts) - 5.0) < 0.5  # 4-sigma-ish band on the variance

    def test_complement_path_high_p(self):
        # p = 0.9 forces the complement branch (edge count > M/2) regularly
        params = ModelParams(7, 3, 0.9)
        counts = [len(sample_hypergraph(params, seed).edges) for seed in range(2000)]
        band = 4.0 * math.sqrt(35 * 0.9 * 0.1) / math.sqrt(2000)
        assert abs(np.mean(counts) - 0.9 * 35) < band

    def test_uniform_draw_of_zero_gives_no_edges(self, monkeypatch):
        # the smallest k with F(k) >= 0 is 0, where binom.ppf(0, m, p) gives -1
        class ZeroUniform:
            def random(self):
                return 0.0

        assert combinatorics._draw_edge_count(ZeroUniform(), 20, 0.5) == 0
        monkeypatch.setattr(combinatorics.np.random, "default_rng", lambda seed: ZeroUniform())
        sample = sample_hypergraph(ModelParams(6, 3, 0.5), 0)
        assert sample.edges.shape == (0, 3)

    def test_budget_error_advises_surrogate(self):
        with pytest.raises(SamplingBudgetError, match="surrogate"):
            sample_hypergraph(ModelParams(60, 30, 0.5), 1)

    @pytest.mark.parametrize("factor, over", [(1 - 1e-9, False), (1 + 1e-9, True)])
    def test_budget_boundary(self, monkeypatch, factor, over):
        # C(400, 3) * p expected edges, a relative 1e-9 either side of 1e7
        assert combinatorics.DEFAULT_EDGE_BUDGET == 10**7
        params = ModelParams(400, 3, factor * 1e7 / math.comb(400, 3))
        if not over:
            check_edge_budget(params)
            return
        with pytest.raises(SamplingBudgetError, match=r"exceeds budget 1e\+07"):
            check_edge_budget(params)

        def no_draw(seed):
            raise AssertionError("sampled past the budget")

        monkeypatch.setattr(combinatorics.np.random, "default_rng", no_draw)
        with pytest.raises(SamplingBudgetError):
            sample_hypergraph(params, 0)

    @pytest.mark.parametrize("n,r", [(6, 3), (10, 4), (8, 2), (5, 4)])
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_per_edge_inclusion_frequency(self, n, r, p):
        # each fixed hyperedge is included with probability p: check the
        # empirical frequency of every edge against a 4-sigma binomial band
        params = ModelParams(n, r, p)
        trials = 2000
        counts = {edge: 0 for edge in enumerate_edges(n, r)}
        for i in range(trials):
            for edge in map(tuple, sample_hypergraph(params, derive_seed(97, i)).edges.tolist()):
                counts[edge] += 1
        band = 4.0 * math.sqrt(p * (1 - p) / trials)
        freqs = np.array([c / trials for c in counts.values()])
        assert np.all(np.abs(freqs - p) <= band), (
            f"worst deviation {np.abs(freqs - p).max():.4f} vs band {band:.4f}"
        )

    # recorded before the sampler carried keys only through its rounds; the
    # benchmark's Bernoulli configs at their own and held-out master seeds
    @pytest.mark.parametrize("n,r,p,master,digest", [
        (200, 3, 0.3, 51, "e3eb0fb0018714520521de749620133bac5b7b0e46e36070ddf139b036c3fc4e"),
        (200, 3, 0.3, 151, "9544b8fa68e8815095ddd5a7d4b4854e179fbd09ad309fa1d25acadcbac2fe6f"),
        (150, 3, 0.7, 5, "cb1bfadc8707a5cbf58b1da97ab9baad9f66625cbfe58ad4d27ed4897304a882"),
        (150, 3, 0.7, 105, "27ec9f56a00a837c765ac91cc7e0ea98cddbf21b3570fe9451580644078e5c99"),
    ])
    def test_benchmark_configs_sample_the_recorded_edges(self, n, r, p, master, digest):
        edges = sample_hypergraph(ModelParams(n, r, p), derive_seed(master, 0)).edges
        assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sample = sample_hypergraph(ModelParams(8, 3, 0.4), 99)
        path = tmp_path / "hg.json"
        save_hypergraph_json(sample, path)
        loaded = load_hypergraph_json(path)
        assert loaded == sample

    def test_byte_identical(self, tmp_path):
        sample = sample_hypergraph(ModelParams(8, 3, 0.4), 99)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_hypergraph_json(sample, p1)
        save_hypergraph_json(sample_hypergraph(ModelParams(8, 3, 0.4), 99), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_sample_rejected(self):
        params = ModelParams(6, 3, 0.5)
        with pytest.raises(ValueError):
            HypergraphSample(params=params, edges=((1, 2),), seed=0)
        with pytest.raises(ValueError):
            HypergraphSample(params=params, edges=((1, 2, 3), (1, 2, 3)), seed=0)

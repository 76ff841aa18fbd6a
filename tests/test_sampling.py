"""Tests for neighbour sampling, batching, and hotness estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.datasets import tiny_dataset
from repro.graphs.generators import erdos_renyi_graph, power_law_graph
from repro.graphs.csr import CSRGraph
from repro.sampling.batching import iter_seed_batches, num_batches, take_batches
from repro.sampling.hotness import (
    degree_proxy_hotness,
    hotness_coverage,
    presample_hotness,
)
from repro.sampling.neighbor import sample_batch, sample_neighbors, sorted_unique


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(1000, 10, exponent=0.8, seed=0)


class TestSampleNeighbors:
    def test_fanout_respected(self, graph):
        rng = np.random.default_rng(0)
        frontier = np.arange(50)
        layer = sample_neighbors(graph, frontier, 5, rng)
        nonzero = (graph.out_degree(frontier) > 0).sum()
        assert layer.num_edges == nonzero * 5

    def test_sampled_edges_exist(self, graph):
        rng = np.random.default_rng(1)
        layer = sample_neighbors(graph, np.arange(100), 3, rng)
        for s, d in zip(layer.src[:100], layer.dst[:100]):
            assert d in graph.neighbors(s)

    def test_zero_degree_frontier(self):
        g = CSRGraph.from_edges(3, [0], [1])  # vertex 2 has no neighbours
        rng = np.random.default_rng(0)
        layer = sample_neighbors(g, np.array([2]), 4, rng)
        assert layer.num_edges == 0

    def test_invalid_fanout(self, graph):
        with pytest.raises(ValueError):
            sample_neighbors(graph, np.arange(3), 0, np.random.default_rng(0))


class TestSampleBatch:
    def test_two_hop_structure(self, graph):
        seeds = np.arange(20)
        s = sample_batch(graph, seeds, [25, 10], seed=0)
        assert len(s.layers) == 2
        assert s.num_unique >= seeds.size
        # all seeds must be in the unique set
        assert np.isin(seeds, s.unique_vertices).all()

    def test_unique_vertices_sorted_unique(self, graph):
        s = sample_batch(graph, np.arange(10), [5, 5], seed=0)
        u = s.unique_vertices
        assert np.all(np.diff(u) > 0)

    def test_deterministic(self, graph):
        s1 = sample_batch(graph, np.arange(10), [5], seed=9)
        s2 = sample_batch(graph, np.arange(10), [5], seed=9)
        assert np.array_equal(s1.layers[0].dst, s2.layers[0].dst)

    def test_feature_bytes(self, graph):
        s = sample_batch(graph, np.arange(10), [5], seed=0)
        assert s.feature_bytes(4096) == s.num_unique * 4096

    def test_bad_seeds_shape(self, graph):
        with pytest.raises(ValueError):
            sample_batch(graph, np.zeros((2, 2), dtype=np.int64), [5])

    def test_larger_fanout_more_unique(self, graph):
        small = sample_batch(graph, np.arange(30), [2, 2], seed=0)
        big = sample_batch(graph, np.arange(30), [25, 10], seed=0)
        assert big.num_unique > small.num_unique

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_all_sampled_vertices_valid(self, n_seeds, fanout):
        g = power_law_graph(200, 6, seed=1)
        s = sample_batch(g, np.arange(n_seeds), [fanout], seed=2)
        assert s.unique_vertices.max(initial=0) < g.num_vertices
        assert s.unique_vertices.min(initial=0) >= 0


def unique_formulation(graph, seeds, fanouts, seed):
    """``sample_batch`` written with ``np.unique``: (layers, vertex set)."""
    rng = np.random.default_rng(seed)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    all_ids, layers = [frontier], []
    for fanout in fanouts:
        layer = sample_neighbors(graph, frontier, fanout, rng)
        layers.append(layer)
        frontier = np.unique(layer.dst)
        all_ids.append(frontier)
    return layers, np.unique(np.concatenate(all_ids))


class TestSortedUnique:
    @given(
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
        st.sampled_from([np.int64, np.int32]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, values, dtype):
        ids = np.array(values, dtype=np.int64).astype(dtype)
        got, want = sorted_unique(ids), np.unique(ids)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize(
        "ids",
        [[], [7], [3, 3, 3, 3], [5, -1, 5, -1], list(range(20, 0, -1))],
    )
    def test_edge_inputs(self, ids):
        ids = np.array(ids, dtype=np.int64)
        got = sorted_unique(ids)
        assert np.array_equal(got, np.unique(ids))
        assert got.dtype == np.int64

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sample_batch_equals_unique_formulation(self, graph, seed):
        seeds = np.random.default_rng(seed).integers(0, 1000, 64)  # dups
        sample = sample_batch(graph, seeds, [25, 10], seed=seed)
        layers, unique_vertices = unique_formulation(
            graph, seeds, [25, 10], seed
        )
        assert np.array_equal(sample.unique_vertices, unique_vertices)
        assert sample.unique_vertices.dtype == unique_vertices.dtype
        for got, want in zip(sample.layers, layers, strict=True):
            assert np.array_equal(got.src, want.src)
            assert np.array_equal(got.dst, want.dst)


class TestBatching:
    def test_batches_cover_all(self):
        ids = np.arange(103)
        seen = np.concatenate(list(iter_seed_batches(ids, 10, seed=0)))
        assert sorted(seen.tolist()) == list(range(103))

    def test_drop_last(self):
        ids = np.arange(103)
        batches = list(iter_seed_batches(ids, 10, drop_last=True, seed=0))
        assert len(batches) == 10
        assert all(b.size == 10 for b in batches)

    def test_no_shuffle_preserves_order(self):
        ids = np.arange(10)
        batches = list(iter_seed_batches(ids, 4, shuffle=False))
        assert np.array_equal(batches[0], np.arange(4))

    def test_num_batches(self):
        assert num_batches(103, 10) == 11
        assert num_batches(103, 10, drop_last=True) == 10
        with pytest.raises(ValueError):
            num_batches(10, 0)

    def test_take_batches_caps(self):
        ids = np.arange(100)
        assert len(take_batches(ids, 10, 3, seed=0)) == 3
        assert len(take_batches(ids, 10, 99, seed=0)) == 10


class TestHotness:
    def test_presample_counts_positive(self, graph):
        ds_train = np.arange(100)
        h = presample_hotness(graph, ds_train, 20, [5, 5], seed=0)
        assert h.shape == (graph.num_vertices,)
        assert h.sum() > 0
        # every seed vertex is fetched at least once per epoch
        assert (h[ds_train] > 0).all()

    def test_extrapolation_preserves_scale(self, graph):
        train = np.arange(200)
        full = presample_hotness(graph, train, 20, [5], seed=0)
        capped = presample_hotness(graph, train, 20, [5], max_batches=3, seed=0)
        # extrapolated totals should be within ~3x (noisy but same order)
        assert capped.sum() == pytest.approx(full.sum(), rel=1.0)

    def test_degree_proxy_ranks_hubs_first(self, graph):
        proxy = degree_proxy_hotness(graph)
        sampled = presample_hotness(graph, np.arange(300), 50, [10, 10], seed=0)
        # Spearman-ish: top-decile overlap between the two rankings
        k = graph.num_vertices // 10
        top_proxy = set(np.argsort(proxy)[-k:].tolist())
        top_sample = set(np.argsort(sampled)[-k:].tolist())
        overlap = len(top_proxy & top_sample) / k
        assert overlap > 0.5

    def test_coverage_skewed_graph(self, graph):
        h = presample_hotness(graph, np.arange(300), 50, [10, 10], seed=0)
        c10 = hotness_coverage(h, 0.10)
        assert 0.1 < c10 <= 1.0
        # skew: the hot decile covers clearly more than a uniform share
        # (per-batch dedup flattens tiny graphs, so compare to uniform)
        uniform = erdos_renyi_graph(1000, 10, seed=0)
        hu = presample_hotness(uniform, np.arange(300), 50, [10, 10], seed=0)
        assert c10 > hotness_coverage(hu, 0.10) * 1.2

    def test_coverage_bounds(self):
        h = np.ones(100)
        assert hotness_coverage(h, 0.0) == 0.0
        assert hotness_coverage(h, 1.0) == pytest.approx(1.0)
        assert hotness_coverage(h, 0.3) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            hotness_coverage(h, 1.5)

    def test_zero_hotness(self):
        assert hotness_coverage(np.zeros(10), 0.5) == 0.0

    def test_invalid_epochs(self, graph):
        with pytest.raises(ValueError):
            presample_hotness(graph, np.arange(10), 5, [2], epochs=0)

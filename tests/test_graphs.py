"""Tests for the CSR container, generators, and dataset registry."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import (
    DATASETS,
    IGB_HOM,
    PAPER100M,
    get_dataset,
    tiny_dataset,
)
from repro.graphs.generators import (
    _guide_table,
    _weighted_choice,
    degree_gini,
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.graphs.partition import (
    partition_contiguous,
    partition_random,
    partition_round_robin,
    validate_partition,
)
from repro.utils.units import GB
from tests.oracles import reference_from_edges, reference_power_law_graph

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestCSRGraph:
    def simple(self):
        # 0->1, 0->2, 1->2
        return CSRGraph.from_edges(3, [0, 0, 1], [1, 2, 2], feature_dim=4)

    def test_from_edges(self):
        g = self.simple()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []
        empty = CSRGraph.from_edges(3, [], [])
        assert empty.num_vertices == 3
        assert empty.num_edges == 0
        assert list(empty.indptr) == [0, 0, 0, 0]
        assert empty.indices.dtype == np.int64

    def test_degrees(self):
        g = self.simple()
        assert list(g.out_degree()) == [2, 1, 0]
        assert list(g.out_degree(np.array([2, 0]))) == [0, 2]

    def test_dedupe(self):
        g = CSRGraph.from_edges(2, [0, 0, 0], [1, 1, 1])
        assert g.num_edges == 1
        g2 = CSRGraph.from_edges(3, [2, 0, 2, 0, 2], [1, 2, 0, 1, 1])
        assert list(g2.indptr) == [0, 2, 2, 4]
        assert list(g2.indices) == [1, 2, 0, 1]

    def test_feature_bytes(self):
        g = self.simple()
        assert g.feature_bytes == 16
        assert g.total_feature_bytes == 48

    def test_invalid_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_out_of_range_edges(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [0], [7])

    def test_neighbors_bounds(self):
        with pytest.raises(IndexError):
            self.simple().neighbors(10)

    def test_to_undirected(self):
        g = self.simple().to_undirected()
        assert 0 in g.neighbors(1)
        assert 1 in g.neighbors(0)
        assert g.num_edges == 6

    def test_topology_bytes_positive(self):
        assert self.simple().topology_bytes > 0


class TestGenerators:
    def test_rmat_shape(self):
        g = rmat_graph(1000, 8000, seed=1)
        assert g.num_vertices == 1000
        assert 0 < g.num_edges <= 8000

    def test_rmat_deterministic(self):
        g1 = rmat_graph(500, 2000, seed=42)
        g2 = rmat_graph(500, 2000, seed=42)
        assert np.array_equal(g1.indices, g2.indices)

    def test_rmat_is_skewed(self):
        skewed = rmat_graph(2000, 20000, seed=0)
        uniform = erdos_renyi_graph(2000, 10, seed=0)
        assert degree_gini(skewed) > degree_gini(uniform) + 0.1

    def test_rmat_invalid_probs(self):
        with pytest.raises(ValueError):
            rmat_graph(100, 100, a=0.9, b=0.3, c=0.3)

    def test_power_law_skew_monotone_in_exponent(self):
        flat = power_law_graph(2000, 10, exponent=0.1, seed=0)
        steep = power_law_graph(2000, 10, exponent=1.0, seed=0)
        assert degree_gini(steep) > degree_gini(flat)

    def test_power_law_no_self_loops(self):
        g = power_law_graph(300, 5, seed=3)
        src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
        assert not np.any(src == g.indices)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            power_law_graph(1, 5)
        with pytest.raises(ValueError):
            power_law_graph(100, -1)
        with pytest.raises(ValueError):
            erdos_renyi_graph(100, 0)

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_generated_graphs_are_valid_csr(self, n, d):
        g = power_law_graph(n, d, seed=0)
        assert g.indptr[-1] == g.num_edges
        if g.num_edges:
            assert g.indices.max() < n


def _same_graph(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.feature_dim == want.feature_dim


class TestReferenceConstruction:
    """The dataset build equals the ``Generator.choice`` + ``np.unique``
    construction in ``tests/oracles.py`` bit for bit, random stream
    included: a drift of one index anywhere fails these."""

    @pytest.mark.parametrize("avg_degree", [0.5, 14.87])
    @pytest.mark.parametrize("exponent", [0.0, 0.75, 2.5, 6.0])
    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    def test_power_law_graph(self, n, exponent, avg_degree):
        # exponent 6.0 underflows the tail's CDF steps: a plateau at 1.0
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = power_law_graph(n, avg_degree, exponent, seed=rng, feature_dim=8)
            want = reference_power_law_graph(
                n, avg_degree, exponent, seed=ref_rng, feature_dim=8
            )
            _same_graph(got, want)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [0.0, 1.0],
            [0.5, 0.5],
            [3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0],
            [1e-300, 1.0, 1e-300, 1e-300, 1.0],
        ],
    )
    def test_weighted_choice_equals_generator_choice(self, weights):
        p = np.asarray(weights) / np.sum(weights)
        cdf, guide = _guide_table(p)
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _weighted_choice(rng, cdf, guide, 5000)
            want = ref_rng.choice(p.size, size=5000, p=p)
            assert np.array_equal(got, want)
            assert rng.random() == ref_rng.random()

    def test_from_edges(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 300):
            for m in (0, 1, 10, 5000):
                src = rng.integers(0, n, m)
                dst = rng.integers(0, n, m)
                _same_graph(
                    CSRGraph.from_edges(n, src, dst),
                    reference_from_edges(n, src, dst),
                )

    def test_generators_and_to_undirected(self, monkeypatch):
        # through the module, so the patched power_law_graph is used too
        builds = {
            "rmat": lambda rng: generators.rmat_graph(1000, 8000, seed=rng),
            "erdos_renyi": lambda rng: generators.erdos_renyi_graph(500, 6.5, seed=rng),
            "community": lambda rng: generators.community_graph(900, 7.0, 5, seed=rng),
            "to_undirected": lambda rng: generators.power_law_graph(
                400, 5.0, seed=rng
            ).to_undirected(),
        }
        got = {}
        for name, build in builds.items():
            rng = np.random.default_rng(3)
            got[name] = (build(rng), rng.random())
        monkeypatch.setattr(CSRGraph, "from_edges", staticmethod(reference_from_edges))
        monkeypatch.setattr(generators, "power_law_graph", reference_power_law_graph)
        for name, build in builds.items():
            rng = np.random.default_rng(3)
            graph, after = got[name]
            _same_graph(graph, build(rng))
            assert after == rng.random(), name


def _digests(ds):
    return {
        name: hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()
        for name, a in (
            ("indptr", ds.graph.indptr),
            ("indices", ds.graph.indices),
            ("train_ids", ds.train_ids),
        )
    }


class TestDatasets:
    def test_builds_match_golden_digests(self):
        """The benchmark's dataset inputs (IGB-HOM at 16x and 4x the
        default scale, perfbench sessions 0-2) and the TINY graph are
        byte-identical to the recorded SHA-256 of their arrays."""
        with open(os.path.join(DATA, "dataset_sha256.json")) as fh:
            golden = json.load(fh)
        builds = {}
        for mult in (16, 4):
            for seed in range(3):
                builds[f"IG-x{mult}-{seed}"] = lambda m=mult, s=seed: IGB_HOM.build(
                    scale=IGB_HOM.default_scale * m, seed=s
                )
        for seed in range(3):
            builds[f"TINY-{seed}"] = lambda s=seed: tiny_dataset(seed=s)
        assert sorted(golden) == sorted(builds)
        for key, build in builds.items():
            assert _digests(build()) == golden[key], key

    def test_registry_matches_table2(self):
        assert set(DATASETS) == {"PA", "IG", "UK", "CL"}
        assert PAPER100M.num_vertices == 111_000_000
        assert PAPER100M.feature_storage_bytes == pytest.approx(56 * GB)
        assert IGB_HOM.feature_storage_bytes == pytest.approx(1.1e12)
        assert DATASETS["CL"].num_vertices == 1_000_000_000

    def test_get_dataset(self):
        assert get_dataset("pa") is PAPER100M
        with pytest.raises(KeyError):
            get_dataset("XX")

    def test_feature_bytes_per_vertex(self):
        assert PAPER100M.feature_bytes == 4096

    def test_build_scales_down(self):
        ds = PAPER100M.build(scale=20000, seed=0)
        assert ds.graph.num_vertices == pytest.approx(
            PAPER100M.num_vertices / 20000, rel=0.3
        )
        assert ds.batch_size >= 16
        assert ds.train_ids.size >= ds.batch_size

    def test_build_preserves_batch_ratio(self):
        # At moderate scales (before the batch-size floor of 16 kicks
        # in) the batches-per-epoch count matches the paper's.
        ds = PAPER100M.build(scale=500, seed=0)
        paper_batches = PAPER100M.num_vertices * 0.01 / PAPER100M.batch_size
        assert ds.num_batches == pytest.approx(paper_batches, rel=0.1)

    def test_scaled_capacity_and_time(self):
        ds = PAPER100M.build(scale=20000, seed=0)
        assert ds.scaled_capacity(40e9) == pytest.approx(2e6)
        assert ds.to_paper_time(0.001) == pytest.approx(20.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            PAPER100M.build(scale=0.5)

    def test_tiny_dataset(self):
        ds = tiny_dataset(num_vertices=500, batch_size=32, seed=1)
        assert ds.graph.num_vertices == 500
        assert ds.scale == 1.0
        assert ds.num_batches >= 1
        assert np.all(np.diff(ds.train_ids) > 0)  # sorted unique


class TestPartition:
    def test_round_robin_cover(self):
        ids = np.arange(10)
        parts = partition_round_robin(ids, 3)
        validate_partition(ids, parts)

    def test_contiguous_cover(self):
        ids = np.arange(11)
        parts = partition_contiguous(ids, 4)
        validate_partition(ids, parts)
        assert all(np.all(np.diff(p) == 1) for p in parts if p.size > 1)

    def test_random_cover_and_seeded(self):
        ids = np.arange(20)
        p1 = partition_random(ids, 4, seed=7)
        p2 = partition_random(ids, 4, seed=7)
        validate_partition(ids, p1)
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition_round_robin(np.arange(4), 0)

    def test_validate_catches_imbalance(self):
        ids = np.arange(4)
        with pytest.raises(ValueError):
            validate_partition(ids, [ids[:3], ids[3:]])

    def test_validate_catches_missing(self):
        ids = np.arange(4)
        with pytest.raises(ValueError):
            validate_partition(ids, [ids[:2], ids[:2]])

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_round_robin_always_valid(self, n, parts):
        ids = np.arange(n)
        validate_partition(ids, partition_round_robin(ids, parts))

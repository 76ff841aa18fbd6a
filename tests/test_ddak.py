"""Tests for DDAK and hash data placement."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ddak import (
    Bin,
    DataPlacement,
    TIER_CPU,
    TIER_GPU,
    TIER_SSD,
    ddak_place,
    hash_place,
    make_bins,
)
from repro.hardware.machines import classic_layouts, machine_a
from tests.oracles import reference_ddak_place

FB = 100  # feature bytes per vertex in these tests


def simple_bins(gpu_cap=10 * FB, cpu_cap=20 * FB, ssd_cap=10_000 * FB):
    return [
        Bin("gpu0:mem", TIER_GPU, gpu_cap, traffic=1e12),
        Bin("gpu1:mem", TIER_GPU, gpu_cap, traffic=1e12),
        Bin("mem0", TIER_CPU, cpu_cap, traffic=50e9),
        Bin("ssd0", TIER_SSD, ssd_cap, traffic=6e9),
        Bin("ssd1", TIER_SSD, ssd_cap, traffic=3e9),
    ]


def zipf_hotness(n=500, seed=0):
    rng = np.random.default_rng(seed)
    h = (np.arange(1, n + 1) ** -0.9).astype(np.float64)
    rng.shuffle(h)
    return h


class TestBin:
    def test_invalid_tier(self):
        with pytest.raises(ValueError):
            Bin("x", 7, 10, 1)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            Bin("x", TIER_SSD, -1, 1)


class TestDdakPlace:
    def test_all_placed_and_capacities_respected(self):
        bins = simple_bins()
        h = zipf_hotness()
        p = ddak_place(bins, h, FB, pool_size=10)
        p.validate(FB)
        assert p.method.startswith("ddak")

    def test_hottest_vertices_land_in_gpu(self):
        bins = simple_bins()
        h = zipf_hotness()
        p = ddak_place(bins, h, FB, pool_size=5)
        hot = np.argsort(-h)[:20]  # 20 hottest; GPU tier holds 20 slots
        gpu_ids = {p.bin_index("gpu0:mem"), p.bin_index("gpu1:mem")}
        assert all(int(p.bin_of[v]) in gpu_ids for v in hot)

    def test_hierarchy_gpu_then_cpu_then_ssd(self):
        bins = simple_bins()
        h = zipf_hotness()
        p = ddak_place(bins, h, FB, pool_size=5)
        order = np.argsort(-h)
        tiers = np.array([bins[b].tier for b in p.bin_of[order]])
        # mean tier must be non-decreasing along hotness deciles
        chunks = np.array_split(tiers, 10)
        means = [c.mean() for c in chunks]
        assert all(a <= b + 0.5 for a, b in zip(means, means[1:]))

    def test_ssd_traffic_matching(self):
        """SSD with 2x traffic target absorbs hotter vertices."""
        bins = simple_bins()
        h = zipf_hotness()
        p = ddak_place(bins, h, FB, pool_size=5)
        hot0 = h[p.vertices_in("ssd0")].sum()  # 6 GB/s target
        hot1 = h[p.vertices_in("ssd1")].sum()  # 3 GB/s target
        assert hot0 > hot1
        # ratio should approximate the traffic ratio
        assert hot0 / max(hot1, 1e-12) == pytest.approx(2.0, rel=0.5)

    def test_insufficient_capacity_raises(self):
        bins = [Bin("ssd0", TIER_SSD, 10 * FB, 1e9)]
        with pytest.raises(ValueError, match="dataset needs"):
            ddak_place(bins, zipf_hotness(100), FB)

    def test_pool_size_one_equals_fine_grained(self):
        bins = simple_bins()
        h = zipf_hotness(200)
        p1 = ddak_place(bins, h, FB, pool_size=1)
        p1.validate(FB)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            ddak_place(simple_bins(), zipf_hotness(), FB, pool_size=0)

    def test_deterministic(self):
        bins = simple_bins()
        h = zipf_hotness()
        p1 = ddak_place(bins, h, FB, pool_size=10)
        p2 = ddak_place(bins, h, FB, pool_size=10)
        assert np.array_equal(p1.bin_of, p2.bin_of)

    def test_tail_fill_when_pool_does_not_fit(self):
        # capacities not multiples of the pool: tail fill must kick in
        bins = [
            Bin("gpu0:mem", TIER_GPU, 7 * FB, 1e12),
            Bin("ssd0", TIER_SSD, 1000 * FB, 1e9),
        ]
        p = ddak_place(bins, zipf_hotness(50), FB, pool_size=10)
        p.validate(FB)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_property_valid_placements(self, pool, n):
        bins = simple_bins()
        h = zipf_hotness(n)
        p = ddak_place(bins, h, FB, pool_size=pool)
        p.validate(FB)
        assert p.bin_of.size == n


def assert_matches_reference(bins, hotness, pool_size):
    """``ddak_place`` equals the per-pool NumPy reference exactly."""
    try:
        ref = reference_ddak_place(bins, hotness, FB, pool_size=pool_size)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            ddak_place(bins, hotness, FB, pool_size=pool_size)
        return None
    got = ddak_place(bins, hotness, FB, pool_size=pool_size)
    assert np.array_equal(got.bin_of, ref.bin_of)
    assert got.bin_of.dtype == ref.bin_of.dtype
    assert got.bins == ref.bins
    assert got.method == ref.method
    return got


#: Traffic targets that tie (equal drives), default (the epsilon
#: ``make_bins`` gives an unscored bin), are zero, or span the range.
TRAFFIC = st.one_of(
    st.sampled_from([0.0, 1e6, 6e9, 1.2e12]),
    st.floats(min_value=0.0, max_value=1e13),
)


@st.composite
def ddak_cases(draw):
    """Bins over all three tiers, hotness over 1e-12..1e12, a pool size."""
    n_bins = draw(st.integers(min_value=1, max_value=12))
    bins = [
        Bin(
            f"b{i}",
            draw(st.sampled_from([TIER_GPU, TIER_CPU, TIER_SSD])),
            float(draw(st.integers(min_value=0, max_value=60 * FB))),
            draw(TRAFFIC),
        )
        for i in range(n_bins)
    ]
    n = draw(st.integers(min_value=0, max_value=400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hotness = 10.0 ** rng.uniform(-12, 12, n)
    if draw(st.booleans()):
        # heavy ties: the stable hottest-first order decides the pools
        hotness = np.round(hotness, 0) % 7
    shortfall = n * FB - sum(b.capacity_bytes for b in bins)
    if shortfall > 0:
        # just enough room, so the last pools fall to the tail fill
        slack = draw(st.integers(min_value=0, max_value=150 * FB))
        bins.append(Bin("spill", TIER_SSD, float(shortfall + slack), 1e6))
    return bins, hotness, draw(st.sampled_from([1, 7, 100]))


class TestDdakDifferential:
    """The scalar pooled greedy against the per-pool NumPy reference."""

    @given(ddak_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_bins_match_reference(self, case):
        assert_matches_reference(*case)

    @given(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.dictionaries(
            st.sampled_from(["gpu0:mem", "gpu2:mem", "mem0", "ssd1", "ssd3"]),
            TRAFFIC,
        ),
        st.sampled_from([1, 7, 100]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partitioned_gpu_bins_match_reference(
        self, layout, gpu_slots, cpu_slots, traffic, pool, seed
    ):
        m = machine_a()
        topo = m.build(classic_layouts(m)[layout])
        bins = make_bins(
            topo,
            gpu_cache_bytes=gpu_slots * FB,
            cpu_cache_bytes=cpu_slots * FB,
            ssd_capacity_bytes=100 * FB,
            traffic=traffic,
            gpu_cache_policy="partitioned",
        )
        hotness = 10.0 ** np.random.default_rng(seed).uniform(-12, 12, 300)
        assert_matches_reference(bins, hotness, pool)

    def test_forced_tail_fill_matches_reference(self):
        # every bin is smaller than a pool: DDAK places vertex by vertex
        bins = [
            Bin("gpu0:mem", TIER_GPU, 30 * FB, 1e12),
            Bin("gpu1:mem", TIER_GPU, 30 * FB, 1e12),
            Bin("mem0", TIER_CPU, 45 * FB, 2e9),
            Bin("ssd0", TIER_SSD, 90 * FB, 6e9),
            Bin("ssd1", TIER_SSD, 90 * FB, 6e9),
            Bin("ssd2", TIER_SSD, 90 * FB, 0.0),
        ]
        h = zipf_hotness(375)
        p = assert_matches_reference(bins, h, 100)
        first_pool = p.bin_of[np.argsort(-h, kind="stable")[:100]]
        assert np.unique(first_pool).size > 1  # the pool was split

    def test_pool_sums_keep_their_bits(self):
        # pools 1 and 2 differ by 35 ulp in one vertex: summed pairwise
        # (NumPy's order) pool 1 is hotter, so the cold pool 3 joins
        # pool 2's drive; summed left to right they tie and pool 3 would
        # join pool 1's.  Only the reference's summation order passes.
        x = 0.9745209780577792
        h = np.concatenate(
            [np.full(199, x), [x - 35 * np.spacing(x)], np.zeros(100)]
        )
        bins = [
            Bin("ssd0", TIER_SSD, 1000 * FB, 6e9),
            Bin("ssd1", TIER_SSD, 1000 * FB, 6e9),
        ]
        p = assert_matches_reference(bins, h, 100)
        assert p.bin_of[0] == 0 and p.bin_of[199] == p.bin_of[200] == 1

    def test_priority_keeps_its_operation_order(self):
        # the hottest vertex ties in exact arithmetic (3/7e9 * 100/3e4
        # against 3/3e9 * 100/7e4); the rounding of the reference's
        # ((access + h) / traffic) * (used + b) / capacity decides it
        bins = [
            Bin("ssd0", TIER_SSD, 300 * FB, 7e9),
            Bin("ssd1", TIER_SSD, 700 * FB, 3e9),
        ]
        h = np.array([0.3, 0.3, 3.0, 0.1])
        p = assert_matches_reference(bins, h, 1)
        assert p.bin_of.tolist() == [1, 1, 0, 1]

    #: The bins of a machine-A layout-(c) run (IGB-HOM, 1/16 of the
    #: default scale, 4096-byte features) and of its replan after ssd0
    #: fails: (name, tier, capacity bytes, max-flow traffic).
    MACHINE_A_RUN = [
        ("gpu:all", 0, 3355800.192, 1200000000000.0),
        ("mem0", 1, 860800.0, 1853264415.4611151),
        ("mem1", 1, 860800.0, 1853264415.4611125),
    ] + [(f"ssd{i}", 2, 600000000.0, 6000000000.0) for i in range(8)]
    MACHINE_A_REPLAN = [
        ("gpu:all", 0, 3355800.192, 1200000000000.0),
        ("mem0", 1, 860800.0, 3243212727.0569487),
        ("mem1", 1, 860800.0, 1000000.0),
    ] + [(f"ssd{i}", 2, 600000000.0, 6000000000.0) for i in range(1, 7)] + [
        ("ssd7", 2, 600000000.0, 5999999999.999993),
    ]

    @pytest.mark.parametrize("rows", [MACHINE_A_RUN, MACHINE_A_REPLAN])
    @pytest.mark.parametrize("pool", [7, 100])
    def test_machine_a_bins_match_reference(self, rows, pool):
        bins = [Bin(*row) for row in rows]
        # integer access counts with many ties, as pre-sampling gives
        rng = np.random.default_rng(0)
        hotness = np.floor(rng.zipf(1.6, 42031).astype(np.float64) * 25)
        feature_bytes = 4096
        ref = reference_ddak_place(bins, hotness, feature_bytes, pool)
        got = ddak_place(bins, hotness, feature_bytes, pool)
        assert np.array_equal(got.bin_of, ref.bin_of)
        assert got.bins == ref.bins and got.method == ref.method


class TestHashPlace:
    def test_hash_ssd_balance(self):
        bins = simple_bins()
        h = zipf_hotness(500)
        p = hash_place(bins, h, FB)
        n0 = p.vertices_in("ssd0").size
        n1 = p.vertices_in("ssd1").size
        # hashed by id: near-uniform regardless of traffic targets
        assert abs(n0 - n1) <= 0.1 * (n0 + n1)

    def test_caches_hold_hottest(self):
        bins = simple_bins()
        h = zipf_hotness(500)
        p = hash_place(bins, h, FB)
        hot = np.argsort(-h)[:40]  # GPU (20) + CPU (20) capacity
        cached = {
            p.bin_index("gpu0:mem"),
            p.bin_index("gpu1:mem"),
            p.bin_index("mem0"),
        }
        assert all(int(p.bin_of[v]) in cached for v in hot)

    def test_no_cache_mode(self):
        bins = simple_bins()
        p = hash_place(bins, zipf_hotness(500), FB, cache_hot=False)
        ssd_ids = {p.bin_index("ssd0"), p.bin_index("ssd1")}
        assert set(np.unique(p.bin_of).tolist()) <= ssd_ids

    def test_requires_ssd(self):
        bins = [Bin("gpu0:mem", TIER_GPU, 1e9, 1e12)]
        with pytest.raises(ValueError):
            hash_place(bins, zipf_hotness(10), FB)

    def test_validates(self):
        p = hash_place(simple_bins(), zipf_hotness(300), FB)
        p.validate(FB)


class TestDataPlacement:
    def test_queries(self):
        bins = simple_bins()
        p = hash_place(bins, zipf_hotness(100), FB)
        assert p.bin_index("ssd1") == 4
        with pytest.raises(KeyError):
            p.bin_index("nope")
        occ = p.occupancy(FB)
        assert 0 <= occ["gpu0:mem"] <= 1.0
        assert p.bytes_in("ssd0", FB) == p.vertices_in("ssd0").size * FB

    def test_validate_rejects_unplaced(self):
        bins = simple_bins()
        p = DataPlacement(bins, np.full(10, -1, dtype=np.int32))
        with pytest.raises(ValueError):
            p.validate(FB)


class TestMakeBins:
    def test_replicated_policy_default(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["c"])
        bins = make_bins(
            topo,
            gpu_cache_bytes=1e6,
            cpu_cache_bytes=2e6,
            ssd_capacity_bytes=1e9,
            traffic={"ssd0": 6e9},
        )
        names = {b.name for b in bins}
        # one logical replicated GPU bin, no per-GPU bins
        from repro.core.ddak import GPU_REPLICATED

        assert GPU_REPLICATED in names
        assert "gpu0:mem" not in names
        assert "mem0" in names and "ssd7" in names
        ssd0 = next(b for b in bins if b.name == "ssd0")
        assert ssd0.traffic == 6e9
        gpu_bin = next(b for b in bins if b.name == GPU_REPLICATED)
        assert gpu_bin.tier == TIER_GPU

    def test_partitioned_policy(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["c"])
        bins = make_bins(
            topo, 1e6, 2e6, 1e9, gpu_cache_policy="partitioned"
        )
        names = {b.name for b in bins}
        assert "gpu0:mem" in names and "gpu3:mem" in names

    def test_bad_policy(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["c"])
        with pytest.raises(ValueError):
            make_bins(topo, 1e6, 2e6, 1e9, gpu_cache_policy="magic")

    def test_validation(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["c"])
        with pytest.raises(ValueError):
            make_bins(topo, -1, 0, 0)

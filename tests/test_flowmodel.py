"""Tests for the max-flow throughput predictor."""

import pytest

from repro.core.flowmodel import (
    CPU_CLASS,
    SSD_CLASS,
    TrafficDemand,
    min_completion_time,
    plain_max_flow,
)
from repro.core.symmetry import iter_canonical_placements
from repro.core.topology import LinkKind, NodeKind, Topology
from repro.hardware.fabric import compile_fabric
from repro.hardware.generate import generate_fabric
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from repro.utils.units import GB
from tests import oracles


def linear_topo() -> Topology:
    """ssd0 (6 GB/s) -> rc -> gpu0 (20 GB/s link)."""
    t = Topology("linear")
    t.add("rc", NodeKind.ROOT_COMPLEX)
    t.add("gpu0", NodeKind.GPU)
    t.add("ssd0", NodeKind.SSD, egress_bw=6 * GB)
    t.add("mem0", NodeKind.CPU_MEM, egress_bw=60 * GB)
    t.add_link("ssd0", "rc", 6 * GB)
    t.add_link("mem0", "rc", 60 * GB, LinkKind.MEMORY)
    t.add_link("gpu0", "rc", 20 * GB)
    return t


class TestTrafficDemand:
    def test_accumulates(self):
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 10.0)
        d.add("ssd0", "gpu0", 5.0)
        assert d.entries[("ssd0", "gpu0")] == 15.0
        assert d.total == 15.0

    def test_zero_ignored(self):
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 0.0)
        assert not d.entries

    def test_negative_rejected(self):
        d = TrafficDemand()
        with pytest.raises(ValueError):
            d.add("ssd0", "gpu0", -1.0)

    def test_aggregations(self):
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 10.0)
        d.add("mem0", "gpu0", 5.0)
        d.add("ssd0", "gpu1", 1.0)
        assert d.per_gpu() == {"gpu0": 15.0, "gpu1": 1.0}
        assert d.per_bin() == {"ssd0": 11.0, "mem0": 5.0}

    def test_scaled(self):
        d = TrafficDemand({("a", "g"): 2.0})
        assert d.scaled(3.0).entries[("a", "g")] == 6.0


class TestMinCompletionTime:
    def test_ssd_bound(self):
        topo = linear_topo()
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 60 * GB)  # 60 GB from a 6 GB/s drive
        pred = min_completion_time(topo, d)
        assert pred.time == pytest.approx(10.0, rel=1e-3)
        assert pred.throughput == pytest.approx(6 * GB, rel=1e-3)

    def test_link_bound_with_mixed_sources(self):
        topo = linear_topo()
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 6 * GB)
        d.add("mem0", "gpu0", 34 * GB)  # total 40 GB through a 20 GB/s link
        pred = min_completion_time(topo, d)
        assert pred.time == pytest.approx(2.0, rel=1e-3)

    def test_storage_rate_reported(self):
        topo = linear_topo()
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 12 * GB)
        pred = min_completion_time(topo, d)
        assert pred.storage_rate["ssd0"] == pytest.approx(6 * GB, rel=1e-2)

    def test_zero_demand(self):
        pred = min_completion_time(linear_topo(), TrafficDemand())
        assert pred.time == 0.0
        assert pred.throughput == 0.0

    def test_unknown_bin_raises(self):
        d = TrafficDemand()
        d.add("nope", "gpu0", 1.0)
        with pytest.raises(KeyError):
            min_completion_time(linear_topo(), d)

    def test_unknown_gpu_raises(self):
        d = TrafficDemand()
        d.add("ssd0", "nogpu", 1.0)
        with pytest.raises(KeyError):
            min_completion_time(linear_topo(), d)

    def test_per_gpu_rate(self):
        topo = linear_topo()
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 6 * GB)
        pred = min_completion_time(topo, d)
        assert pred.per_gpu_rate["gpu0"] == pytest.approx(6 * GB, rel=1e-3)


class TestClassDemands:
    def test_ssd_class_splits_optimally(self):
        """Two SSDs behind separate links serve a class demand in parallel."""
        t = Topology()
        t.add("rc", NodeKind.ROOT_COMPLEX)
        t.add("gpu0", NodeKind.GPU)
        t.add("ssd0", NodeKind.SSD, egress_bw=6 * GB)
        t.add("ssd1", NodeKind.SSD, egress_bw=6 * GB)
        t.add_link("ssd0", "rc", 6 * GB)
        t.add_link("ssd1", "rc", 6 * GB)
        t.add_link("gpu0", "rc", 20 * GB)
        d = TrafficDemand()
        d.add(SSD_CLASS, "gpu0", 12 * GB)
        pred = min_completion_time(t, d)
        assert pred.time == pytest.approx(1.0, rel=1e-2)
        assert pred.storage_rate["ssd0"] == pytest.approx(6 * GB, rel=5e-2)
        assert pred.storage_rate["ssd1"] == pytest.approx(6 * GB, rel=5e-2)

    def test_cpu_class(self):
        topo = linear_topo()
        d = TrafficDemand()
        d.add(CPU_CLASS, "gpu0", 20 * GB)
        pred = min_completion_time(topo, d)
        assert pred.time == pytest.approx(1.0, rel=1e-2)


class TestOnMachines:
    def test_classic_c_throughput_exceeds_b(self):
        m = machine_a()
        lay = classic_layouts(m)
        results = {}
        for key in ("b", "c"):
            topo = m.build(lay[key])
            d = TrafficDemand()
            for g in topo.gpus():
                d.add(SSD_CLASS, g, 10 * GB)
            results[key] = min_completion_time(topo, d).throughput
        assert results["c"] > 1.5 * results["b"]

    def test_bottleneck_reported_for_contended_layout(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["b"])
        d = TrafficDemand()
        for g in topo.gpus():
            d.add(SSD_CLASS, g, 10 * GB)
        pred = min_completion_time(topo, d)
        assert pred.bottlenecks  # bus9 saturates
        assert any("rc0" in b or "plx0" in b for b in pred.bottlenecks)


class TestPlainMaxFlow:
    def test_linear(self):
        # mem (60) + ssd (6) both limited by the 20 GB/s GPU link
        assert plain_max_flow(linear_topo()) == pytest.approx(20 * GB, rel=1e-6)

    def test_machine_a_classic_c_is_ssd_plus_mem_bound(self):
        m = machine_a()
        topo = m.build(classic_layouts(m)["c"])
        flow = plain_max_flow(topo)
        # 4 GPUs x 24 GB/s slot links is the hard ceiling
        assert flow <= 4 * 24 * GB * 1.01
        assert flow > 48 * GB  # more than SSDs alone: memory adds paths


def deep_chain_topo(hops: int = 1200) -> Topology:
    """ssd0 (6 GB/s drive) -> sw0 -> ... -> gpu0 over 8 GB/s hops."""
    t = Topology("deep-chain")
    t.add("ssd0", NodeKind.SSD, egress_bw=6 * GB)
    t.add("gpu0", NodeKind.GPU)
    prev = "ssd0"
    for i in range(hops - 1):
        t.add(f"sw{i}", NodeKind.SWITCH)
        t.add_link(prev, f"sw{i}", 8 * GB)
        prev = f"sw{i}"
    t.add_link(prev, "gpu0", 8 * GB)
    return t


class TestDeepNetwork:
    """Dinic's blocking-flow search must not be bounded by the
    interpreter's recursion limit."""

    def test_plain_max_flow(self):
        assert plain_max_flow(deep_chain_topo()) == 6e9

    def test_min_completion_time(self):
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 1e9)
        assert min_completion_time(deep_chain_topo(), d).time == 1 / 6


def _oracle_topologies():
    """Machine A/B classic layouts plus every canonical 2-GPU/2-SSD
    placement of the generated fabrics ``gen:0``–``gen:11``."""
    for make in (machine_a, machine_b):
        m = make()
        for key, layout in classic_layouts(m).items():
            yield f"{m.name}/{key}", m.build(layout)
    for seed in range(12):
        m = compile_fabric(generate_fabric(seed))
        for i, p in enumerate(iter_canonical_placements(m.chassis, 2, 2)):
            yield f"gen:{seed}/{i}", m.build(p)


class TestPlainMaxFlowMatchesOracle:
    def test_equals_reference_dinic_exactly(self):
        """The production Dinic reproduces the reference ``FlowNetwork``
        Dinic bit for bit (same network, same edge order)."""
        checked = 0
        for name, topo in _oracle_topologies():
            assert plain_max_flow(topo) == oracles.plain_max_flow(topo), name
            checked += 1
        assert checked > 100

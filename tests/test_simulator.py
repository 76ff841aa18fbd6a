"""Tests for routing, I/O stack, memory ledger, traffic accounting, and
the epoch simulator."""

import numpy as np
import pytest

from repro.core.ddak import GPU_REPLICATED, ddak_place, hash_place, make_bins
from repro.gnn.costmodel import BatchShape
from repro.graphs.datasets import tiny_dataset
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from repro.hardware.specs import P5510
from repro.sampling.hotness import degree_proxy_hotness
from repro.sampling.neighbor import sample_batch
from repro.simulator.binding import static_ssd_binding
from repro.simulator.iostack import effective_read_bw, pages_for_bytes
from repro.simulator.memory import (
    MemoryLedger,
    OutOfMemoryError,
    activation_bytes,
    bam_page_cache_metadata_bytes,
    distdgl_partition_bytes,
    io_buffer_bytes,
)
from repro.simulator.pipeline import EpochSimulator, SimConfig
from repro.simulator.routing import Router, egress_key, link_key, p2p_key
from repro.simulator.traffic import TrafficAccount
from repro.utils.units import GB


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def topo_c(machine):
    return machine.build(classic_layouts(machine)["c"])


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(num_vertices=3000, avg_degree=8, batch_size=64, seed=0)


def make_placement(topo, dataset, method="ddak"):
    bins = make_bins(
        topo,
        gpu_cache_bytes=200 * dataset.feature_bytes,
        cpu_cache_bytes=100 * dataset.feature_bytes,
        ssd_capacity_bytes=1e12,
    )
    hot = degree_proxy_hotness(dataset.graph)
    if method == "ddak":
        return ddak_place(bins, hot, dataset.feature_bytes)
    return hash_place(bins, hot, dataset.feature_bytes)


class TestRouter:
    def test_local_cache_path_empty(self, topo_c):
        r = Router(topo_c)
        assert r.path("gpu0:mem", "gpu0") == ()

    def test_peer_cache_path_nonempty(self, topo_c):
        r = Router(topo_c)
        path = r.path("gpu0:mem", "gpu1")
        assert path  # crosses the switch
        assert any(k[0] == "link" for k in path)

    def test_ssd_path_has_egress(self, topo_c):
        r = Router(topo_c)
        path = r.path("ssd0", "gpu0")
        assert path[0] == egress_key("ssd0")

    def test_local_switch_p2p_avoids_root(self, topo_c):
        # (c): ssd0 and gpu0 share plx0 — route must not touch rc0
        r = Router(topo_c)
        path = r.path("ssd0", "gpu0")
        assert not any(k[0] == "link" and "rc0" in k for k in path)

    def test_cross_socket_path_gets_p2p_pool(self, topo_c):
        r = Router(topo_c)
        # ssd4 lives on plx1 (rc1 side); gpu0 on plx0
        path = r.path("ssd4", "gpu0")
        assert any(k[0] == "qpi_p2p" for k in path)
        assert r.crosses_qpi("ssd4", "gpu0")
        assert not r.crosses_qpi("ssd0", "gpu0")

    def test_capacities_include_p2p_pool(self, topo_c):
        caps = Router(topo_c).capacities
        assert p2p_key("rc0", "rc1") in caps
        assert caps[p2p_key("rc0", "rc1")] < caps[link_key("rc0", "rc1")]

    def test_unknown_route(self, topo_c):
        with pytest.raises(KeyError):
            Router(topo_c).path("nope", "gpu0")

    def test_qpi_link_keys(self, topo_c):
        keys = Router(topo_c).qpi_link_keys()
        assert link_key("rc0", "rc1") in keys
        assert link_key("rc1", "rc0") in keys


class TestIoStack:
    def test_effective_bw_iops_bound_small_pages(self):
        small = effective_read_bw(P5510, page_bytes=512)
        big = effective_read_bw(P5510, page_bytes=4096)
        assert small < big <= P5510.read_bw

    def test_effective_bw_saturates_with_depth(self):
        shallow = effective_read_bw(P5510, 4096, queue_depth=1)
        deep = effective_read_bw(P5510, 4096, queue_depth=1024)
        assert deep > 5 * shallow

    def test_pages_for_bytes(self):
        assert pages_for_bytes(0, 4096) == 0
        assert pages_for_bytes(1, 4096) == 1
        assert pages_for_bytes(4096, 4096) == 1
        assert pages_for_bytes(4097, 4096) == 2
        with pytest.raises(ValueError):
            pages_for_bytes(-1, 4096)


class TestMemoryLedger:
    def test_reserve_and_overflow(self):
        led = MemoryLedger("gpu", 100.0)
        led.reserve("a", 60)
        assert led.free_bytes == 40
        with pytest.raises(OutOfMemoryError):
            led.reserve("b", 50)
        assert led.try_reserve("c", 40)
        assert not led.try_reserve("d", 1)

    def test_duplicate_label(self):
        led = MemoryLedger("gpu", 100.0)
        led.reserve("a", 10)
        with pytest.raises(ValueError):
            led.reserve("a", 10)

    def test_release(self):
        led = MemoryLedger("gpu", 100.0)
        led.reserve("a", 60)
        led.release("a")
        assert led.free_bytes == 100

    def test_report(self):
        led = MemoryLedger("gpu", 1e9)
        led.reserve("cache", 5e8)
        assert "cache" in led.report()

    def test_footprint_formulas(self):
        assert activation_bytes(1000, 256, 2) > 0
        assert io_buffer_bytes(128, 1024, 4096) == 128 * 1024 * 4096
        # BaM metadata: UK's 3.2 TB features exceed a 40 GB budget
        meta = bam_page_cache_metadata_bytes(3.2e12)
        assert meta > 40e9
        assert distdgl_partition_bytes(4e12, 4) == pytest.approx(5e12)


class TestBinding:
    def test_local_binding_on_c(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        binding = static_ssd_binding(topo)
        # (c): every GPU gets 2 switch-local drives
        for gpu, drives in binding.items():
            assert len(drives) == 2
        all_drives = [d for ds_ in binding.values() for d in ds_]
        assert len(all_drives) == len(set(all_drives))  # disjoint

    def test_local_only_on_d(self, machine):
        # (d): 4 GPUs + 4 SSDs on plx0 -> one local drive each, the
        # remote drives are NOT topped up (paper Section 4.6)
        topo = machine.build(classic_layouts(machine)["d"])
        binding = static_ssd_binding(topo)
        for gpu, drives in binding.items():
            assert len(drives) == 1

    def test_no_qpi_tier_on_b(self, machine):
        # (b): SSDs on bays; GPUs on plx0 bind rc0's bays (no QPI)
        topo = machine.build(classic_layouts(machine)["b"])
        binding = static_ssd_binding(topo)
        router = Router(topo)
        for gpu, drives in binding.items():
            for d in drives:
                assert not router.crosses_qpi(d, gpu)

    def test_explicit_count(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        binding = static_ssd_binding(topo, drives_per_gpu=1)
        assert all(len(d) == 1 for d in binding.values())

    def test_validation(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        with pytest.raises(ValueError):
            static_ssd_binding(topo, drives_per_gpu=0)


class TestTrafficAccount:
    def test_accumulate_and_kinds(self, topo_c):
        acc = TrafficAccount(topo_c)
        acc.add({link_key("rc0", "rc1"): 100.0, link_key("rc1", "rc0"): 50.0})
        acc.add({link_key("rc0", "plx0"): 10.0})
        assert acc.qpi_bytes == 150.0
        assert acc.link_bytes("rc0", "rc1") == 150.0
        assert acc.link_bytes("rc0", "rc1", both_directions=False) == 100.0
        kinds = acc.bytes_by_kind()
        assert kinds["qpi"] == 150.0
        assert kinds["pcie"] == 10.0

    def test_scaled(self, topo_c):
        acc = TrafficAccount(topo_c)
        acc.add({link_key("rc0", "rc1"): 100.0})
        assert acc.scaled(2.0).qpi_bytes == 200.0

    def test_busiest(self, topo_c):
        acc = TrafficAccount(topo_c)
        acc.add({link_key("rc0", "rc1"): 5.0, link_key("rc0", "plx0"): 9.0})
        top = acc.busiest_links(1)
        assert top[0][:2] == ("rc0", "plx0")


class TestEpochSimulator:
    def test_runs_and_reports(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        sim = EpochSimulator(
            topo_c, machine, dataset, placement, SimConfig(sample_batches=3)
        )
        result = sim.run_epoch()
        assert result.epoch_seconds > 0
        assert result.num_steps >= 1
        assert result.external_bytes > 0
        assert result.local_bytes >= 0
        assert set(result.per_gpu_inlet) == set(topo_c.gpus())
        assert result.seeds_per_s > 0

    @pytest.mark.parametrize("fanouts", [(25, 10), (4, 3, 2)])
    def test_layer_work_equals_unique_src_count(
        self, machine, topo_c, dataset, fanouts, monkeypatch
    ):
        # each GNN layer's destination count is the number of distinct
        # src vertices in its hop, as np.unique counts them
        import repro.simulator.pipeline as pipeline

        events = []

        def recording_sample_batch(*args, **kwargs):
            sample = sample_batch(*args, **kwargs)
            events.append(("sample", sample))
            return sample

        def recording_shape(num_nodes, num_edges, layers=()):
            events.append(("shape", layers))
            return BatchShape(num_nodes, num_edges, layers)

        monkeypatch.setattr(pipeline, "sample_batch", recording_sample_batch)
        monkeypatch.setattr(pipeline, "BatchShape", recording_shape)
        placement = make_placement(topo_c, dataset)
        EpochSimulator(
            topo_c,
            machine,
            dataset,
            placement,
            SimConfig(fanouts=fanouts, sample_batches=2, seed=3),
        ).run_epoch()
        checked = 0
        for i, (kind, layer_work) in enumerate(events):
            if kind != "shape":
                continue
            sample = events[i - 1][1]  # the batch this shape describes
            assert layer_work == tuple(
                (int(np.unique(layer.src).size), layer.num_edges)
                for layer in reversed(sample.layers)
            )
            checked += 1
        assert checked >= len(topo_c.gpus())  # every GPU of a step

    def test_replicated_cache_is_local(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        sim = EpochSimulator(
            topo_c, machine, dataset, placement, SimConfig(sample_batches=2)
        )
        result = sim.run_epoch()
        # no demand entry may reference the replicated bin
        assert not any(
            b == GPU_REPLICATED for (b, _) in result.demand.entries
        )

    def test_contended_layout_slower(self, machine, dataset):
        lay = classic_layouts(machine)
        results = {}
        for key in ("b", "c"):
            topo = machine.build(lay[key])
            placement = make_placement(topo, dataset)
            sim = EpochSimulator(
                topo, machine, dataset, placement, SimConfig(sample_batches=3)
            )
            results[key] = sim.run_epoch()
        # tiny test batches are compute-bound, so compare the I/O stage:
        # layout (b) funnels everything through bus9
        assert results["b"].io_seconds > 1.3 * results["c"].io_seconds

    def test_binding_restricts_drives(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        binding = static_ssd_binding(topo_c)
        sim = EpochSimulator(
            topo_c,
            machine,
            dataset,
            placement,
            SimConfig(sample_batches=2),
            ssd_binding=binding,
        )
        result = sim.run_epoch()
        for (bin_name, gpu), _ in result.demand.entries.items():
            if bin_name.startswith("ssd"):
                assert bin_name in binding[gpu]

    def test_deterministic(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        r1 = EpochSimulator(
            topo_c, machine, dataset, placement, SimConfig(sample_batches=2, seed=5)
        ).run_epoch()
        r2 = EpochSimulator(
            topo_c, machine, dataset, placement, SimConfig(sample_batches=2, seed=5)
        ).run_epoch()
        assert r1.epoch_seconds == pytest.approx(r2.epoch_seconds)
        assert r1.external_bytes == pytest.approx(r2.external_bytes)

    def test_gat_slower_than_sage(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        times = {}
        for model in ("graphsage", "gat"):
            sim = EpochSimulator(
                topo_c,
                machine,
                dataset,
                placement,
                SimConfig(sample_batches=2, model_name=model),
            )
            times[model] = sim.run_epoch().compute_seconds
        assert times["gat"] > times["graphsage"]

    def test_nvlink_relay_golden(self, monkeypatch):
        """Machine B's Figure-7 layout with bridges (0, 3) and (1, 2)
        relays part of its contended fetches through the NVLink partner;
        the epoch time is pinned bit-for-bit to the recorded golden."""
        from repro.graphs.datasets import IGB_HOM
        from repro.hardware.machines import moment_paper_layout_b
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        feature_flows = EpochSimulator._feature_flows
        relays = []

        def counting_feature_flows(self, bin_name, gpu, nbytes):
            flows = feature_flows(self, bin_name, gpu, nbytes)
            relays.append(len(flows) == 2)
            return flows

        monkeypatch.setattr(
            EpochSimulator, "_feature_flows", counting_feature_flows
        )
        machine = machine_b()
        result = MomentSystem(machine).run(RunSpec(
            dataset=IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=0),
            placement=moment_paper_layout_b(machine),
            sample_batches=2,
            nvlink_pairs=[(0, 3), (1, 2)],
        ))
        assert sum(relays) > 0
        assert result.paper_epoch_seconds == 14.411331106580644

    def test_partitioned_cache_golden(self):
        """Machine A layout (c) with one cache bin per GPU: every GPU
        reads its peers' ``gpuN:mem`` bins over the fabric; the epoch is
        pinned bit-for-bit to the recorded golden."""
        from repro.core.optimizer import capacity_plan
        from repro.graphs.datasets import IGB_HOM

        machine = machine_a()
        topo = machine.build(classic_layouts(machine)["c"])
        ds = IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=0)
        cap = capacity_plan(machine, ds)
        bins = make_bins(
            topo,
            gpu_cache_bytes=cap.gpu_cache_bytes,
            cpu_cache_bytes=cap.cpu_cache_bytes,
            ssd_capacity_bytes=cap.ssd_capacity_bytes,
            gpu_cache_policy="partitioned",
        )
        placement = ddak_place(
            bins, degree_proxy_hotness(ds.graph), ds.feature_bytes
        )
        result = EpochSimulator(
            topo, machine, ds, placement, SimConfig(sample_batches=2)
        ).run_epoch()
        peer = {
            (b, g) for (b, g) in result.demand.entries if b.endswith(":mem")
        }
        gpus = topo.gpus()
        assert peer == {
            (f"{src}:mem", dst) for src in gpus for dst in gpus if src != dst
        }
        assert result.epoch_seconds == 22.25590080000001
        assert result.io_seconds == 0.24695466666666677
        assert result.external_bytes == 724654080000.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(model_name="transformer")
        with pytest.raises(ValueError):
            SimConfig(sample_batches=0)
        with pytest.raises(ValueError):
            SimConfig(fanouts=())

    def test_placement_coverage_checked(self, machine, topo_c, dataset):
        placement = make_placement(topo_c, dataset)
        import dataclasses

        bad = dataclasses.replace(placement, bin_of=placement.bin_of[:-5])
        with pytest.raises(ValueError):
            EpochSimulator(topo_c, machine, dataset, bad)

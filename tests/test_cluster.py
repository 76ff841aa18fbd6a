"""Tests for the multi-node extension (paper Section 5)."""

import numpy as np
import pytest

from repro.cluster.multinode import (
    ClusterBuilder,
    MultiNodeMoment,
    namespace_topology,
    node_local_bins,
)
from repro.core.ddak import GPU_REPLICATED
from repro.core.placement import GPU, Placement, SSD
from repro.core.topology import LinkKind, NodeKind
from repro.graphs.datasets import IGB_HOM
from repro.hardware.machines import classic_layouts, machine_a
from repro.simulator.pipeline import EpochSimulator, SimConfig


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def dataset():
    return IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)


@pytest.fixture(scope="module")
def placement(machine):
    return classic_layouts(machine, num_gpus=2, num_ssds=4)["c"]


class TestNamespace:
    def test_renames_everything(self, machine, placement):
        topo = machine.build(placement)
        ns = namespace_topology(topo, "n0")
        assert set(ns.gpus()) == {"n0/gpu0", "n0/gpu1"}
        assert "n0/rc0" in ns
        assert "rc0" not in ns
        assert len(ns.links) == len(topo.links)

    def test_preserves_capacities(self, machine, placement):
        topo = machine.build(placement)
        ns = namespace_topology(topo, "n0")
        assert ns.link("n0/rc0", "n0/plx0").capacity == topo.link(
            "rc0", "plx0"
        ).capacity

    def test_bad_prefix(self, machine, placement):
        topo = machine.build(placement)
        with pytest.raises(ValueError):
            namespace_topology(topo, "a/b")
        with pytest.raises(ValueError):
            namespace_topology(topo, "")


class TestClusterBuilder:
    def test_two_node_structure(self, machine, placement):
        cluster = (
            ClusterBuilder()
            .add_node(machine, placement)
            .add_node(machine, placement)
            .build()
        )
        assert len(cluster.gpus()) == 4
        assert "net" in cluster
        assert "n0/nic" in cluster and "n1/nic" in cluster
        net_links = [
            l for l in cluster.links if l.kind is LinkKind.NETWORK
        ]
        assert len(net_links) == 4  # two NICs x two directions

    def test_single_node_has_no_network(self, machine, placement):
        cluster = ClusterBuilder().add_node(machine, placement).build()
        assert "net" not in cluster
        assert not any(
            l.kind is LinkKind.NETWORK for l in cluster.links
        )

    def test_cross_node_routable(self, machine, placement):
        cluster = (
            ClusterBuilder()
            .add_node(machine, placement)
            .add_node(machine, placement)
            .build()
        )
        path = cluster.shortest_path("n0/ssd0", "n1/gpu0")
        assert path is not None
        assert "net" in path

    def test_duplicate_names_rejected(self, machine, placement):
        b = ClusterBuilder()
        b.add_node(machine, placement, name="x")
        b.add_node(machine, placement, name="x")
        with pytest.raises(ValueError):
            b.build()

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterBuilder().build()


class TestMultiNodeMoment:
    @pytest.fixture(scope="class")
    def plan(self, machine, dataset):
        mn = MultiNodeMoment(
            [machine, machine], num_gpus_per_node=2, num_ssds_per_node=4
        )
        return mn.optimize(dataset)

    def test_plan_structure(self, plan, dataset):
        assert plan.num_gpus == 4
        assert set(plan.node_throughput) == {"n0", "n1"}
        plan.data_placement.validate(dataset.feature_bytes)
        names = [b.name for b in plan.data_placement.bins]
        assert f"n0/{GPU_REPLICATED}" in names
        assert f"n1/{GPU_REPLICATED}" in names

    def test_node_local_bins(self, plan):
        n0 = node_local_bins(plan.data_placement, "n0")
        assert all(b.startswith("n0/") for b in n0)
        assert len(n0) >= 3

    def test_cluster_epoch_simulates(self, plan, machine, dataset):
        sim = EpochSimulator(
            plan.topology,
            machine,
            dataset,
            plan.data_placement,
            SimConfig(sample_batches=2),
        )
        result = sim.run_epoch()
        assert result.epoch_seconds > 0
        # gradient sync crosses the network: slower than single machine
        assert result.sync_seconds > 0
        # some feature traffic crosses the network core
        net_bytes = sum(
            v
            for k, v in result.traffic.by_resource.items()
            if isinstance(k, tuple) and k[0] == "link" and "net" in k
        )
        assert net_bytes > 0

    def test_more_nodes_more_throughput(self, machine, dataset, plan):
        """Two nodes (4 GPUs, 8 SSDs) beat one node (2 GPUs, 4 SSDs)."""
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        single = MomentSystem(machine).run(
            RunSpec(dataset=dataset, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        sim = EpochSimulator(
            plan.topology,
            machine,
            dataset,
            plan.data_placement,
            SimConfig(sample_batches=2),
        )
        double = sim.run_epoch()
        assert double.seeds_per_s > single.seeds_per_s

    def test_requires_machines(self):
        with pytest.raises(ValueError):
            MultiNodeMoment([])

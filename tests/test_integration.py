"""Cross-module integration and property tests.

These run the system end-to-end the way the paper's narrative does and
check the invariants that tie the subsystems together: symmetry
invariance of scores, conservation of bytes from placement to traffic,
predictor-vs-simulator consistency, and CLI entry points.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flowmodel import TrafficDemand, min_completion_time
from repro.core.optimizer import MomentOptimizer, capacity_plan, tier_fractions
from repro.core.placement import GPU, Placement, SSD
from repro.core.search import run_search
from repro.core.symmetry import slot_group_symmetries
from repro.graphs.datasets import IGB_HOM
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def dataset():
    return IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)


@pytest.fixture(scope="module")
def moment_result(machine, dataset):
    return MomentSystem(machine).run(
        RunSpec(dataset=dataset, num_gpus=2, num_ssds=4, sample_batches=3)
    )


class TestSymmetryInvariance:
    """Mirrored placements on Machine A must score identically."""

    def test_mirror_scores_equal(self, machine, dataset):
        opt = MomentOptimizer(machine, 2, 4)
        hot = opt.estimate_hotness(dataset)
        plan = capacity_plan(machine, dataset)
        fractions = tier_fractions(hot, dataset.feature_bytes, plan, 2)
        left = Placement(
            machine.chassis, {"plx0.slots": {GPU: 2, SSD: 4}}
        )
        right = Placement(
            machine.chassis, {"plx1.slots": {GPU: 2, SSD: 4}}
        )
        s_left = run_search(opt.search_request(fractions, [left])).best
        s_right = run_search(opt.search_request(fractions, [right])).best
        assert s_left.throughput == pytest.approx(s_right.throughput, rel=1e-3)

    def test_mirror_is_one_orbit(self, machine):
        syms = slot_group_symmetries(machine.chassis)
        assert len(syms) == 2  # identity + mirror


class TestByteConservation:
    """Every demanded byte must show up on the storage device's egress."""

    def test_demand_matches_ssd_egress_traffic(self, moment_result):
        epoch = moment_result.epoch
        per_bin = epoch.demand.per_bin()
        for ssd, nbytes in per_bin.items():
            if not ssd.startswith("ssd"):
                continue
            egress = epoch.traffic.by_resource.get(("egress", ssd), 0.0)
            assert egress == pytest.approx(nbytes, rel=1e-6)

    def test_local_plus_external_covers_all_fetches(self, moment_result):
        epoch = moment_result.epoch
        total = epoch.local_bytes + epoch.external_bytes
        assert total > 0
        assert epoch.external_bytes == pytest.approx(
            epoch.demand.total, rel=1e-9
        )


class TestPredictorConsistency:
    """The optimistic predictor should rarely be slower than measurement."""

    def test_lp_prediction_within_envelope(self, machine, moment_result):
        from repro.core.flowmodel import FlowTemplate
        from repro.core.mcmf import multicommodity_min_time

        epoch = moment_result.epoch
        topo = machine.build(moment_result.placement)
        pred = multicommodity_min_time(
            FlowTemplate.from_topology(topo, epoch.demand), epoch.demand
        )
        measured_io = epoch.io_seconds * epoch.num_steps
        # optimal routing can beat fair-share by a bit, never by 2x;
        # and it must not be wildly slower either
        assert pred.time < measured_io * 1.5
        assert pred.time > measured_io * 0.4


class TestEndToEndStory:
    """The paper's pitch as one test: optimize, then beat the baseline."""

    def test_moment_pipeline(self, machine, dataset, moment_result):
        assert moment_result.ok
        plan = moment_result.plan
        # the automatic module searched a pruned space
        assert plan.num_unique <= plan.num_candidates
        # DDAK filled the caches with the hottest vertices
        occ = moment_result.data_placement.occupancy(dataset.feature_bytes)
        assert occ["gpu:all"] > 0.9
        # throughput is positive and the fabric moved real bytes
        assert moment_result.epoch.throughput_bytes_per_s > 1e9

    def test_moment_vs_contended_layout(self, machine, dataset, moment_result):
        layout_b = classic_layouts(machine, num_gpus=2, num_ssds=4)["b"]
        contended = MomentSystem(machine).run(
            RunSpec(
                dataset=dataset,
                placement=layout_b,
                num_gpus=2,
                num_ssds=4,
                sample_batches=3,
            )
        )
        assert moment_result.seeds_per_s > contended.seeds_per_s


class TestProperties:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_enumeration_counts_consistent(self, n_gpu, n_ssd):
        """Enumerated placements always carry the requested device pool."""
        from repro.core.placement import enumerate_placements

        chassis = machine_a().chassis
        for p in enumerate_placements(chassis, n_gpu, n_ssd):
            assert p.num_gpus == n_gpu
            assert p.num_ssds == n_ssd

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_min_completion_time_monotone_in_demand(self, demands):
        """More bytes can never finish faster."""
        machine = machine_a()
        topo = machine.build(classic_layouts(machine)["c"])
        gpus = topo.gpus()
        d1, d2 = TrafficDemand(), TrafficDemand()
        for i, nbytes in enumerate(demands):
            gpu = gpus[i % len(gpus)]
            d1.add("ssd0", gpu, nbytes)
            d2.add("ssd0", gpu, nbytes * 2)
        t1 = min_completion_time(topo, d1).time
        t2 = min_completion_time(topo, d2).time
        assert t2 >= t1 * 0.999


class TestClis:
    def test_hardware_cli(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.hardware", "a"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert "machine machine_a" in out.stdout

    def test_experiments_cli_lists(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert "fig10" in out.stdout

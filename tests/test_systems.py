"""Tests for the system runners: Moment, M-Hyperion, M-GIDS, DistDGL."""

import pytest

from repro.baselines.distdgl import DistDglSystem
from repro.baselines.mgids import MGidsSystem
from repro.baselines.mhyperion import MHyperionSystem
from repro.graphs.datasets import CLUEWEB, IGB_HOM, PAPER100M, UK_2014
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem, gpu_memory_budget

QUICK = 40  # extra scale factor so graphs stay test-sized


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def ig(machine):
    return IGB_HOM.build(scale=IGB_HOM.default_scale * QUICK, seed=0)


@pytest.fixture(scope="module")
def placement_c(machine):
    return classic_layouts(machine)["c"]


class TestGpuMemoryBudget:
    def test_fits_common_case(self, machine, ig):
        ledger = gpu_memory_budget(machine, ig, "graphsage", 4)
        assert ledger.free_bytes > 0
        assert "activations" in ledger.entries

    def test_extra_reservation_can_oom(self, machine, ig):
        from repro.simulator.memory import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            gpu_memory_budget(
                machine, ig, "graphsage", 4, extra={"huge": 100e9},
            )


class TestMomentSystem:
    def test_end_to_end(self, machine, ig):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, num_gpus=2, num_ssds=4, sample_batches=2)
        )
        assert r.ok
        assert r.system == "moment"
        assert r.paper_epoch_seconds > 0
        assert r.plan is not None
        assert r.placement.num_gpus == 2

    def test_fixed_placement(self, machine, ig, placement_c):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok
        assert r.placement == placement_c

    def test_repr(self, machine, ig, placement_c):
        r = MomentSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert "moment" in repr(r)


class TestMHyperion:
    def test_runs_with_binding(self, machine, ig, placement_c):
        r = MHyperionSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok
        # binding: every SSD demand entry must be a bound drive
        from repro.simulator.binding import static_ssd_binding

        topo = machine.build(placement_c)
        binding = static_ssd_binding(topo)
        for (b, g), _ in r.epoch.demand.entries.items():
            if b.startswith("ssd"):
                assert b in binding[g]

    def test_defaults_to_classic_layout_c(self, machine, ig, placement_c):
        r = MHyperionSystem(machine).run(RunSpec(dataset=ig, sample_batches=2))
        assert r.ok
        assert r.placement.as_tuple() == placement_c.as_tuple()

    def test_base_system_requires_placement(self, machine, ig):
        from repro.runtime.system import GnnSystem

        with pytest.raises(ValueError):
            GnnSystem(machine).run(RunSpec(dataset=ig, sample_batches=2))


class TestMGids:
    def test_runs_on_small_dataset(self, machine, ig, placement_c):
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=2)
        )
        assert r.ok

    @pytest.mark.parametrize("spec", [UK_2014, CLUEWEB])
    def test_oom_on_terabyte_features(self, machine, placement_c, spec):
        ds = spec.build(scale=spec.default_scale * QUICK, seed=0)
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ds, placement=placement_c, sample_batches=2)
        )
        assert not r.ok
        assert "page_cache_metadata" in (r.oom or "")

    def test_paper100m_fits(self, machine, placement_c):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = MGidsSystem(machine).run(
            RunSpec(dataset=ds, placement=placement_c, sample_batches=2)
        )
        assert r.ok


class TestDistDgl:
    def test_pa_runs(self):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert r.ok
        assert r.epoch_seconds > 0
        assert r.seeds_per_s > 0
        # CPU sampling should be the bottleneck stage (paper's claim)
        assert r.sample_seconds >= r.network_seconds * 0.5

    @pytest.mark.parametrize("spec", [IGB_HOM, UK_2014, CLUEWEB])
    def test_oom_on_big_datasets(self, spec):
        ds = spec.build(scale=spec.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert not r.ok

    def test_network_not_the_bottleneck(self):
        """Paper: observed 20 Gb/s peak on a 100 Gb/s network."""
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        r = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=2))
        assert r.network_seconds < r.sample_seconds


class TestComparisons:
    def test_moment_beats_binding_baseline(self, machine, ig, placement_c):
        # Moment searches its own placement; the baseline runs the best
        # classic layout with its static drive binding.
        moment = MomentSystem(machine).run(RunSpec(dataset=ig, sample_batches=3))
        hyperion = MHyperionSystem(machine).run(
            RunSpec(dataset=ig, placement=placement_c, sample_batches=3)
        )
        assert moment.seeds_per_s >= hyperion.seeds_per_s * 0.95

    def test_moment_beats_distdgl_on_pa(self, machine):
        ds = PAPER100M.build(scale=PAPER100M.default_scale * QUICK, seed=0)
        moment = MomentSystem(machine).run(
            RunSpec(dataset=ds, num_gpus=4, sample_batches=3)
        )
        dgl = DistDglSystem().run(RunSpec(dataset=ds, sample_batches=3))
        assert moment.ok and dgl.ok
        assert moment.seeds_per_s > dgl.seeds_per_s

"""Tests for fault injection (`repro.faults`) and degradation-aware
replanning."""

import numpy as np
import pytest

from repro import obs
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    GpuEvict,
    LinkDegrade,
    SsdFailure,
    SsdSlowdown,
    random_schedule,
    recovery_key,
)
from repro.graphs.datasets import IGB_HOM
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem

#: extra scale factor; x16 keeps 6 simulated steps so mid-epoch faults
#: (step 2) leave post-fault steps to observe recovery on
QUICK = 16


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def ig():
    return IGB_HOM.build(scale=IGB_HOM.default_scale * QUICK, seed=0)


@pytest.fixture(scope="module")
def placement_c(machine):
    return classic_layouts(machine)["c"]


@pytest.fixture(scope="module")
def base_spec(ig, placement_c):
    return RunSpec(dataset=ig, placement=placement_c, sample_batches=6)


def _epoch_fingerprint(result):
    e = result.epoch
    return (
        e.epoch_seconds,
        tuple(e.step_seconds),
        e.io_seconds,
        e.sample_seconds,
        e.compute_seconds,
        e.local_bytes,
        e.external_bytes,
    )


class TestScheduleParse:
    def test_parse_all_kinds(self):
        s = FaultSchedule.parse(
            "fail@4:ssd2;slow@2+3:ssd0:0.5;"
            "link@6:rc0-plx0:0.25;evict@3:gpu1:0.5"
        )
        kinds = [type(f) for f in s]
        assert kinds == [SsdFailure, SsdSlowdown, LinkDegrade, GpuEvict]
        slow = s.faults[1]
        assert (slow.step, slow.duration, slow.factor) == (2, 3, 0.5)
        link = s.faults[2]
        assert (link.src, link.dst) == ("rc0", "plx0")

    def test_long_aliases(self):
        s = FaultSchedule.parse("ssd_failure@1:ssd0;gpu_evict@2:gpu0:0.3")
        assert len(s) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "fail@:ssd0",
            "fail@2",
            "fail@2:ssd0:0.5",  # failure takes no parameter
            "warp@2:ssd0",  # unknown kind
            "slow@2:ssd0:1.5",  # factor out of (0, 1]
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.parse(bad)

    def test_active_and_activated(self):
        s = FaultSchedule.parse("slow@2+3:ssd0:0.5")
        assert [f.step for f in s.activated_at(2)] == [2]
        assert s.activated_at(3) == ()
        assert len(s.active_at(4)) == 1  # steps 2, 3, 4
        assert s.active_at(5) == ()

    def test_random_schedule_deterministic(self):
        a = random_schedule(["ssd0", "ssd1"], ["gpu0"], seed=7)
        b = random_schedule(["ssd0", "ssd1"], ["gpu0"], seed=7)
        assert a.describe() == b.describe()


class TestInjector:
    @pytest.fixture(scope="class")
    def topo(self, machine, placement_c):
        return machine.build(placement_c)

    def _capacities(self, topo):
        caps = {("egress", s): 6e9 for s in topo.ssds()}
        caps.update(
            {("link", link.src, link.dst): link.capacity
             for link in topo.links}
        )
        return caps

    def test_failed_drive_dropped_and_recovery_added(self, topo):
        caps = self._capacities(topo)
        inj = FaultInjector(
            topo, FaultSchedule.parse("fail@2:ssd0"), caps
        )
        healthy = inj.view(0)
        assert healthy.capacities == caps and not healthy.is_degraded
        view = inj.view(3)
        assert ("egress", "ssd0") not in view.capacities
        assert view.capacities[recovery_key("ssd0")] > 0
        assert "ssd0" in view.failed_ssds
        # max-min sharing requires strictly positive capacities
        assert all(v > 0 for v in view.capacities.values())

    def test_slowdown_scales_egress(self, topo):
        caps = self._capacities(topo)
        inj = FaultInjector(
            topo, FaultSchedule.parse("slow@1:ssd1:0.5"), caps
        )
        assert inj.view(1).capacities[("egress", "ssd1")] == pytest.approx(
            caps[("egress", "ssd1")] * 0.5
        )

    def test_link_degrade_scales_both_directions(self, topo):
        caps = self._capacities(topo)
        inj = FaultInjector(
            topo, FaultSchedule.parse("link@1:ssd0-plx0:0.25"), caps
        )
        view = inj.view(1)
        for key in (("link", "ssd0", "plx0"), ("link", "plx0", "ssd0")):
            assert view.capacities[key] == pytest.approx(caps[key] * 0.25)

    def test_unknown_target_rejected(self, topo):
        caps = self._capacities(topo)
        for spec in ("fail@1:ssd99", "link@1:ssd0-gpu99:0.5",
                     "evict@1:gpu99:0.5"):
            with pytest.raises(ValueError):
                FaultInjector(topo, FaultSchedule.parse(spec), caps)

    def test_mask_tracks_failures(self, topo):
        caps = self._capacities(topo)
        inj = FaultInjector(
            topo, FaultSchedule.parse("fail@2:ssd0"), caps
        )
        assert not inj.mask_at(0)
        mask = inj.mask_at(2)
        assert "ssd0" in mask.drop_nodes
        masked = mask.apply(topo)
        assert "ssd0" not in masked.ssds()


class TestEpochUnderFaults:
    def test_empty_schedule_reproduces_seed_path(self, machine, base_spec):
        """No faults (None) and an empty schedule are bit-identical."""
        plain = MomentSystem(machine).run(base_spec)
        empty = MomentSystem(machine).run(
            base_spec.replace(faults=FaultSchedule.empty())
        )
        assert _epoch_fingerprint(plain) == _epoch_fingerprint(empty)

    def test_same_schedule_is_deterministic(self, machine, base_spec):
        sched = FaultSchedule.parse("fail@2:ssd0;slow@3:ssd1:0.5")
        a = MomentSystem(machine).run(base_spec.replace(faults=sched))
        b = MomentSystem(machine).run(base_spec.replace(faults=sched))
        assert _epoch_fingerprint(a) == _epoch_fingerprint(b)

    @pytest.mark.parametrize(
        "spec",
        [
            "fail@2:ssd0",
            "slow@2:ssd0:0.3",
            "link@2:ssd0-plx0:0.25",
        ],
    )
    def test_each_class_degrades_throughput(self, machine, base_spec, spec):
        healthy = MomentSystem(machine).run(base_spec)
        faulty = MomentSystem(machine).run(
            base_spec.replace(faults=FaultSchedule.parse(spec))
        )
        assert faulty.epoch.epoch_seconds > healthy.epoch.epoch_seconds
        # pre-fault steps are untouched
        assert faulty.epoch.step_seconds[0] == healthy.epoch.step_seconds[0]

    def test_evict_moves_traffic_off_cache(self, machine, base_spec):
        """Eviction re-routes local cache hits over the fabric.

        On this configuration the extra CPU-bank reads never cross the
        binding min cut (the SSD tier gates I/O with wide slack on the
        memory side), so epoch time is unchanged — the observable effect
        of the fault is the traffic shift, and throughput must not
        *improve* beyond float noise.
        """
        healthy = MomentSystem(machine).run(base_spec)
        faulty = MomentSystem(machine).run(
            base_spec.replace(faults=FaultSchedule.parse("evict@2:gpu0:0.5"))
        )
        assert faulty.epoch.local_bytes < healthy.epoch.local_bytes
        assert faulty.epoch.external_bytes > healthy.epoch.external_bytes
        assert faulty.epoch.epoch_seconds >= healthy.epoch.epoch_seconds * (
            1.0 - 1e-12
        )
        # pre-fault steps are untouched
        assert faulty.epoch.step_seconds[0] == healthy.epoch.step_seconds[0]

    def test_transient_fault_clears(self, machine, base_spec):
        faulty = MomentSystem(machine).run(
            base_spec.replace(faults=FaultSchedule.parse("slow@1+2:ssd0:0.3"))
        )
        steps = faulty.epoch.step_seconds
        assert steps[1] > steps[0]  # degraded
        assert steps[4] == pytest.approx(steps[0], rel=0.2)  # recovered

    def test_counters_exported(self, machine, base_spec):
        with obs.capture() as tel:
            MomentSystem(machine).run(
                base_spec.replace(faults=FaultSchedule.parse("fail@2:ssd0"))
            )
        counters = tel.snapshot()["metrics"]["counters"]
        assert any(k.startswith("faults.injected") for k in counters)
        assert any(k.startswith("io.retries") for k in counters)


class TestReplan:
    def test_replan_recovers_throughput(self, machine, base_spec):
        sched = FaultSchedule.parse("fail@2:ssd0")
        healthy = MomentSystem(machine).run(base_spec)
        static = MomentSystem(machine).run(base_spec.replace(faults=sched))
        replan = MomentSystem(machine).run(
            base_spec.replace(faults=sched, replan=True)
        )
        h = healthy.epoch.step_seconds[-1]
        assert static.replan is None
        rep = replan.replan
        assert rep is not None and rep.recovered
        assert rep.time_to_recover_s is not None
        assert len(rep.events) == 1
        assert rep.migrated_bytes > 0
        # acceptance bar: replan >= 80% of healthy steady state,
        # static below it
        assert h / replan.epoch.step_seconds[-1] >= 0.8
        assert h / static.epoch.step_seconds[-1] < 0.8

    def test_replanned_placement_avoids_failed_drive(self, machine, base_spec):
        sched = FaultSchedule.parse("fail@2:ssd0")
        replan = MomentSystem(machine).run(
            base_spec.replace(faults=sched, replan=True)
        )
        names = [b.name for b in replan.data_placement.bins]
        # the *initial* placement still names ssd0 (it was healthy at
        # planning time); the migrated placement must not
        assert "ssd0" in names
        counts = np.bincount(
            replan.data_placement.bin_of,
            minlength=len(names),
        )
        # SystemResult keeps the original placement; the swap happened
        # inside the simulator — verify via the replan event instead
        assert replan.replan.events[0].moved_vertices > 0
        assert counts.sum() == replan.data_placement.bin_of.size

    def test_replan_request_states_the_scored_pool(
        self, machine, base_spec, placement_c, monkeypatch
    ):
        """The masked re-search scores the current, unmasked placement
        (4 GPUs / 8 SSDs) on the surviving fabric: its request states
        that placement's pool and one worker (a single candidate is
        never worth a pool, whatever ``REPRO_SEARCH_WORKERS`` says), and
        its prediction is the solve on the masked topology.  That
        topology is turned into a flow template exactly once, for the
        candidate's pass-1 score, and the replan makes no other solve;
        DDAK's bins are built on the topology the search scored."""
        from repro.core.flowmodel import FlowTemplate, min_completion_time
        from repro.core.search import scoring_demand
        from repro.hardware.fabric import topology_fingerprint
        from repro.runtime import replan as replan_module

        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "2")
        calls = []
        run_search = replan_module.run_search

        def recording(request):
            calls.append((request, run_search(request)))
            return calls[-1][1]

        templates = []
        from_topology = FlowTemplate.from_topology

        def counting(topo, demand):
            templates.append(topo)
            return from_topology(topo, demand)

        seen = {}
        replan = replan_module.ReplanPolicy._replan

        def spying(policy, step, view, mask):
            seen["healthy"] = policy.sim.topo
            return replan(policy, step, view, mask)

        make_bins = replan_module.make_bins

        def binning(topo, **kwargs):
            seen["bins"] = topo
            return make_bins(topo, **kwargs)

        monkeypatch.setattr(replan_module, "run_search", recording)
        monkeypatch.setattr(replan_module, "make_bins", binning)
        monkeypatch.setattr(replan_module.ReplanPolicy, "_replan", spying)
        monkeypatch.setattr(
            FlowTemplate, "from_topology", staticmethod(counting)
        )
        sched = FaultSchedule.parse("ssd_failure@2:ssd0")
        result = MomentSystem(machine).run(
            base_spec.replace(faults=sched, replan=True)
        )
        assert len(result.replan.events) == 1
        (request, search), = calls
        assert request.workers == 1 and search.workers == 1
        assert (request.num_gpus, request.num_ssds) == (4, 8)
        (candidate,) = request.candidates
        assert candidate.as_tuple() == placement_c.as_tuple()
        masked = request.mask.apply(machine.build(candidate))
        (template_topo,) = templates
        assert topology_fingerprint(template_topo) == topology_fingerprint(
            masked
        )
        assert seen["bins"] is search.topology
        assert topology_fingerprint(search.topology) == topology_fingerprint(
            request.mask.apply(seen["healthy"])
        )
        expected = min_completion_time(
            masked, scoring_demand(masked, request.fractions)
        )
        assert search.best.prediction == expected

    def test_replan_config_has_no_search_workers(self):
        """The replan's search always runs inline: no worker setting."""
        from repro.runtime.replan import ReplanConfig

        with pytest.raises(TypeError):
            ReplanConfig(search_workers=2)

    def test_replan_requires_faults(self, ig, placement_c):
        with pytest.raises(ValueError):
            RunSpec(
                dataset=ig,
                placement=placement_c,
                replan=True,
            )

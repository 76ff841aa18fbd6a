"""Tests for the automatic module (MomentOptimizer) and the
multicommodity predictor."""

import numpy as np
import pytest

from repro.core.ddak import GPU_REPLICATED
from repro.core.flowmodel import TrafficDemand, min_completion_time
from repro.core.mcmf import multicommodity_min_time
from repro.core.optimizer import (
    MomentOptimizer,
    OptimizerConfig,
    capacity_plan,
    tier_fractions,
)
from repro.core.placement import GPU, Placement, SSD
from repro.core.search import concrete_demand, run_search, scoring_demand
from repro.graphs.datasets import IGB_HOM, tiny_dataset
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from repro.utils.units import GB


@pytest.fixture(scope="module")
def dataset():
    # small IG stand-in so capacity maths uses paper specs
    return IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)


@pytest.fixture(scope="module")
def machine():
    return machine_a()


@pytest.fixture(scope="module")
def optimizer(machine):
    return MomentOptimizer(machine, num_gpus=2, num_ssds=4)


@pytest.fixture(scope="module")
def plan(optimizer, dataset):
    return optimizer.optimize(dataset)


class TestCapacityPlan:
    def test_budgets_positive_and_scaled(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        assert plan.gpu_cache_bytes > 0
        assert plan.cpu_cache_bytes > 0
        assert plan.ssd_capacity_bytes > 0
        # scaled: far below the physical sizes
        assert plan.gpu_cache_bytes < machine.gpu.hbm_bytes

    def test_cpu_cache_is_one_percent_rule(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        spec = dataset.spec
        target = 0.01 * spec.num_vertices * spec.feature_bytes / 2
        assert plan.cpu_cache_bytes == pytest.approx(
            dataset.scaled_capacity(target), rel=1e-6
        )

    def test_fraction_validation(self, machine, dataset):
        with pytest.raises(ValueError):
            capacity_plan(machine, dataset, gpu_cache_fraction=1.5)


class TestTierFractions:
    def test_sum_to_one(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        h = np.random.default_rng(0).random(dataset.graph.num_vertices)
        f = tier_fractions(h, dataset.feature_bytes, plan, 4)
        assert sum(f) == pytest.approx(1.0)
        assert all(x >= 0 for x in f)

    def test_skew_raises_gpu_fraction(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        n = dataset.graph.num_vertices
        uniform = np.ones(n)
        skewed = (np.arange(1, n + 1)) ** -1.0
        f_u = tier_fractions(uniform, dataset.feature_bytes, plan, 4)
        f_s = tier_fractions(skewed, dataset.feature_bytes, plan, 4)
        assert f_s[0] > f_u[0]

    def test_partitioned_policy_caches_more(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        h = (np.arange(1, dataset.graph.num_vertices + 1)) ** -0.8
        f_rep = tier_fractions(h, dataset.feature_bytes, plan, 4)
        f_part = tier_fractions(
            h, dataset.feature_bytes, plan, 4, gpu_cache_policy="partitioned"
        )
        assert f_part[0] > f_rep[0]

    def test_zero_hotness(self, machine, dataset):
        plan = capacity_plan(machine, dataset)
        f = tier_fractions(
            np.zeros(dataset.graph.num_vertices), dataset.feature_bytes, plan, 4
        )
        assert f == (0.0, 0.0, 1.0)


class TestScoringDemands:
    def test_replicated_has_no_peer_entries(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = scoring_demand(topo, (0.5, 0.2, 0.3))
        assert not any(":mem" in b for (b, _) in d.entries)

    def test_partitioned_has_peer_entries(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = scoring_demand(
            topo, (0.5, 0.2, 0.3), gpu_cache_policy="partitioned"
        )
        assert any(":mem" in b for (b, _) in d.entries)

    def test_concrete_fans_out_to_all_gpus(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        d = concrete_demand(topo, (0.0, 0.0, 1.0), {})
        gpus = set(topo.gpus())
        for ssd in topo.ssds():
            assert {g for (b, g) in d.entries if b == ssd} == gpus


class TestMulticommodity:
    def test_matches_capacity_on_line(self):
        from repro.core.topology import NodeKind, Topology

        t = Topology()
        t.add("rc", NodeKind.ROOT_COMPLEX)
        t.add("gpu0", NodeKind.GPU)
        t.add("ssd0", NodeKind.SSD, egress_bw=6 * GB)
        t.add_link("ssd0", "rc", 6 * GB)
        t.add_link("gpu0", "rc", 24 * GB)
        d = TrafficDemand()
        d.add("ssd0", "gpu0", 6 * GB)
        pred = multicommodity_min_time(t, d)
        assert pred.time == pytest.approx(1.0, rel=1e-3)
        assert pred.throughput == pytest.approx(6 * GB, rel=1e-3)

    def test_never_exceeds_single_commodity(self, machine):
        """The LP (exact) can't beat the single-commodity relaxation."""
        topo = machine.build(classic_layouts(machine)["c"])
        d = concrete_demand(topo, (0.0, 0.1, 0.9), {})
        lp = multicommodity_min_time(topo, d)
        sc = min_completion_time(topo, d)
        assert lp.time >= sc.time * 0.999

    def test_rejects_class_demand(self, machine):
        from repro.core.flowmodel import SSD_CLASS

        topo = machine.build(classic_layouts(machine)["c"])
        d = TrafficDemand()
        d.add(SSD_CLASS, "gpu0", 1e9)
        with pytest.raises(ValueError):
            multicommodity_min_time(topo, d)

    def test_zero_demand(self, machine):
        topo = machine.build(classic_layouts(machine)["c"])
        pred = multicommodity_min_time(topo, TrafficDemand())
        assert pred.time == 0.0

    def test_utilisation_bounded(self, machine):
        topo = machine.build(classic_layouts(machine)["b"])
        d = concrete_demand(topo, (0.0, 0.0, 1.0), {})
        pred = multicommodity_min_time(topo, d)
        assert pred.utilisation
        assert all(0 <= u <= 1.0 for u in pred.utilisation.values())
        assert pred.bottlenecks()  # something saturates at the optimum


class TestOptimizer:
    def test_plan_structure(self, plan, optimizer):
        assert plan.placement.num_gpus == 2
        assert plan.placement.num_ssds == 4
        assert plan.num_candidates >= plan.num_unique >= 1
        assert plan.predicted_throughput > 0
        assert plan.data_placement is not None
        plan.data_placement.validate(4096)
        assert GPU_REPLICATED in [b.name for b in plan.data_placement.bins]

    def test_scored_sorted_desc(self, plan):
        scores = [s.throughput for s in plan.scored]
        assert scores == sorted(scores, reverse=True)

    def test_winner_at_least_matches_classics(self, optimizer, plan, dataset):
        for key, p in classic_layouts(
            optimizer.machine, num_gpus=2, num_ssds=4
        ).items():
            sc = run_search(optimizer.search_request(plan.fractions, [p])).best
            assert plan.predicted_throughput >= sc.throughput * 0.999, key

    def test_fixed_candidate_restricts_search(self, optimizer, dataset):
        p = classic_layouts(optimizer.machine, num_gpus=2, num_ssds=4)["c"]
        plan = optimizer.optimize(dataset, candidates=[p])
        assert plan.placement == p
        assert plan.num_unique == 1

    def test_summary_renders(self, plan):
        text = plan.summary()
        assert "predicted throughput" in text
        assert "search space" in text

    def test_invalid_pool(self, machine):
        with pytest.raises(ValueError):
            MomentOptimizer(machine, num_gpus=0, num_ssds=4)

    def test_infeasible_pool_raises(self, dataset):
        m = machine_a()
        opt = MomentOptimizer(m, num_gpus=4, num_ssds=8)
        with pytest.raises(ValueError):
            # 30 GPUs never fit
            MomentOptimizer(m, num_gpus=30, num_ssds=1).optimize(dataset)

    def test_hotness_smoothing_covers_all_vertices(self, optimizer, dataset):
        h = optimizer.estimate_hotness(dataset)
        assert h.shape == (dataset.graph.num_vertices,)
        assert (h > 0).all()  # degree-proxy smoothing: no zero ties


class TestOneDdakPerRun:
    """A system run places data once; the plan's placement is lazy."""

    @pytest.fixture()
    def ddak_calls(self, monkeypatch):
        import repro.core.ddak as ddak
        import repro.core.optimizer as optimizer_mod
        import repro.runtime.adaptive as adaptive
        import repro.runtime.system as system

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return ddak.ddak_place(*args, **kwargs)

        for module in (optimizer_mod, system, adaptive):
            monkeypatch.setattr(module, "ddak_place", counting)
        return calls

    @pytest.fixture(scope="class")
    def small_ig(self):
        # x16 leaves 6 steps, so a step-2 failure is replanned mid-epoch
        return IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=0)

    def _run(self, machine, spec):
        from repro.api import run
        from repro.runtime.system import MomentSystem

        return run(MomentSystem(machine), spec)

    def test_fixed_placement_places_once(self, machine, small_ig, ddak_calls):
        from repro.runtime.spec import RunSpec

        spec = RunSpec(
            dataset=small_ig,
            placement=classic_layouts(machine)["c"],
            sample_batches=6,
        )
        result = self._run(machine, spec)
        assert len(ddak_calls) == 1
        assert result.data_placement.bins == ddak_calls[0]

    def test_replan_places_twice(self, machine, small_ig, ddak_calls):
        from repro.faults import FaultSchedule
        from repro.runtime.spec import RunSpec

        spec = RunSpec(
            dataset=small_ig,
            placement=classic_layouts(machine)["c"],
            sample_batches=6,
            faults=FaultSchedule.parse("ssd_failure@2:ssd0"),
            replan=True,
        )
        result = self._run(machine, spec)
        assert result.replan is not None and result.replan.events
        assert len(ddak_calls) == 2

    def test_searched_plan_places_once(self, machine, ddak_calls):
        from repro.runtime.spec import RunSpec

        spec = RunSpec(
            dataset=tiny_dataset(
                num_vertices=2000, avg_degree=6, batch_size=64, seed=0
            ),
            num_gpus=2,
            num_ssds=2,
            sample_batches=2,
        )
        result = self._run(machine, spec)
        assert result.plan is not None
        assert len(ddak_calls) == 1

    def test_lazy_placement_equals_eager_ddak(self, plan, dataset, ddak_calls):
        import dataclasses

        from repro.core.ddak import ddak_place

        fresh = dataclasses.replace(plan)  # nothing computed yet
        assert not ddak_calls
        lazy = fresh.data_placement
        assert fresh.data_placement is lazy  # computed once
        assert len(ddak_calls) == 1
        eager = ddak_place(
            plan.bins, plan.hotness, dataset.feature_bytes, pool_size=100
        )
        assert np.array_equal(lazy.bin_of, eager.bin_of)
        assert lazy.bins == eager.bins and lazy.method == eager.method

    def test_ddak_error_raises_on_first_read(self, plan):
        import dataclasses

        from repro.core.ddak import TIER_SSD, Bin

        cramped = dataclasses.replace(
            plan, bins=[Bin("ssd0", TIER_SSD, 1.0, 1e9)]
        )
        with pytest.raises(ValueError, match="dataset needs"):
            cramped.data_placement


class TestOneWinnerBuildPerRun:
    """A searched run simulates on the winner's topology as pass 2
    built it: neither ``optimize`` nor the run builds it again."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        from repro.hardware.machines import MachineSpec

        built = []
        build = MachineSpec.build

        def counting(self, *args, **kwargs):
            topo = build(self, *args, **kwargs)
            built.append(topo)
            return topo

        monkeypatch.setattr(MachineSpec, "build", counting)
        return built

    def _run(self, machine, dataset, **system_kwargs):
        from repro.api import run
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        spec = RunSpec(
            dataset=dataset,
            placement=classic_layouts(machine)["c"],
            sample_batches=2,
        )
        return run(MomentSystem(machine, **system_kwargs), spec)

    def test_run_reuses_the_plan_topology(self, machine, dataset, builds):
        result = self._run(machine, dataset)
        # the search's one LP build is the plan's topology
        assert result.plan.search.num_lp_scored == 1
        assert len(builds) == 1
        assert builds[-1] is result.plan.topology

    def test_other_nvlink_pairs_rebuild(self, machine, dataset, builds):
        from repro.hardware.fabric import fabric_summary

        cfg = OptimizerConfig(nvlink_pairs=((0, 1),))
        result = self._run(machine, dataset, optimizer_config=cfg)
        assert result.plan.nvlink_pairs == ((0, 1),)
        assert len(builds) == 2
        # the run simulates the spec's fabric (no NVLink), not the plan's
        assert builds[-1] is not result.plan.topology
        planned = fabric_summary(machine, result.plan.topology)
        assert result.fabric["links"] < planned["links"]

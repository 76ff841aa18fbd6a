"""Tests for the staged placement-search engine (repro.core.search).

The load-bearing guarantee is *equivalence*: the batched, parallel,
funnelled engine must reproduce the pre-engine serial path — enumerate
everything, dedupe, pass-1 score everything, stable-sort, LP the top
``lp_top_k``, stable-sort — bit for bit.  ``_reference_search`` below
implements that original recipe directly and every equivalence test
compares the engine against it.
"""

import dataclasses
import gc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs

from repro.core.flowmodel import FlowTemplate, min_completion_time
from repro.core.optimizer import (
    CapacityPlan,
    MomentOptimizer,
    OptimizerConfig,
    tier_fractions,
)
from repro.core.placement import (
    Chassis,
    SlotGroup,
    count_placements,
    enumerate_placements,
    iter_placements,
)
from repro.core.search import (
    PASS1_BATCH,
    FlexibleMaxFlowScorer,
    MulticommodityScorer,
    ParallelExecutor,
    ScoredPlacement,
    SearchRequest,
    default_batch_size,
    default_prune_bounds,
    default_warm_starts,
    default_workers,
    run_search,
    scoring_demand,
    set_default_workers,
)
from repro.core.symmetry import (
    iter_canonical_placements,
    slot_group_symmetries,
)
from repro.core.topology import NodeKind, TopologyMask
from repro.graphs.datasets import IGB_HOM
from repro.hardware.fabric import compile_fabric
from repro.hardware.generate import generate_fabric
from repro.hardware.machines import MachineSpec, machine_a, machine_b
from tests.oracles import (
    CanonicalFilter,
    bisect_min_completion_time,
    canonical_key,
    dedupe_placements,
)

FRACTIONS = (0.35, 0.15, 0.5)
LP_TOP_K = 12
TOP_K = 5

#: How closely the engine (cut-parametric pass 1) and the legacy
#: pipeline (bisection pass 1 at ``rel_tol=1e-4``) must agree on the
#: winning exact throughput: the bisection's slack shifts the pass-2
#: demand split, and the LP then lands within solver noise.
KERNEL_EQUIV_TOL = 1e-3

CONFIGS = [
    (machine_a, 2, 4),
    (machine_a, 4, 4),
    (machine_b, 2, 4),
    (machine_b, 4, 4),
]


def _reference_search(machine, num_gpus, num_ssds, fractions,
                      lp_top_k=LP_TOP_K, top_k=TOP_K):
    """The pre-engine serial recipe, reimplemented verbatim.

    Fully materialised enumeration, batch dedupe, pass-1 on every unique
    candidate, stable descending sort, pass-2 LP on the top ``lp_top_k``,
    stable descending sort.  Returns (ranked rows, num_candidates,
    num_unique).
    """
    candidates = enumerate_placements(machine.chassis, num_gpus, num_ssds)
    unique = dedupe_placements(candidates, machine.chassis)
    exact = MulticommodityScorer(fractions=fractions)
    pass1 = []
    for placement in unique:
        topo = machine.build(placement)
        demand = scoring_demand(topo, fractions)
        pass1.append((placement, topo, min_completion_time(topo, demand)))
    pass1.sort(key=lambda row: -row[2].throughput)  # stable: ties keep order
    rows = []
    for placement, topo, p1 in pass1[:lp_top_k]:
        mcf = exact.score(topo, placement, p1)
        rows.append(ScoredPlacement(placement, mcf.throughput, p1, mcf))
    rows.sort(key=lambda row: -row.throughput)  # stable
    return rows[:top_k], len(candidates), len(unique)


def _request(machine, num_gpus, num_ssds, **overrides):
    base = dict(
        machine=machine,
        num_gpus=num_gpus,
        num_ssds=num_ssds,
        fractions=FRACTIONS,
        lp_top_k=LP_TOP_K,
        top_k=TOP_K,
        workers=1,
    )
    base.update(overrides)
    return SearchRequest(**base)


def _ranking(scored):
    return [(row.placement.as_tuple(), row.throughput) for row in scored]


@pytest.fixture()
def stage_calls(monkeypatch):
    """Every ``ParallelExecutor.run_stage`` call, as ``(stage, items,
    chunk_size)``."""
    calls = []
    run_stage = ParallelExecutor.run_stage

    def recording(self, stage, items, chunk_size):
        items = list(items)
        calls.append((stage, len(items), chunk_size))
        return run_stage(self, stage, items, chunk_size)

    monkeypatch.setattr(ParallelExecutor, "run_stage", recording)
    return calls


class TestEquivalence:
    """Engine == pre-engine serial path, on machines A and B, 2 & 4 GPUs."""

    @pytest.mark.parametrize("make_machine,num_gpus,num_ssds", CONFIGS)
    def test_matches_reference(self, make_machine, num_gpus, num_ssds):
        machine = make_machine()
        ref_rows, ref_candidates, ref_unique = _reference_search(
            machine, num_gpus, num_ssds, FRACTIONS
        )
        result = run_search(_request(machine, num_gpus, num_ssds))
        assert result.num_candidates == ref_candidates
        assert result.num_unique == ref_unique
        # same winner: placement and exact throughput
        assert result.best.placement.as_tuple() == ref_rows[0].placement.as_tuple()
        assert result.best.throughput == ref_rows[0].throughput
        # same top-k ordering, placement by placement
        assert _ranking(result.scored) == _ranking(ref_rows)

    def test_parallel_matches_serial(self):
        machine = machine_b()
        serial = run_search(_request(machine, 2, 4))
        parallel = run_search(_request(machine, 2, 4, workers=2))
        assert parallel.workers == 2
        assert _ranking(parallel.scored) == _ranking(serial.scored)
        assert parallel.num_candidates == serial.num_candidates
        assert parallel.num_unique == serial.num_unique

    def test_pool_runs_pass1_as_one_stage(self, stage_calls):
        """Pass 1 reaches the pool as one ``"coarse"`` stage cut into
        ``PASS1_BATCH`` chunks, so every batch is submitted before any
        is awaited, and the ranking is still the serial one."""
        machine = machine_b()
        serial = run_search(_request(machine, 2, 4))
        stage_calls.clear()
        parallel = run_search(_request(machine, 2, 4, workers=2))
        coarse = [call for call in stage_calls if call[0] == "coarse"]
        assert parallel.num_unique > PASS1_BATCH
        assert coarse == [("coarse", parallel.num_unique, PASS1_BATCH)]
        assert parallel.num_batches == -(-parallel.num_unique // PASS1_BATCH)
        assert _ranking(parallel.scored) == _ranking(serial.scored)
        assert parallel.best.throughput == serial.best.throughput

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pass2_scores_every_finalist_in_one_stage(
        self, stage_calls, workers
    ):
        """Pass 2 LP-scores every finalist in one ``"exact"`` stage cut
        into one chunk per worker, and any worker count ranks the same.
        Machine B 2/4 has finalists whose pass-1 bound cannot beat the
        top-k exact floor; they are scored all the same."""
        machine = machine_b()
        serial = run_search(_request(machine, 2, 4))
        stage_calls.clear()
        result = run_search(_request(machine, 2, 4, workers=workers))
        n = min(LP_TOP_K, result.num_unique)
        assert result.num_lp_scored == n
        exact = [call for call in stage_calls if call[0] == "exact"]
        assert exact == [("exact", n, -(-n // workers))]
        assert _ranking(result.scored) == _ranking(serial.scored)
        assert result.best.throughput == serial.best.throughput

    def test_pruning_settings_are_gone(self):
        machine = machine_b()
        with pytest.raises(TypeError):
            SearchRequest(
                machine=machine, num_gpus=2, num_ssds=4,
                fractions=FRACTIONS, prune_bounds=True,
            )
        with pytest.raises(TypeError):
            OptimizerConfig(prune_bounds=True)
        assert default_prune_bounds() is False


class TestStreamingSource:
    @pytest.mark.parametrize("make_machine", [machine_a, machine_b])
    def test_incremental_dedupe_matches_batch(self, make_machine):
        machine = make_machine()
        streamed = list(iter_canonical_placements(machine.chassis, 2, 4))
        batch = dedupe_placements(
            enumerate_placements(machine.chassis, 2, 4), machine.chassis
        )
        assert [p.as_tuple() for p in streamed] == [
            p.as_tuple() for p in batch
        ]
        assert count_placements(machine.chassis, 2, 4) == len(
            enumerate_placements(machine.chassis, 2, 4)
        )

    def test_infeasible_request_raises(self):
        machine = machine_a()
        with pytest.raises(ValueError, match="no feasible placement"):
            run_search(_request(machine, 64, 64))


class TestNoTopologyRetention:
    """The engine keeps nothing per candidate beyond its prediction:
    pass 1 scores every candidate over one chassis network without
    building a topology, and pass 2 builds its finalists."""

    def _traced_search(self, monkeypatch):
        machine = machine_a()
        built = []
        alive_at_pass2 = []
        build, score = MachineSpec.build, MulticommodityScorer.score

        def traced_build(self, *args, **kwargs):
            topo = build(self, *args, **kwargs)
            built.append(weakref.ref(topo))
            return topo

        def traced_score(self, topo, placement, prior=None):
            if not alive_at_pass2:
                gc.collect()
                live = [ref() for ref in built]
                alive_at_pass2.append(
                    sum(t is not None and t is not topo for t in live)
                )
            return score(self, topo, placement, prior)

        monkeypatch.setattr(MachineSpec, "build", traced_build)
        monkeypatch.setattr(MulticommodityScorer, "score", traced_score)
        result = run_search(_request(machine, 2, 4))
        return result, built, alive_at_pass2

    def test_pass1_topologies_released_before_pass2(self, monkeypatch):
        result, _built, alive_at_pass2 = self._traced_search(monkeypatch)
        assert result.num_unique > 1
        assert alive_at_pass2[0] <= 1

    def test_pass1_builds_nothing_and_pass2_builds_each_lp(self, monkeypatch):
        builds = []
        build = MachineSpec.build
        score_batch = FlexibleMaxFlowScorer.score_batch
        stage = ["other"]

        def traced_build(self, *args, **kwargs):
            builds.append(stage[0])
            return build(self, *args, **kwargs)

        def traced_score_batch(self, *args, **kwargs):
            stage[0] = "pass1"
            try:
                return score_batch(self, *args, **kwargs)
            finally:
                stage[0] = "other"

        monkeypatch.setattr(MachineSpec, "build", traced_build)
        monkeypatch.setattr(
            FlexibleMaxFlowScorer, "score_batch", traced_score_batch
        )
        result = run_search(_request(machine_a(), 2, 4))
        assert result.num_lp_scored > 0
        assert builds.count("pass1") == 0
        assert len(builds) == result.num_lp_scored


class TestKnobDefaults:
    def test_set_default_workers_roundtrip(self):
        try:
            set_default_workers(3)
            assert default_workers() == 3
        finally:
            set_default_workers(None)
        assert default_workers() >= 1

    def test_pass1_defaults_are_constants(self):
        """Batch size and warm starts are fixed, not knobs: identical
        batches for every worker count is a determinism requirement,
        and warm and cold solves agree exactly."""
        assert default_batch_size() == PASS1_BATCH == 32
        assert default_warm_starts() is True


@pytest.fixture(scope="module")
def dataset():
    return IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)


class TestOptimizerIntegration:
    def test_optimize_carries_search_result(self, dataset):
        opt = MomentOptimizer(machine_a(), num_gpus=2, num_ssds=4)
        plan = opt.optimize(dataset)
        assert plan.search is not None
        assert plan.search.num_candidates == plan.num_candidates
        assert plan.search.num_unique == plan.num_unique
        assert plan.search.best.throughput == plan.predicted_throughput

    def test_summary_labels_ranking_pass(self, dataset):
        opt = MomentOptimizer(machine_a(), num_gpus=2, num_ssds=4)
        plan = opt.optimize(dataset)
        text = plan.summary()
        assert "pass-2 multicommodity LP" in text
        assert "search engine: workers=" in text
        downgraded = dataclasses.replace(plan, mcf=None, search=None)
        assert "pass-1 max-flow" in downgraded.summary()


class TestTierFractionGuards:
    def _plan(self):
        return CapacityPlan(
            gpu_cache_bytes=1e9, cpu_cache_bytes=1e9,
            ssd_capacity_bytes=1e10,
        )

    def test_zero_feature_bytes_raises(self):
        with pytest.raises(ValueError, match="feature_bytes"):
            tier_fractions(np.ones(100), 0, self._plan(), num_gpus=2)

    def test_negative_feature_bytes_raises(self):
        with pytest.raises(ValueError, match="feature_bytes"):
            tier_fractions(np.ones(100), -4, self._plan(), num_gpus=2)

    def test_empty_hotness_raises(self):
        with pytest.raises(ValueError, match="hotness"):
            tier_fractions(np.array([]), 4, self._plan(), num_gpus=2)


# ---------------------------------------------------------------------------
# Differential equivalence harness: vectorized engine vs the legacy kernel
# ---------------------------------------------------------------------------


def _gen_machine(seed):
    return compile_fabric(generate_fabric(seed))


#: Fabrics for the differential harness: both hand-built machines plus
#: twelve fuzzer-generated ones.  The bigger generated fabrics run at a
#: (1, 2) pool so the scalar legacy-kernel reference stays fast; the
#: fabrics themselves are untouched.
DIFFERENTIAL_FABRICS = [
    ("machine_a", machine_a, (2, 4)),
    ("machine_b", machine_b, (2, 4)),
    ("gen:0", partial(_gen_machine, 0), (2, 2)),
    ("gen:1", partial(_gen_machine, 1), (2, 2)),
    ("gen:2", partial(_gen_machine, 2), (1, 2)),
    ("gen:3", partial(_gen_machine, 3), (2, 2)),
    ("gen:4", partial(_gen_machine, 4), (1, 2)),
    ("gen:5", partial(_gen_machine, 5), (2, 2)),
    ("gen:6", partial(_gen_machine, 6), (1, 2)),
    ("gen:7", partial(_gen_machine, 7), (2, 2)),
    ("gen:8", partial(_gen_machine, 8), (1, 2)),
    ("gen:9", partial(_gen_machine, 9), (1, 2)),
    ("gen:10", partial(_gen_machine, 10), (2, 2)),
    ("gen:11", partial(_gen_machine, 11), (2, 2)),
]


def _legacy_reference(machine, num_gpus, num_ssds, fractions,
                      lp_top_k=LP_TOP_K, top_k=TOP_K):
    """The pre-engine recipe with the *legacy bisection kernel* as pass 1.

    ``_reference_search`` above shares the vectorized kernel with the
    engine, so it checks pipeline equivalence only.  This variant
    reimplements pass 1 with :func:`bisect_min_completion_time` — the
    original scalar bisection solver, kept in ``tests/oracles.py`` —
    making it a true differential test of the cut-parametric kernel
    itself.  ``rel_tol=1e-4`` keeps the bisection slack well inside
    :data:`KERNEL_EQUIV_TOL`.
    """
    candidates = enumerate_placements(machine.chassis, num_gpus, num_ssds)
    unique = dedupe_placements(candidates, machine.chassis)
    exact = MulticommodityScorer(fractions=fractions)
    pass1 = []
    for placement in unique:
        topo = machine.build(placement)
        demand = scoring_demand(topo, fractions)
        pass1.append(
            (
                placement,
                topo,
                bisect_min_completion_time(topo, demand, rel_tol=1e-4),
            )
        )
    pass1.sort(key=lambda row: -row[2].throughput)  # stable
    rows = []
    for placement, topo, p1 in pass1[:lp_top_k]:
        mcf = exact.score(topo, placement, p1)
        rows.append(ScoredPlacement(placement, mcf.throughput, p1, mcf))
    rows.sort(key=lambda row: -row.throughput)  # stable
    return rows[:top_k], len(candidates), len(unique)


class TestDifferentialEquivalence:
    """run_search (direct canonical enumeration + batched cut-parametric
    kernel + warm-start chaining) against the legacy scalar pipeline."""

    @pytest.mark.parametrize(
        "name,make_machine,pool",
        DIFFERENTIAL_FABRICS,
        ids=[row[0] for row in DIFFERENTIAL_FABRICS],
    )
    def test_engine_matches_legacy_kernel(self, name, make_machine, pool):
        machine = make_machine()
        num_gpus, num_ssds = pool
        ref_rows, ref_candidates, ref_unique = _legacy_reference(
            machine, num_gpus, num_ssds, FRACTIONS
        )
        result = run_search(_request(machine, num_gpus, num_ssds))
        assert result.num_candidates == ref_candidates
        assert result.num_unique == ref_unique
        # agreeing objective, to the model-equivalence tolerance
        ref_best = ref_rows[0]
        rel = abs(result.best.throughput - ref_best.throughput) / (
            ref_best.throughput
        )
        assert rel <= KERNEL_EQUIV_TOL
        if result.best.placement.as_tuple() != ref_best.placement.as_tuple():
            # Some fabrics have an exact tie plateau at the optimum; the
            # two kernels may break it differently (LP solver noise is
            # larger than a zero-width tie).  The engine's pick must
            # then still be reference-optimal: rerun it through the
            # legacy pipeline and require the reference's own optimum.
            runner_up = ref_rows[1] if len(ref_rows) > 1 else None
            gap = (
                abs(ref_best.throughput - runner_up.throughput)
                / ref_best.throughput
                if runner_up is not None
                else 0.0
            )
            assert gap <= KERNEL_EQUIV_TOL, (
                "winner differs although the reference optimum is unique"
            )
            topo = machine.build(result.best.placement)
            p1 = bisect_min_completion_time(
                topo, scoring_demand(topo, FRACTIONS), rel_tol=1e-4
            )
            mcf = MulticommodityScorer(fractions=FRACTIONS).score(
                topo, result.best.placement, p1
            )
            tie_rel = abs(mcf.throughput - ref_best.throughput) / (
                ref_best.throughput
            )
            assert tie_rel <= KERNEL_EQUIV_TOL

    @pytest.mark.parametrize(
        "make_machine,pool",
        [
            (machine_a, (2, 4)),
            (machine_b, (2, 4)),
            (partial(_gen_machine, 7), (2, 2)),
        ],
        ids=["machine_a", "machine_b", "gen:7"],
    )
    def test_workers_do_not_change_selection(self, make_machine, pool):
        """Warm-start chaining is batch-local and batch boundaries are
        worker-independent, and each pool worker LP-scores on its own
        HiGHS instance, so any worker count picks the same plan — bit
        for bit."""
        machine = make_machine()
        one = run_search(_request(machine, *pool))
        two = run_search(_request(machine, *pool, workers=2))
        assert _ranking(two.scored) == _ranking(one.scored)
        assert two.best.throughput == one.best.throughput


# ---------------------------------------------------------------------------
# Property tests: direct canonical enumeration and batched pass-1 scoring
# ---------------------------------------------------------------------------


def _two_switch_chassis(units, bay_units, mirrored, tagged):
    """A root complex fanning out to two switches with slot groups.

    ``mirrored`` gives both sides identical trunks and slots, creating a
    nontrivial chassis automorphism; ``tagged`` breaks it again via an
    electrical-identity tag on one side — together they cover the
    symmetric, asymmetric-capacity, and asymmetric-tag regimes.
    """
    c = Chassis("hyp-two-switch")
    c.add_interconnect("rc0", NodeKind.ROOT_COMPLEX)
    c.add_interconnect("plx0", NodeKind.SWITCH)
    c.add_interconnect("plx1", NodeKind.SWITCH)
    c.add_trunk("rc0", "plx0", 32e9)
    c.add_trunk("rc0", "plx1", 32e9 if mirrored else 16e9)
    c.add_memory("mem0", "rc0", 512e9, 100e9)
    c.add_slot_group(SlotGroup("plx0.slots", "plx0", units, 16e9))
    c.add_slot_group(
        SlotGroup(
            "plx1.slots", "plx1", units, 16e9,
            tag="hetero" if tagged else "",
        )
    )
    c.add_slot_group(
        SlotGroup(
            "rc0.bays", "rc0", bay_units, 8e9,
            allowed=frozenset({"ssd"}),
        )
    )
    return c


class TestDirectEnumeratorProperties:
    @given(
        units=st.integers(min_value=2, max_value=6),
        bay_units=st.integers(min_value=1, max_value=4),
        mirrored=st.booleans(),
        tagged=st.booleans(),
        num_gpus=st.integers(min_value=0, max_value=3),
        num_ssds=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_equals_enumerate_then_filter(
        self, units, bay_units, mirrored, tagged, num_gpus, num_ssds
    ):
        """The direct enumerator yields exactly the placements the old
        enumerate-everything-then-CanonicalFilter pipeline admits, in
        the same order."""
        chassis = _two_switch_chassis(units, bay_units, mirrored, tagged)
        syms = slot_group_symmetries(chassis)
        direct = list(
            iter_canonical_placements(chassis, num_gpus, num_ssds, syms)
        )
        filt = CanonicalFilter(chassis)
        admitted = [
            p for p in iter_placements(chassis, num_gpus, num_ssds)
            if filt.admit(p) is not None
        ]
        assert [p.as_tuple() for p in direct] == [
            p.as_tuple() for p in admitted
        ]
        # one representative per orbit, and every orbit covered
        keys = [canonical_key(p, syms) for p in direct]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {
            canonical_key(p, syms)
            for p in iter_placements(chassis, num_gpus, num_ssds)
        }

    @given(
        units=st.integers(min_value=2, max_value=6),
        bay_units=st.integers(min_value=1, max_value=4),
        mirrored=st.booleans(),
        num_gpus=st.integers(min_value=0, max_value=3),
        num_ssds=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_placements_matches_enumeration(
        self, units, bay_units, mirrored, num_gpus, num_ssds
    ):
        """The counting DP agrees with brute-force enumeration — this is
        what keeps ``SearchResult.num_candidates`` honest without the
        engine ever materialising the raw space."""
        chassis = _two_switch_chassis(units, bay_units, mirrored, False)
        raw = sum(1 for _ in iter_placements(chassis, num_gpus, num_ssds))
        assert count_placements(chassis, num_gpus, num_ssds) == raw


class TestBatchScalarEquivalence:
    @given(
        machine_idx=st.integers(min_value=0, max_value=1),
        f_gpu=st.floats(min_value=0.0, max_value=0.8),
        f_cpu=st.floats(min_value=0.0, max_value=0.5),
        start=st.integers(min_value=0, max_value=20),
        take=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=8, deadline=None)
    def test_batched_pass1_equals_scalar_pass1(
        self, machine_idx, f_gpu, f_cpu, start, take
    ):
        """The batch kernel returns, element for element, exactly what
        the scalar kernel returns for each placement's topology alone —
        with the batch's warm-start chaining on."""
        machine = (machine_a, machine_b)[machine_idx]()
        total = f_gpu + f_cpu
        if total > 0.9:
            f_gpu, f_cpu = 0.9 * f_gpu / total, 0.9 * f_cpu / total
        fractions = (f_gpu, f_cpu, 1.0 - f_gpu - f_cpu)
        placements = list(iter_canonical_placements(machine.chassis, 2, 4))
        window = placements[start:start + take] or placements[:take]
        scorer = FlexibleMaxFlowScorer(fractions=fractions)
        network = scorer.network(machine, 2, 4)
        batch, _warm = scorer.score_batch(window, lambda p: network)
        for placement, batched in zip(window, batch):
            topo = machine.build(placement, validate=False)
            solo = min_completion_time(topo, scoring_demand(topo, fractions))
            assert batched.time == solo.time
            assert batched.throughput == solo.throughput
            assert batched.storage_rate == solo.storage_rate
            assert batched.per_gpu_rate == solo.per_gpu_rate


# ---------------------------------------------------------------------------
# Chassis network: pass 1 over one network per search == per-topology solves
# ---------------------------------------------------------------------------


def _chassis_rows():
    """(id, machine factory, pool, nvlink pairs, mask, cache policy)."""
    rows = [
        (name, make, pool, None, None, "replicated")
        for name, make, pool in DIFFERENTIAL_FABRICS
    ]
    rows.append(("machine_a-2x12", machine_a, (2, 12), None, None, "replicated"))
    masks = [
        ("drop-ssd0", TopologyMask(drop_nodes=("ssd0",))),
        ("drop-gpu1", TopologyMask(drop_nodes=("gpu1",))),
        ("egress-ssd1", TopologyMask(egress_factors=(("ssd1", 0.5),))),
        ("link-gpu0-plx0", TopologyMask(link_factors=(("gpu0", "plx0", 0.5),))),
    ]
    for name, mask in masks:
        rows.append((name, machine_a, (2, 4), None, mask, "replicated"))
    for pairs in (((0, 1), (2, 3)), ((2, 3), (0, 1))):
        rows.append((f"nvlink{pairs}", machine_a, (4, 4), pairs, None, "replicated"))
    rows.append(("partitioned", machine_b, (2, 4), None, None, "partitioned"))
    return rows


CHASSIS_ROWS = _chassis_rows()


def _pass1_fingerprint(pred):
    return (
        pred.time,
        pred.throughput,
        tuple(pred.per_gpu_rate.items()),
        tuple(pred.storage_rate.items()),
        pred.bottlenecks,
        pred.cut_partition,
    )


class TestChassisNetworkDifferential:
    """Pass 1 scores each placement as a capacity vector over one chassis
    network per search; every prediction and warm-start count must equal
    the per-candidate topology solve, chained in the same batches."""

    @pytest.mark.parametrize(
        "make_machine,pool,nvlink_pairs,mask,policy",
        [row[1:] for row in CHASSIS_ROWS],
        ids=[row[0] for row in CHASSIS_ROWS],
    )
    def test_equals_topology_solves(
        self, make_machine, pool, nvlink_pairs, mask, policy
    ):
        machine = make_machine()
        scorer = FlexibleMaxFlowScorer(FRACTIONS, policy)
        network = scorer.network(machine, *pool, nvlink_pairs, mask)
        placements = list(iter_canonical_placements(machine.chassis, *pool))
        for start in range(0, len(placements), PASS1_BATCH):
            batch = placements[start:start + PASS1_BATCH]
            got, warm_starts = scorer.score_batch(batch, lambda p: network)
            hint, ref_warm = None, 0
            for i, (placement, pred) in enumerate(zip(batch, got)):
                topo = machine.build(placement, nvlink_pairs=nvlink_pairs)
                if mask:
                    topo = mask.apply(topo)
                demand = scoring_demand(
                    topo, FRACTIONS, gpu_cache_policy=policy
                )
                ref = min_completion_time(topo, demand, warm_partition=hint)
                ref_warm += (
                    FlowTemplate.from_topology(topo, demand).warm_start(hint)[0]
                    > 0.0
                )
                if i == 0:
                    hint = ref.cut_partition or None
                assert _pass1_fingerprint(pred) == _pass1_fingerprint(ref), (
                    placement
                )
            assert warm_starts == ref_warm


# ---------------------------------------------------------------------------
# Warm-start regression: warm re-score of a neighbor == cold solve
# ---------------------------------------------------------------------------


def _single_slot_swap_pair(machine, num_gpus, num_ssds):
    """Two canonical placements differing by moving one SSD between
    groups (GPU seating identical)."""
    placements = list(
        iter_canonical_placements(machine.chassis, num_gpus, num_ssds)
    )
    for i, a in enumerate(placements):
        ta = a.as_tuple()
        for b in placements[i + 1:]:
            tb = b.as_tuple()
            gpu_same = all(x[1] == y[1] for x, y in zip(ta, tb))
            ssd_moves = sum(abs(x[2] - y[2]) for x, y in zip(ta, tb))
            if gpu_same and ssd_moves == 2:
                return a, b
    raise AssertionError("no single-slot-swap pair in the canonical set")


def _prediction_fingerprint(pred):
    return (
        pred.time,
        pred.throughput,
        tuple(sorted(pred.storage_rate.items())),
        tuple(sorted(pred.per_gpu_rate.items())),
    )


class TestWarmStartRegression:
    def test_swap_neighbor_warm_equals_cold(self):
        machine = machine_a()
        a, b = _single_slot_swap_pair(machine, 2, 4)
        topo_a = machine.build(a)
        topo_b = machine.build(b)
        seed = min_completion_time(
            topo_a, scoring_demand(topo_a, FRACTIONS)
        )
        assert seed.cut_partition  # the hint we warm-start from
        demand_b = scoring_demand(topo_b, FRACTIONS)
        warm = min_completion_time(
            topo_b, demand_b, warm_partition=seed.cut_partition
        )
        cold = min_completion_time(topo_b, demand_b)
        assert _prediction_fingerprint(warm) == _prediction_fingerprint(cold)

    def test_swap_neighbor_warm_equals_cold_under_mask(self):
        """The replan shape: the warm hint comes from the *healthy*
        fabric while the solve runs on a degraded (masked) one."""
        machine = machine_a()
        a, b = _single_slot_swap_pair(machine, 2, 4)
        healthy = machine.build(a)
        seed = min_completion_time(
            healthy, scoring_demand(healthy, FRACTIONS)
        )
        mask = TopologyMask(
            drop_nodes=(),
            egress_factors=(("ssd0", 0.4),),
            link_factors=(("rc0", "plx0", 0.5),),
        )
        masked = mask.apply(machine.build(b))
        demand = scoring_demand(masked, FRACTIONS)
        warm = min_completion_time(
            masked, demand, warm_partition=seed.cut_partition
        )
        cold = min_completion_time(masked, demand)
        assert _prediction_fingerprint(warm) == _prediction_fingerprint(cold)

    def test_warm_hint_survives_dropped_nodes(self):
        """A hint naming nodes the mask removed must degrade to a cold
        start, not crash or corrupt the solve."""
        machine = machine_a()
        a, _b = _single_slot_swap_pair(machine, 2, 4)
        healthy = machine.build(a)
        seed = min_completion_time(
            healthy, scoring_demand(healthy, FRACTIONS)
        )
        mask = TopologyMask(
            drop_nodes=("ssd0",), egress_factors=(), link_factors=()
        )
        masked = mask.apply(healthy)
        demand = scoring_demand(masked, FRACTIONS)
        warm = min_completion_time(
            masked, demand, warm_partition=seed.cut_partition
        )
        cold = min_completion_time(masked, demand)
        assert _prediction_fingerprint(warm) == _prediction_fingerprint(cold)

    def test_near_tied_cut_warm_equals_cold(self):
        """A sub-microbyte CPU demand makes two cuts' roots differ by two
        ulps; a warm start on the lower one must still end on the
        higher, binding one, as the cold solve does."""
        machine = machine_b()
        eps = float(np.finfo(float).eps)
        fractions = (0.0, eps, 1.0 - eps)
        placements = list(iter_canonical_placements(machine.chassis, 2, 4))
        head = machine.build(placements[0], validate=False)
        seed = min_completion_time(head, scoring_demand(head, fractions))
        topo = machine.build(placements[4], validate=False)
        demand = scoring_demand(topo, fractions)
        warm = min_completion_time(
            topo, demand, warm_partition=seed.cut_partition
        )
        cold = min_completion_time(topo, demand)
        assert _prediction_fingerprint(warm) == _prediction_fingerprint(cold)

    def test_engine_warm_off_bit_identical(self):
        """The warm-chained engine ranks exactly like the cold
        per-candidate reference recipe."""
        machine = machine_a()
        ref_rows, _, _ = _reference_search(machine, 2, 4, FRACTIONS)
        warm = run_search(_request(machine, 2, 4))
        assert warm.warm_starts > 0
        assert _ranking(warm.scored) == _ranking(ref_rows)
        assert warm.best.throughput == ref_rows[0].throughput

    def test_masked_rescore_with_warm_cut(self):
        """The ReplanPolicy request shape: one pinned candidate, a fault
        mask, and the previous solve's cut as the warm seed."""
        machine = machine_a()
        base = run_search(_request(machine, 2, 4))
        placement = base.best.placement
        mask = TopologyMask(
            drop_nodes=(),
            egress_factors=(("ssd0", 0.5),),
            link_factors=(),
        )
        cold = run_search(
            _request(machine, 2, 4, candidates=(placement,), mask=mask)
        )
        warm = run_search(
            _request(
                machine, 2, 4, candidates=(placement,), mask=mask,
                warm_cut=base.best.prediction.cut_partition,
            )
        )
        assert warm.warm_starts >= 1
        assert warm.best.throughput == cold.best.throughput
        assert (
            warm.best.placement.as_tuple() == cold.best.placement.as_tuple()
        )


class TestSearchCounters:
    def test_vectorized_counters_exported(self):
        with obs.capture() as tel:
            result = run_search(_request(machine_a(), 2, 4))
        metrics = tel.snapshot()["metrics"]
        counters = metrics["counters"]
        assert counters["search.unique"] == result.num_unique
        assert counters["search.warm_starts"] == result.warm_starts
        assert result.warm_starts > 0
        hist = metrics["histograms"]["search.batch_size"]
        assert hist["count"] == result.num_batches
        assert result.num_batches >= 1

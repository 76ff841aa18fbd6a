"""Tests for the staged placement-search engine (repro.core.search).

The load-bearing guarantee is *equivalence*: the batched, funnelled
engine must reproduce the pre-engine serial path — enumerate
everything, dedupe, pass-1 score everything, stable-sort, LP the top
``lp_top_k``, stable-sort — bit for bit.  ``_reference_search`` below
implements that original recipe directly and every equivalence test
compares the engine against it.
"""

import dataclasses
import functools
import gc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.flowmodel import (
    ChassisNetwork,
    FlowTemplate,
    TrafficDemand,
    min_completion_time,
    solve_template,
)
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
import repro.core.symmetry as symmetry
from repro.core.search import (
    PASS1_BATCH,
    FlexibleMaxFlowScorer,
    MulticommodityScorer,
    ScoredPlacement,
    SearchEngine,
    SearchRequest,
    default_batch_size,
    default_prune_bounds,
    default_warm_starts,
    default_workers,
    run_search,
    sample_placements,
    scoring_demand,
)
from repro.core.symmetry import (
    CanonicalPlacements,
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


def _reference_scan(machine, num_gpus, num_ssds, fractions,
                    lp_top_k=LP_TOP_K):
    """The pre-engine serial recipe, reimplemented verbatim.

    Fully materialised enumeration, batch dedupe, pass-1 on every unique
    candidate, stable descending sort, pass-2 LP on the top ``lp_top_k``,
    stable descending sort.  Returns (pass-1 predictions in enumeration
    order, finalists as (placement, prediction) in funnel order, ranked
    rows, num_candidates, num_unique).
    """
    candidates = enumerate_placements(machine.chassis, num_gpus, num_ssds)
    unique = dedupe_placements(candidates, machine.chassis)
    exact = MulticommodityScorer(fractions=fractions)
    pass1 = []
    for placement in unique:
        topo = machine.build(placement)
        network = FlowTemplate.from_topology(
            topo, scoring_demand(topo, fractions)
        )
        pass1.append((placement, network, solve_template(network)))
    funnel = sorted(pass1, key=lambda row: -row[2].throughput)  # stable
    rows = []
    for placement, network, p1 in funnel[:lp_top_k]:
        mcf = exact.score(network, p1)
        rows.append(ScoredPlacement(placement, mcf.throughput, p1, mcf))
    rows.sort(key=lambda row: -row.throughput)  # stable
    return (
        [p1 for _, _, p1 in pass1],
        [(placement, p1) for placement, _, p1 in funnel[:lp_top_k]],
        rows,
        len(candidates),
        len(unique),
    )


def _reference_search(machine, num_gpus, num_ssds, fractions,
                      lp_top_k=LP_TOP_K, top_k=TOP_K):
    """:func:`_reference_scan`'s top ``top_k`` ranked rows, with
    num_candidates and num_unique."""
    _, _, rows, num_candidates, num_unique = _reference_scan(
        machine, num_gpus, num_ssds, fractions, lp_top_k
    )
    return rows[:top_k], num_candidates, num_unique


def _request(machine, num_gpus, num_ssds, **overrides):
    base = dict(
        machine=machine,
        num_gpus=num_gpus,
        num_ssds=num_ssds,
        fractions=FRACTIONS,
        lp_top_k=LP_TOP_K,
        top_k=TOP_K,
    )
    base.update(overrides)
    return SearchRequest(**base)


def _ranking(scored):
    return [(row.placement.as_tuple(), row.throughput) for row in scored]


@pytest.fixture()
def lp_calls(monkeypatch):
    """Every pass-2 LP as ``(placement, pass-1 prediction)``, in the
    order :meth:`MulticommodityScorer.score` is called (a search calls
    it once per finalist, in funnel order; a call from outside a search
    records no placement)."""
    calls, unscored = [], []
    score, score_exact = MulticommodityScorer.score, SearchEngine._score_exact

    def recording_exact(self, rows):
        unscored[:] = [placement for _, placement, _, _ in rows]
        return score_exact(self, rows)

    def recording(self, network, prior=None):
        calls.append((unscored.pop(0) if unscored else None, prior))
        return score(self, network, prior)

    monkeypatch.setattr(SearchEngine, "_score_exact", recording_exact)
    monkeypatch.setattr(MulticommodityScorer, "score", recording)
    return calls


#: Identical searches run back to back in one process: a search keeps
#: no state (networks, LP solver) for the next one, so every run stops
#: at the same batch and ranks the same.
RUNS = [1, 2]


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

    @pytest.mark.parametrize("runs", RUNS)
    def test_pass2_scores_every_finalist_in_one_stage(self, lp_calls, runs):
        """Pass 2 LP-scores every finalist exactly once, and a repeated
        search ranks the same.  Machine B 2/4 has finalists whose
        pass-1 bound cannot beat the top-k exact floor; they are scored
        all the same."""
        machine = machine_b()
        results = []
        for _ in range(runs):
            lp_calls.clear()
            result = run_search(_request(machine, 2, 4))
            n = min(LP_TOP_K, result.num_unique)
            assert result.num_lp_scored == len(lp_calls) == n
            results.append(result)
        first = results[0]
        for result in results[1:]:
            assert _ranking(result.scored) == _ranking(first.scored)
            assert result.best.throughput == first.best.throughput

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
    """The engine keeps nothing per candidate beyond its prediction and,
    for a finalist, its template: pass 1 scores every candidate over one
    chassis network and pass 2 LP-scores the finalists' templates, both
    without a topology; the search builds one, the winner's, after
    pass 2."""

    def _traced_search(self, monkeypatch):
        machine = machine_a()
        built = []
        alive_at_pass2 = []
        build, score = MachineSpec.build, MulticommodityScorer.score

        def traced_build(self, *args, **kwargs):
            topo = build(self, *args, **kwargs)
            built.append(weakref.ref(topo))
            return topo

        def traced_score(self, network, prior=None):
            if not alive_at_pass2:
                gc.collect()
                alive_at_pass2.append(
                    sum(ref() is not None for ref in built)
                )
            return score(self, network, prior)

        monkeypatch.setattr(MachineSpec, "build", traced_build)
        monkeypatch.setattr(MulticommodityScorer, "score", traced_score)
        result = run_search(_request(machine, 2, 4))
        return result, built, alive_at_pass2

    def test_pass1_topologies_released_before_pass2(self, monkeypatch):
        result, _built, alive_at_pass2 = self._traced_search(monkeypatch)
        assert result.num_unique > 1
        assert alive_at_pass2[0] == 0

    def test_one_topology_built_after_pass2(self, monkeypatch):
        builds = []
        build, score = MachineSpec.build, MulticommodityScorer.score
        lps = [0]

        def traced_build(self, *args, **kwargs):
            topo = build(self, *args, **kwargs)
            builds.append((lps[0], topo))
            return topo

        def traced_score(self, network, prior=None):
            lps[0] += 1
            return score(self, network, prior)

        monkeypatch.setattr(MachineSpec, "build", traced_build)
        monkeypatch.setattr(MulticommodityScorer, "score", traced_score)
        result = run_search(_request(machine_a(), 2, 4))
        assert result.num_lp_scored > 1
        assert len(builds) == 1
        lps_before, topo = builds[0]
        assert lps_before == result.num_lp_scored
        assert topo is result.topology
        assert result.topology.gpus() == ["gpu0", "gpu1"]


class TestZeroDemandPool:
    """On a pool whose demand is zero (every read a local GPU-cache
    hit, as for a graph that fits in GPU memory) each candidate solves
    to zero without a template; pass 2 builds its finalists' only, and
    ranks them as the reference scan does."""

    def test_templates_only_for_finalists(self, monkeypatch):
        machine, fractions, lp_top_k = machine_a(), (1.0, 0.0, 0.0), 8
        built = []
        template = ChassisNetwork.template

        def traced_template(self, placement, from_ceiling=False):
            built.append(placement)
            return template(self, placement, from_ceiling)

        monkeypatch.setattr(ChassisNetwork, "template", traced_template)
        result = run_search(
            _request(machine, 2, 4, fractions=fractions, lp_top_k=lp_top_k)
        )
        assert result.num_pass1_scored == result.num_unique > lp_top_k
        assert result.num_lp_scored == len(built) == lp_top_k
        assert all(row.prediction.time == 0.0 for row in result.scored)
        _, finalists, rows, _, num_unique = _reference_scan(
            machine, 2, 4, fractions, lp_top_k
        )
        assert num_unique == result.num_unique
        assert _ranking(result.scored) == _ranking(rows[:TOP_K])
        assert [p.as_tuple() for p in built] == [
            p.as_tuple() for p, _ in finalists
        ]

    @pytest.mark.parametrize(
        "fractions",
        [(1.0, 1e-16, 0.0), (0.999999999999999, 0.0, 1e-15)],
    )
    def test_vanishing_demand_solves_to_zero(self, fractions):
        """A demand of a few float residues (every LP entry under one
        byte, which HiGHS drops from its matrix) reads as zero in pass
        2 instead of failing the LP as unbounded."""
        result = run_search(
            SearchRequest(machine_a(), 2, 4, fractions=fractions)
        )
        assert result.num_lp_scored > 1
        assert all(row.mcf.time == 0.0 for row in result.scored)
        assert result.best.throughput == 0.0


class TestKnobDefaults:
    def test_search_workers_are_gone(self, monkeypatch, capsys):
        """Nothing selects how a search executes: no request field, no
        optimizer field, no CLI flag, and the old environment variable
        is not read."""
        import repro.experiments.__main__ as cli

        with pytest.raises(TypeError):
            SearchRequest(
                machine=machine_b(), num_gpus=2, num_ssds=4,
                fractions=FRACTIONS, workers=2,
            )
        with pytest.raises(TypeError):
            OptimizerConfig(search_workers=2)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table1", "--quick", "--search-workers", "2"])
        assert exit_info.value.code == 2
        assert "--search-workers" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "2")
        assert default_workers() == 1

    @pytest.mark.parametrize("name", ["lp_top_k", "top_k"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_funnel_widths_below_one_rejected(self, name, value):
        """A funnel width below 1 is an error naming it, not a silent 1:
        a request raises when searched, an optimizer configuration as
        soon as it is built, each naming its own field."""
        message = f"{name} must be an integer >= 1, got {value}"
        with pytest.raises(ValueError, match=message):
            run_search(_request(machine_a(), 2, 4, **{name: value}))
        field = "report_top_k" if name == "top_k" else name
        with pytest.raises(
            ValueError, match=f"^{field} must be an integer >= 1, got {value}"
        ):
            OptimizerConfig(**{field: value})

    def test_pass1_defaults_are_constants(self):
        """Batch size is fixed, not a knob: pass 1 checks its stop only
        at a batch end, so the stop point is the same on every run.  No
        solve is warm-started."""
        assert default_batch_size() == PASS1_BATCH == 32
        assert default_warm_starts() is False


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
        assert f"search engine: {plan.search.num_lp_scored} LP-scored" in text
        search = plan.search
        assert (
            f"pass 1 scored all {search.num_unique}: "
            f"{search.ceiling_hits} candidates reached the ceiling "
            f"({search.ceiling_cut})"
        ) in text
        stopped = dataclasses.replace(
            plan, search=dataclasses.replace(search, num_pass1_scored=32)
        )
        assert (
            f"pass 1 stopped at 32 of {search.num_unique}: "
            in stopped.summary()
        )
        assert search.num_max_flows > 0
        assert (
            f"pass 1 started every cut search at the ceiling: "
            f"{search.num_max_flows} max flows"
        ) in text
        bare = dataclasses.replace(
            plan, search=dataclasses.replace(search, ceiling_cut=None)
        )
        assert "(no storage-egress ceiling)" in bare.summary()
        assert (
            f"pass 1 started every cut search at t = 0: "
            f"{search.num_max_flows} max flows"
        ) in bare.summary()
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
                FlowTemplate.from_topology(topo, demand),
                bisect_min_completion_time(topo, demand, rel_tol=1e-4),
            )
        )
    pass1.sort(key=lambda row: -row[2].throughput)  # stable
    rows = []
    for placement, network, p1 in pass1[:lp_top_k]:
        mcf = exact.score(network, p1)
        rows.append(ScoredPlacement(placement, mcf.throughput, p1, mcf))
    rows.sort(key=lambda row: -row.throughput)  # stable
    return rows[:top_k], len(candidates), len(unique)


class TestDifferentialEquivalence:
    """run_search (direct canonical enumeration + batched cut-parametric
    kernel) against the legacy scalar pipeline."""

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
            demand = scoring_demand(topo, FRACTIONS)
            p1 = bisect_min_completion_time(topo, demand, rel_tol=1e-4)
            mcf = MulticommodityScorer(fractions=FRACTIONS).score(
                FlowTemplate.from_topology(topo, demand), p1
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
    def test_workers_do_not_change_selection(
        self, make_machine, pool, monkeypatch
    ):
        """The search reads no worker count: a ``REPRO_SEARCH_WORKERS``
        left in the environment picks the same plan — bit for bit."""
        machine = make_machine()
        one = run_search(_request(machine, *pool))
        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "2")
        two = run_search(_request(machine, *pool))
        assert _ranking(two.scored) == _ranking(one.scored)
        assert two.best.throughput == one.best.throughput


# ---------------------------------------------------------------------------
# The storage-egress ceiling: pass 1 stops early, the outcome stays put
# ---------------------------------------------------------------------------

#: Every differential fabric, plus machines A and B at 4/4 and 4/8.
CEILING_ROWS = DIFFERENTIAL_FABRICS + [
    (f"{name}-{gpus}x{ssds}", make, (gpus, ssds))
    for name, make in (("machine_a", machine_a), ("machine_b", machine_b))
    for gpus, ssds in ((4, 4), (4, 8))
]


@functools.lru_cache(maxsize=None)
def _ceiling_scan(name):
    """A :data:`CEILING_ROWS` row's machine, pool, ceiling and full
    reference scan, computed once per session."""
    _, make_machine, pool = next(row for row in CEILING_ROWS if row[0] == name)
    machine = make_machine()
    ceiling = FlexibleMaxFlowScorer(FRACTIONS).network(machine, *pool).ceiling
    return machine, pool, ceiling, _reference_scan(machine, *pool, FRACTIONS)


def _stop_boundary(times, ceiling, lp_top_k):
    """Candidates pass 1 scores: up to the first batch end by which
    ``lp_top_k`` times reached the ceiling, else all of them."""
    hits = 0
    for start in range(0, len(times), PASS1_BATCH):
        if ceiling is not None:
            batch = times[start : start + PASS1_BATCH]
            hits += sum(t <= ceiling.time for t in batch)
        if hits >= lp_top_k:
            return min(start + PASS1_BATCH, len(times))
    return len(times)


def _funnel(pass1, count, lp_top_k):
    """Indices of the finalists among the first ``count`` candidates."""
    return sorted(range(count), key=lambda i: -pass1[i].throughput)[:lp_top_k]


class TestCeilingStop:
    """Pass 1 stops at the first batch end by which ``lp_top_k``
    candidates reached the storage-egress ceiling.  No candidate beats
    the ceiling, so the finalists, the ranking and the winner are the
    full scan's under ``==``, on every run."""

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("name", [row[0] for row in CEILING_ROWS])
    def test_stop_keeps_the_full_scan_outcome(self, lp_calls, name, runs):
        machine, pool, ceiling, scan = _ceiling_scan(name)
        pass1, finalists, rows, _, num_unique = scan
        times = [p1.time for p1 in pass1]
        if ceiling is not None:
            assert min(times) >= ceiling.time
        boundary = _stop_boundary(times, ceiling, LP_TOP_K)

        for _ in range(runs):
            lp_calls.clear()
            result = run_search(_request(machine, *pool, top_k=LP_TOP_K))
            assert result.num_unique == num_unique
            assert result.num_pass1_scored == boundary
            assert result.ceiling_hits == (
                sum(t <= ceiling.time for t in times[:boundary])
                if ceiling
                else 0
            )
            assert result.ceiling_cut == (ceiling.cut if ceiling else None)
            assert [(p.as_tuple(), p1) for p, p1 in lp_calls] == [
                (p.as_tuple(), p1) for p, p1 in finalists
            ]
            assert _ranking(result.scored) == _ranking(rows)
            best = result.best
            assert best.placement.as_tuple() == rows[0].placement.as_tuple()
            assert best.throughput == rows[0].throughput
            assert result.num_lp_scored == len(finalists)

    def test_the_stop_fires_on_the_storage_bound_shapes(self):
        for name in ("machine_b", "machine_a-4x8", "machine_b-4x8"):
            _, _, ceiling, (pass1, _, _, _, num_unique) = _ceiling_scan(name)
            assert ceiling.cut.startswith("SSD egress")
            times = [p1.time for p1 in pass1]
            assert _stop_boundary(times, ceiling, LP_TOP_K) < num_unique

    def test_one_batch_early_changes_the_finalists(self):
        """Machine B 4/8 at the default funnel width: a pass 1 cut one
        batch before the boundary has fewer than ``lp_top_k`` ceiling
        candidates, so its finalists differ from the full scan's."""
        lp_top_k = 48
        _, _, ceiling, (pass1, _, _, _, num_unique) = _ceiling_scan(
            "machine_b-4x8"
        )
        times = [p1.time for p1 in pass1]
        boundary = _stop_boundary(times, ceiling, lp_top_k)
        assert PASS1_BATCH < boundary < num_unique
        full = _funnel(pass1, num_unique, lp_top_k)
        assert _funnel(pass1, boundary, lp_top_k) == full
        assert _funnel(pass1, boundary - PASS1_BATCH, lp_top_k) != full


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
        the scalar kernel returns for each placement's topology alone,
        bottlenecks included."""
        machine = (machine_a, machine_b)[machine_idx]()
        total = f_gpu + f_cpu
        if total > 0.9:
            f_gpu, f_cpu = 0.9 * f_gpu / total, 0.9 * f_cpu / total
        fractions = (f_gpu, f_cpu, 1.0 - f_gpu - f_cpu)
        placements = list(iter_canonical_placements(machine.chassis, 2, 4))
        window = placements[start:start + take] or placements[:take]
        scorer = FlexibleMaxFlowScorer(fractions=fractions)
        network = scorer.network(machine, 2, 4)
        batch = scorer.score_batch(window, network.template)
        for placement, batched in zip(window, batch):
            topo = machine.build(placement, validate=False)
            solo = min_completion_time(topo, scoring_demand(topo, fractions))
            assert batched == solo, placement


# ---------------------------------------------------------------------------
# Chassis network: pass 1 over one network per search == per-topology solves
# ---------------------------------------------------------------------------


def _chassis_rows():
    """(id, machine factory, pool, nvlink pairs, cache policy)."""
    rows = [
        (name, make, pool, None, "replicated")
        for name, make, pool in DIFFERENTIAL_FABRICS
    ]
    rows.append(("machine_a-2x12", machine_a, (2, 12), None, "replicated"))
    for pairs in (((0, 1), (2, 3)), ((2, 3), (0, 1))):
        rows.append((f"nvlink{pairs}", machine_a, (4, 4), pairs, "replicated"))
    rows.append(("partitioned", machine_b, (2, 4), None, "partitioned"))
    return rows


CHASSIS_ROWS = _chassis_rows()


class TestChassisNetworkDifferential:
    """Pass 1 scores each placement as a capacity vector over one chassis
    network per search; every prediction must equal the candidate's own
    topology solve, as a whole."""

    @pytest.mark.parametrize(
        "make_machine,pool,nvlink_pairs,policy",
        [row[1:] for row in CHASSIS_ROWS],
        ids=[row[0] for row in CHASSIS_ROWS],
    )
    def test_equals_topology_solves(
        self, make_machine, pool, nvlink_pairs, policy
    ):
        machine = make_machine()
        scorer = FlexibleMaxFlowScorer(FRACTIONS, policy)
        network = scorer.network(machine, *pool, nvlink_pairs)
        placements = list(iter_canonical_placements(machine.chassis, *pool))
        for start in range(0, len(placements), PASS1_BATCH):
            batch = placements[start:start + PASS1_BATCH]
            got = scorer.score_batch(batch, network.template)
            for placement, pred in zip(batch, got):
                topo = machine.build(placement, nvlink_pairs=nvlink_pairs)
                demand = scoring_demand(
                    topo, FRACTIONS, gpu_cache_policy=policy
                )
                ref = min_completion_time(topo, demand)
                assert pred == ref, placement
                # dict == ignores key order; callers that iterate see it
                assert list(pred.storage_rate) == list(ref.storage_rate)
                assert list(pred.per_gpu_rate) == list(ref.per_gpu_rate)
                # the storage-egress ceiling bounds every candidate
                if network.ceiling is not None:
                    assert pred.time >= network.ceiling.time, placement

    @pytest.mark.parametrize("owner", ["network", "scorer"])
    def test_takes_no_mask(self, owner):
        """The chassis network is always the healthy fabric's: a fault
        is applied to a built topology, never to this network."""
        machine = machine_a()
        scorer = FlexibleMaxFlowScorer(FRACTIONS)
        mask = TopologyMask(drop_nodes=("ssd0",))
        with pytest.raises(TypeError):
            if owner == "network":
                ChassisNetwork(
                    machine, 2, 4, lambda gpus: TrafficDemand(), mask=mask
                )
            else:
                scorer.network(machine, 2, 4, mask=mask)


#: The edge-array rows: the chassis rows plus every generated fabric of
#: the fabric sweep's range at the sweep's 2-GPU / 3-SSD pool.
EDGE_ROWS = CHASSIS_ROWS + [
    (f"gen:{seed}-2x3", partial(_gen_machine, seed), (2, 3), None, "replicated")
    for seed in range(25)
]


def _physical_edges(network):
    """``network``'s physical edges as ``(tail, head, base, rate, QPI
    full rate or None)`` rows, in edge order."""
    labels = network.labels
    return [
        (
            labels[network.tails[e]],
            labels[network.heads[e]],
            network.base[e],
            network.rate[e],
            network.qpi.get(e),
        )
        for e in range(network.num_physical)
    ]


class TestChassisEdgeArrays:
    """Pass 2 reads the LP off a candidate's chassis template, so its
    physical edges must be the ones :meth:`FlowTemplate.from_topology`
    reads off the candidate's topology: labels, ``base``, ``rate`` and
    QPI full rates equal, in the same order, and the same devices."""

    @pytest.mark.parametrize(
        "make_machine,pool,nvlink_pairs,policy",
        [row[1:] for row in EDGE_ROWS],
        ids=[row[0] for row in EDGE_ROWS],
    )
    def test_equals_topology_template(
        self, make_machine, pool, nvlink_pairs, policy
    ):
        machine = make_machine()
        scorer = FlexibleMaxFlowScorer(FRACTIONS, policy)
        network = scorer.network(machine, *pool, nvlink_pairs)
        placements = CanonicalPlacements(machine.chassis, *pool)
        assert len(placements)
        for placement in placements:
            got = network.template(placement)
            topo = machine.build(placement, nvlink_pairs=nvlink_pairs)
            want = FlowTemplate.from_topology(
                topo, scoring_demand(topo, FRACTIONS, gpu_cache_policy=policy)
            )
            assert _physical_edges(got) == _physical_edges(want), placement
            assert got.devices == want.devices
            assert got.topology is None and want.topology is topo


# ---------------------------------------------------------------------------
# Ceiling-started pass 1: every candidate against its solve from t = 0
# ---------------------------------------------------------------------------

#: (fractions, cache policy) mixes the ceiling-start rows rotate over.
START_MIXES = [
    (FRACTIONS, "replicated"),
    ((0.6, 0.3, 0.1), "partitioned"),
    ((0.1, 0.6, 0.3), "replicated"),
    ((0.0, 0.0, 1.0), "partitioned"),
]


def _start_rows():
    """(id, machine factory, pool, fractions, policy): machines A and B
    at 2/4, 3/5 and 4/8 under two mixes each, and every ``gen:<seed>``
    fabric at the largest of 3/5, 2/4, 2/2 and 1/2 with at most 600
    canonical placements, under one mix each."""
    rows = []
    for name, make in (("machine_a", machine_a), ("machine_b", machine_b)):
        for i, pool in enumerate(((2, 4), (3, 5), (4, 8))):
            for mix in (START_MIXES[i], START_MIXES[i + 1]):
                rows.append((f"{name}-{pool[0]}x{pool[1]}-{mix[1]}",
                             make, pool, *mix))
    for seed in range(25):
        chassis = _gen_machine(seed).chassis
        pool = next(
            p for p in ((3, 5), (2, 4), (2, 2), (1, 2))
            if 0 < len(CanonicalPlacements(chassis, *p)) <= 600
        )
        rows.append((f"gen:{seed}-{pool[0]}x{pool[1]}",
                     partial(_gen_machine, seed), pool,
                     *START_MIXES[seed % len(START_MIXES)]))
    # the one mix under which a sweep of 244,170 candidates (machines A
    # and B at six pools, gen:0-24 up to 2,500 candidates a pool, five
    # fraction mixes, both policies) met binding cuts whose float roots
    # are 1-2 ulps apart, on three candidates
    for seed in (10, 21):
        rows.append((f"gen:{seed}-3x5-tied-roots", partial(_gen_machine, seed),
                     (3, 5), (0.1, 0.6, 0.3), "partitioned"))
    return rows


START_ROWS = _start_rows()


class TestCeilingStartDifferential:
    """Pass 1 starts each healthy-fabric solve at the ceiling, on its
    cut (``ChassisNetwork.template(p, from_ceiling=True)``).  On every
    candidate the started solve equals the solve from t = 0 under
    ``==`` in time, throughput and rates, key order included.  Its
    bottlenecks are the cold solve's, or name another binding cut: one
    whose cut line's root is the time, bit for bit.

    The exception is a tie in float: two binding cuts whose roots
    rounding puts a few ulps apart, where each search ends on the one
    its path meets.  Then the two times are at most 4 ulps apart, and
    the rates agree to 1e-14.  No candidate of
    machines A or B ties this way."""

    @pytest.mark.parametrize(
        "make_machine,pool,fractions,policy",
        [row[1:] for row in START_ROWS],
        ids=[row[0] for row in START_ROWS],
    )
    def test_equals_the_solve_from_zero(
        self, monkeypatch, make_machine, pool, fractions, policy
    ):
        machine = make_machine()
        network = FlexibleMaxFlowScorer(fractions, policy).network(
            machine, *pool
        )
        cuts = []
        prediction = FlowTemplate.prediction

        def recording(self, t_star, caps, cut_mask):
            cuts.append((self, cut_mask))
            return prediction(self, t_star, caps, cut_mask)

        monkeypatch.setattr(FlowTemplate, "prediction", recording)
        cold_flows = started_flows = 0
        tied = []
        for placement in CanonicalPlacements(machine.chassis, *pool):
            cold = solve_template(network.template(placement))
            started = solve_template(
                network.template(placement, from_ceiling=True)
            )
            cold_flows += cold.max_flows
            started_flows += started.max_flows
            assert list(started.per_gpu_rate) == list(cold.per_gpu_rate)
            assert list(started.storage_rate) == list(cold.storage_rate)
            if started.bottlenecks != cold.bottlenecks:
                tpl, cut = cuts[-1]
                b, r = tpl.cut_line(cut)
                assert (tpl.total - b) / r == started.time, placement
            if started.time == cold.time:
                assert started.throughput == cold.throughput
                assert started.per_gpu_rate == cold.per_gpu_rate
                assert started.storage_rate == cold.storage_rate, placement
                continue
            tied.append(placement)
            assert abs(started.time - cold.time) <= 4 * np.spacing(cold.time)
            for got, want in (
                (started.throughput, cold.throughput),
                (started.per_gpu_rate, cold.per_gpu_rate),
                (started.storage_rate, cold.storage_rate),
            ):
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if make_machine in (machine_a, machine_b):
            assert not tied
        if network.ceiling is not None:
            assert started_flows < cold_flows

    def test_a_candidate_at_the_ceiling_solves_in_one_max_flow(self):
        machine = machine_b()
        network = FlexibleMaxFlowScorer(FRACTIONS).network(machine, 4, 8)
        hits = 0
        for placement in CanonicalPlacements(machine.chassis, 4, 8)[:288]:
            started = solve_template(
                network.template(placement, from_ceiling=True)
            )
            if started.time == network.ceiling.time:
                hits += 1
                assert started.max_flows == 1, placement
        assert hits > 0

    def test_masked_and_cold_templates_start_at_zero(self):
        machine = machine_a()
        network = FlexibleMaxFlowScorer(FRACTIONS).network(machine, 2, 4)
        placement = CanonicalPlacements(machine.chassis, 2, 4)[0]
        assert network.ceiling is not None
        assert network.template(placement).start == (0.0, None)
        assert network.template(placement, True).start[0] == (
            network.ceiling.time
        )
        topo = machine.build(placement)
        demand = scoring_demand(topo, FRACTIONS)
        assert FlowTemplate.from_topology(topo, demand).start == (0.0, None)


# ---------------------------------------------------------------------------
# Masked searches: pass 1 solves each candidate's masked topology
# ---------------------------------------------------------------------------

#: (id, pool, nvlink pairs, mask) on machine A.
MASKED_ROWS = [
    ("drop-ssd0", (2, 4), None, TopologyMask(drop_nodes=("ssd0",))),
    ("drop-gpu1", (2, 4), None, TopologyMask(drop_nodes=("gpu1",))),
    (
        "egress-ssd1",
        (2, 4),
        None,
        TopologyMask(egress_factors=(("ssd1", 0.5),)),
    ),
    (
        "link-gpu0-plx0",
        (2, 4),
        None,
        TopologyMask(link_factors=(("gpu0", "plx0", 0.5),)),
    ),
    (
        "nvlink-gpu0-gpu1",
        (4, 4),
        ((0, 1), (2, 3)),
        TopologyMask(link_factors=(("gpu0", "gpu1", 0.5),)),
    ),
]


class TestMaskedSearchDifferential:
    """A masked search scores every candidate on
    ``mask.apply(machine.build(p))``: each ranked row's pass-1
    prediction is that topology's own solve, key order included, and
    with no storage-egress ceiling the candidates are scanned whole."""

    @pytest.mark.parametrize(
        "pool,nvlink_pairs,mask",
        [row[1:] for row in MASKED_ROWS],
        ids=[row[0] for row in MASKED_ROWS],
    )
    def test_pass1_equals_masked_topology_solves(
        self, pool, nvlink_pairs, mask
    ):
        machine = machine_a()
        result = run_search(
            SearchRequest(
                machine, *pool, FRACTIONS,
                nvlink_pairs=nvlink_pairs, top_k=1000, mask=mask,
            )
        )
        assert result.ceiling_cut is None and result.ceiling_hits == 0
        assert result.num_pass1_scored == result.num_unique
        assert len(result.scored) == result.num_lp_scored
        for row in result.scored:
            topo = mask.apply(
                machine.build(row.placement, nvlink_pairs=nvlink_pairs)
            )
            ref = min_completion_time(topo, scoring_demand(topo, FRACTIONS))
            assert row.prediction == ref, row.placement
            assert list(row.prediction.storage_rate) == list(ref.storage_rate)
            assert list(row.prediction.per_gpu_rate) == list(ref.per_gpu_rate)


class TestMaskedTopologyHandOff:
    """A masked search builds each candidate's topology once: pass 1
    solves it and keeps it while the candidate is a finalist, and pass
    2 scores the kept one.  At a batch end no more than ``lp_top_k``
    are held."""

    MASK = TopologyMask(drop_nodes=("ssd0",))

    def test_each_topology_built_once(self, monkeypatch):
        builds, live_at_batch = [], []
        build = MachineSpec.build
        score_batch = FlexibleMaxFlowScorer.score_batch

        def traced_build(self, *args, **kwargs):
            topo = build(self, *args, **kwargs)
            builds.append(weakref.ref(topo))
            return topo

        def traced_score_batch(self, *args, **kwargs):
            gc.collect()
            live_at_batch.append(sum(ref() is not None for ref in builds))
            return score_batch(self, *args, **kwargs)

        monkeypatch.setattr(MachineSpec, "build", traced_build)
        monkeypatch.setattr(
            FlexibleMaxFlowScorer, "score_batch", traced_score_batch
        )
        lp_top_k = 3
        result = run_search(
            _request(machine_a(), 3, 5, lp_top_k=lp_top_k, mask=self.MASK)
        )
        assert result.num_batches > 2
        assert len(builds) == result.num_pass1_scored == result.num_unique
        assert max(live_at_batch) <= lp_top_k
        # the same topologies score the same LPs as fresh builds
        monkeypatch.undo()
        rebuilt = run_search(
            _request(machine_a(), 3, 5, lp_top_k=lp_top_k, mask=self.MASK)
        )
        assert _ranking(rebuilt.scored) == _ranking(result.scored)

    def test_at_most_lp_top_k_masked_topologies_alive(self, monkeypatch):
        """The topologies a masked search keeps are ``mask.apply``'s
        (``MachineSpec.build``'s die at once): at each batch start only
        the finalists' templates hold one."""
        applied, live_at_batch = [], []
        apply = TopologyMask.apply
        score_batch = FlexibleMaxFlowScorer.score_batch

        def traced_apply(self, topo):
            masked = apply(self, topo)
            applied.append(weakref.ref(masked))
            return masked

        def traced_score_batch(self, *args, **kwargs):
            gc.collect()
            live_at_batch.append(sum(ref() is not None for ref in applied))
            return score_batch(self, *args, **kwargs)

        monkeypatch.setattr(TopologyMask, "apply", traced_apply)
        monkeypatch.setattr(
            FlexibleMaxFlowScorer, "score_batch", traced_score_batch
        )
        lp_top_k = 3
        result = run_search(
            _request(machine_a(), 3, 5, lp_top_k=lp_top_k, mask=self.MASK)
        )
        assert result.num_batches > 2
        assert len(applied) == result.num_pass1_scored
        assert live_at_batch[0] == 0
        assert max(live_at_batch) == lp_top_k
        assert any(ref() is result.topology for ref in applied)

    def test_replan_shape_builds_one_topology(self, monkeypatch):
        """The replan request — one pinned candidate under a mask —
        builds that candidate's topology once, not once per pass."""
        builds = []
        build = MachineSpec.build

        def traced_build(self, *args, **kwargs):
            builds.append(args)
            return build(self, *args, **kwargs)

        machine = machine_a()
        placement = run_search(_request(machine, 2, 4)).best.placement
        monkeypatch.setattr(MachineSpec, "build", traced_build)
        result = run_search(
            _request(machine, 2, 4, candidates=(placement,), mask=self.MASK)
        )
        assert len(builds) == 1 == result.num_lp_scored


# ---------------------------------------------------------------------------
# Lazy canonical enumeration: only what is read is built
# ---------------------------------------------------------------------------


def _count_builds(monkeypatch):
    """A list that grows by one per placement the canonical sequence
    builds."""
    built = []
    placement_of = symmetry.placement_of

    def counting(chassis, row):
        built.append(tuple(row))
        return placement_of(chassis, row)

    monkeypatch.setattr(symmetry, "placement_of", counting)
    return built


class TestLazyEnumeration:
    @pytest.mark.parametrize(
        "make_machine,pool",
        [(machine_a, (2, 4)), (machine_a, (4, 8)), (machine_b, (3, 5))],
    )
    def test_sequence_equals_the_filter(self, make_machine, pool):
        """Length, order, indexing and slicing agree with the
        enumerate-then-filter reference, on a symmetric chassis (A) and
        a symmetry-free one (B)."""
        chassis = make_machine().chassis
        canon = CanonicalPlacements(chassis, *pool)
        ref = [
            p.as_tuple()
            for p in dedupe_placements(
                enumerate_placements(chassis, *pool), chassis
            )
        ]
        # out of order first: the symmetry-free sequence draws lazily
        assert canon[-1].as_tuple() == ref[-1]
        assert [p.as_tuple() for p in canon[3:40:7]] == ref[3:40:7]
        assert len(canon) == len(ref)
        assert [p.as_tuple() for p in canon] == ref
        with pytest.raises(IndexError):
            canon[len(ref)]

    def test_symmetry_free_length_is_the_raw_count(self, monkeypatch):
        """On machine B every placement is canonical: the length is
        ``count_placements``, known before any placement is built."""
        built = _count_builds(monkeypatch)
        chassis = machine_b().chassis
        canon = CanonicalPlacements(chassis, 4, 8)
        assert len(canon) == count_placements(chassis, 4, 8) == 1936
        assert built == []
        canon[100]
        assert len(built) == 1

    @pytest.mark.parametrize("make_machine", [machine_a, machine_b])
    def test_search_builds_only_scored_placements(
        self, monkeypatch, make_machine
    ):
        built = _count_builds(monkeypatch)
        result = run_search(_request(make_machine(), 4, 8, lp_top_k=48))
        assert len(built) == result.num_pass1_scored
        if make_machine is machine_b:
            assert result.num_pass1_scored < result.num_unique == 1936

    def test_empty_pool(self):
        canon = CanonicalPlacements(machine_a().chassis, 64, 64)
        assert len(canon) == 0 and list(canon) == []


def _reference_sample(chassis, num_gpus, num_ssds, cap):
    """:func:`sample_placements` as it was: materialise every canonical
    placement (here through the enumerate-then-filter reference), then
    stride-sample ``cap``."""
    canon = dedupe_placements(
        enumerate_placements(chassis, num_gpus, num_ssds), chassis
    )
    if cap <= 0 or len(canon) <= cap:
        return canon
    stride = len(canon) / cap
    return [canon[int(i * stride)] for i in range(cap)]


class TestSamplePlacements:
    @pytest.mark.parametrize("seed", range(25))
    def test_equals_the_materialised_sample(self, monkeypatch, seed):
        """The fabric sweep's sample (2 GPUs / 3 SSDs, cap 12) of
        ``gen:<seed>`` is the list the materialise-then-stride recipe
        gives, and only the sampled placements are built."""
        chassis = _gen_machine(seed).chassis
        want = _reference_sample(chassis, 2, 3, 12)
        built = _count_builds(monkeypatch)
        got = sample_placements(chassis, 2, 3, cap=12)
        assert [p.as_tuple() for p in got] == [p.as_tuple() for p in want]
        assert len(built) == len(got)


# ---------------------------------------------------------------------------
# Warm-start regression: with warm starts gone, the engine and the replan
# request shape still give exactly the cold per-candidate answer
# ---------------------------------------------------------------------------


class TestWarmStartRegression:
    def test_engine_warm_off_bit_identical(self):
        """The engine, which warm-starts no solve, ranks exactly like
        the cold per-candidate reference recipe."""
        machine = machine_a()
        ref_rows, _, _ = _reference_search(machine, 2, 4, FRACTIONS)
        result = run_search(_request(machine, 2, 4))
        assert not hasattr(result, "warm_starts")
        assert _ranking(result.scored) == _ranking(ref_rows)
        assert result.best.throughput == ref_rows[0].throughput

    def test_masked_rescore_with_warm_cut(self):
        """The ReplanPolicy request shape — one pinned candidate and a
        fault mask — predicts the cold solve on the masked topology, and
        the request takes no seed cut (predictions carry none)."""
        machine = machine_a()
        base = run_search(_request(machine, 2, 4))
        placement = base.best.placement
        mask = TopologyMask(
            drop_nodes=(),
            egress_factors=(("ssd0", 0.5),),
            link_factors=(),
        )
        result = run_search(
            _request(machine, 2, 4, candidates=(placement,), mask=mask)
        )
        assert result.best.placement.as_tuple() == placement.as_tuple()
        masked = mask.apply(machine.build(placement))
        cold = min_completion_time(masked, scoring_demand(masked, FRACTIONS))
        assert result.best.prediction == cold
        assert result.best.throughput < base.best.throughput
        assert not hasattr(base.best.prediction, "cut_partition")
        with pytest.raises(TypeError):
            _request(
                machine, 2, 4, candidates=(placement,), mask=mask,
                warm_cut=(),
            )


class TestSearchCounters:
    def test_vectorized_counters_exported(self):
        with obs.capture() as tel:
            result = run_search(_request(machine_a(), 2, 4))
        metrics = tel.snapshot()["metrics"]
        counters = metrics["counters"]
        assert counters["search.unique"] == result.num_unique
        hist = metrics["histograms"]["search.batch_size"]
        assert hist["count"] == result.num_batches
        assert result.num_batches >= 1

    def test_ceiling_counters_exported(self):
        """``search.pass1_scored`` counts what pass 1 scored, and a stop
        reports its hits and where it fell; a full scan reports no
        stop."""
        with obs.capture() as tel:
            stopped = run_search(_request(machine_b(), 2, 4))
        counters = tel.snapshot()["metrics"]["counters"]
        assert stopped.num_pass1_scored < stopped.num_unique
        assert counters["search.pass1_scored"] == stopped.num_pass1_scored
        assert counters["search.pass1_stopped_at"] == stopped.num_pass1_scored
        assert counters["search.ceiling_hits"] == stopped.ceiling_hits
        assert stopped.ceiling_hits >= LP_TOP_K

        with obs.capture() as tel:
            full = run_search(_request(machine_a(), 2, 4, lp_top_k=48))
        counters = tel.snapshot()["metrics"]["counters"]
        assert full.num_pass1_scored == full.num_unique
        assert counters["search.pass1_scored"] == full.num_unique
        assert "search.pass1_stopped_at" not in counters
        assert counters["search.ceiling_hits"] == full.ceiling_hits

    @pytest.mark.parametrize("make_machine", [machine_a, machine_b])
    def test_max_flow_counter(self, make_machine):
        """``search.max_flows`` counts every max flow pass 1 ran; the
        ceiling start runs fewer than cold solves of the same
        candidates."""
        machine = make_machine()
        request = _request(machine, 4, 8, lp_top_k=48)
        with obs.capture() as tel:
            result = run_search(request)
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["search.max_flows"] == result.num_max_flows
        network = FlexibleMaxFlowScorer(FRACTIONS).network(machine, 4, 8)
        canon = CanonicalPlacements(machine.chassis, 4, 8)
        cold = sum(
            solve_template(network.template(p)).max_flows
            for p in canon[: result.num_pass1_scored]
        )
        started = sum(
            solve_template(network.template(p, from_ceiling=True)).max_flows
            for p in canon[: result.num_pass1_scored]
        )
        assert result.num_max_flows == started < cold

"""Ablation benchmarks for the design choices DESIGN.md calls out.

* symmetry pruning — search-space reduction and wall-time effect;
* hotness estimation — pre-sampling vs the degree proxy;
* predictor variants — single-commodity max flow vs multicommodity LP
  against the simulator's measurement.
"""

import numpy as np
import pytest

from repro.core.flowmodel import FlowTemplate, min_completion_time
from repro.core.mcmf import multicommodity_min_time
from repro.core.optimizer import MomentOptimizer, OptimizerConfig
from repro.core.placement import count_placements
from repro.core.symmetry import iter_canonical_placements
from repro.experiments.figures import _dataset
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem
from repro.sampling.hotness import degree_proxy_hotness, presample_hotness

from conftest import run_once


@pytest.fixture(scope="module")
def machine():
    return machine_a()


def test_symmetry_pruning(benchmark, machine, show, quick):
    """Orbit pruning shrinks the placement search space: the direct
    canonical enumeration (timed) against the raw count."""
    raw = count_placements(machine.chassis, 4, 8)

    def canonical():
        return list(iter_canonical_placements(machine.chassis, 4, 8))

    unique = run_once(benchmark, canonical)
    print(
        f"\nsymmetry pruning: {raw} candidates -> {len(unique)} "
        f"({100 * (1 - len(unique) / raw):.0f}% pruned)"
    )
    assert len(unique) < raw


def test_hotness_estimators(benchmark, machine, quick):
    """Degree proxy vs pre-sampling: near-identical plans, no sampling."""
    ds = _dataset("IG", quick)
    sampled = presample_hotness(
        ds.graph, ds.train_ids, ds.batch_size, (25, 10), max_batches=32,
        seed=0,
    )
    proxy = run_once(benchmark, degree_proxy_hotness, ds.graph)
    k = ds.graph.num_vertices // 20
    top_s = set(np.argsort(sampled)[-k:].tolist())
    top_p = set(np.argsort(proxy)[-k:].tolist())
    overlap = len(top_s & top_p) / k
    print(f"\nhot-5% overlap between estimators: {overlap:.2f}")
    assert overlap > 0.4


def test_predictor_variants(benchmark, machine, quick, show):
    """Single-commodity max flow is optimistic; the LP tracks the
    simulator more closely (the reason pass 2 exists)."""
    ds = _dataset("IG", quick)
    moment = MomentSystem(machine)
    r = moment.run(RunSpec(dataset=ds, num_gpus=4, sample_batches=3))
    epoch = r.epoch
    io_epoch = epoch.io_seconds * epoch.num_steps
    measured = epoch.external_bytes / io_epoch
    topo = machine.build(r.placement)

    network = FlowTemplate.from_topology(topo, epoch.demand)
    lp = run_once(benchmark, multicommodity_min_time, network, epoch.demand)
    lp_pred = epoch.demand.total / lp.time
    sc = min_completion_time(topo, epoch.demand)
    sc_pred = epoch.demand.total / sc.time

    err_lp = abs(lp_pred - measured) / measured
    err_sc = abs(sc_pred - measured) / measured
    print(
        f"\nmeasured {measured/1e9:.1f} GB/s | LP {lp_pred/1e9:.1f} "
        f"(err {err_lp*100:.1f}%) | single-commodity {sc_pred/1e9:.1f} "
        f"(err {err_sc*100:.1f}%)"
    )
    assert err_lp <= err_sc + 0.02

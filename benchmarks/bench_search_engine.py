"""Placement-search engine benchmarks (repro.core.search).

Measures the staged engine on the machine-B reference searches: the
serial exhaustive path (workers=1, pruning off — bit-identical to the
pre-engine optimizer) against the engine with bound pruning on and
``REPRO_SEARCH_WORKERS`` processes.  Machine B has no chassis
symmetries, so its searches are the largest (every enumerated candidate
is scored) and the ones the ≥2× parallel-speedup target is defined on.

Quick profile searches 2 GPUs / 4 SSDs (280 candidates); ``REPRO_FULL=1``
runs the full 4 GPUs / 8 SSDs search (1936 candidates).

``test_search_scaling_a`` adds the candidates/sec scaling curve on
machine A (mirrored chassis, symmetry pruning active) over growing
GPU/SSD pools; its 4-GPU/8-SSD point is the acceptance benchmark for
the vectorized-search speedup and is tracked by the warehouse gate as
``bench:candidates_per_s`` (baseline tables under
``benchmarks/baselines/``).
"""

import dataclasses

import pytest

from repro.core.search import default_workers, run_search
from repro.core.optimizer import MomentOptimizer
from repro.experiments.figures import _dataset
from repro.hardware.machines import machine_a, machine_b

from conftest import run_once

#: (GPUs, SSDs) points of the machine-A scaling curve, smallest first.
SCALING_POOLS = ((1, 2), (2, 4), (3, 6), (4, 8))


@pytest.fixture(scope="module")
def machine():
    return machine_b()


def _request(machine, quick, pool=None):
    gpus, ssds = pool if pool is not None else ((2, 4) if quick else (4, 8))
    opt = MomentOptimizer(machine, num_gpus=gpus, num_ssds=ssds)
    ds = _dataset("IG", quick)
    hotness = opt.estimate_hotness(ds)
    fractions, _ = opt.plan_fractions(ds, hotness)
    return opt.search_request(fractions)


def test_search_serial_reference(benchmark, machine, quick):
    """The exhaustive serial path: every unique candidate through both
    scoring passes (the pre-engine behaviour, the speedup baseline)."""
    request = dataclasses.replace(_request(machine, quick), workers=1,
                                  prune_bounds=False)
    result = run_once(benchmark, run_search, request)
    print(
        f"\nserial: {result.num_unique} unique, {result.num_lp_scored} "
        f"LP-scored, {result.seconds:.2f}s"
    )
    assert result.pruned_by_bound == 0


def test_search_parallel_pruned(benchmark, machine, quick):
    """The engine with pruning on and the env-configured worker count.

    The winner's throughput must match the serial reference to 1e-9
    relative (the engine's pruning contract).
    """
    request = _request(machine, quick)
    serial = run_search(
        dataclasses.replace(request, workers=1, prune_bounds=False)
    )
    tuned = dataclasses.replace(
        request, workers=default_workers(), prune_bounds=True
    )
    result = run_once(benchmark, run_search, tuned)
    rel = abs(result.best.throughput - serial.best.throughput) / (
        serial.best.throughput
    )
    print(
        f"\npruned ({result.workers} workers): {result.num_lp_scored} "
        f"LP-scored, {result.pruned_by_bound} pruned by bound, "
        f"{result.seconds:.2f}s "
        f"(serial {serial.seconds:.2f}s); winner rel-diff {rel:.1e}"
    )
    assert rel <= 1e-9
    assert result.pruned_by_bound > 0


@pytest.mark.parametrize("gpus,ssds", SCALING_POOLS)
def test_search_scaling_a(benchmark, quick, gpus, ssds):
    """Candidates/sec scaling curve on machine A (serial, exhaustive).

    One point per (GPUs, SSDs) pool; the ``[4-8]`` point is the
    acceptance benchmark for the vectorized-search speedup.  Runs the
    full pool at every profile — the curve is the deliverable, so the
    quick profile must produce the same points as the full one.
    """
    request = dataclasses.replace(
        _request(machine_a(), quick, pool=(gpus, ssds)),
        workers=1,
        prune_bounds=False,
    )
    result = run_once(benchmark, run_search, request)
    rate = result.num_unique / result.seconds if result.seconds else 0.0
    print(
        f"\nscaling A {gpus}g/{ssds}s: {result.num_candidates} candidates, "
        f"{result.num_unique} unique, {result.seconds:.2f}s, "
        f"{rate:.1f} cand/s"
    )
    assert result.num_unique > 0

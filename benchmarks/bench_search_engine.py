"""Placement-search engine benchmarks (repro.core.search).

Measures the staged engine on the machine-B reference searches: the
serial path (workers=1, bit-identical to the pre-engine optimizer)
against the same search on ``REPRO_SEARCH_WORKERS`` processes, which
must rank identically and stop pass 1 at the same batch.  Machine B has
no chassis symmetries, so every enumerated candidate is canonical; but
pass 1 stops once ``lp_top_k`` candidates reach the storage-egress
ceiling, so the full search scores 288 of its 1936 (9 batches).  That
is about as much work as the pool's start-up and each worker's own
network and HiGHS set-up, so whether the 2-worker pool wins depends on
the host: at 4 GPUs / 8 SSDs one 2-core host took 0.54–0.55 s with
the pool against 0.34–0.39 s inline, another 0.28–0.39 s with the
pool against 0.30–0.46 s inline (6 alternating runs each).  So
``test_search_parallel`` checks that the pool path equals the serial
one and records both timings; it sets no speed-up target.

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
    """The serial path (the parallel path's reference): pass 1 scores the
    canonical candidates in batches until ``lp_top_k`` reach the
    storage-egress ceiling (every one when the pool has no ceiling),
    and pass 2 LP-scores the ``lp_top_k`` best of those."""
    request = dataclasses.replace(_request(machine, quick), workers=1)
    result = run_once(benchmark, run_search, request)
    print(
        f"\nserial: {result.num_unique} unique, {result.num_pass1_scored} "
        f"pass-1 scored, {result.num_lp_scored} LP-scored, "
        f"{result.seconds:.2f}s"
    )
    assert result.num_lp_scored == min(request.lp_top_k, result.num_unique)


def test_search_parallel(benchmark, machine, quick):
    """The engine on the env-configured worker count.

    Its ranking, winning throughput and pass-1 stop must equal the
    serial run's exactly (the engine's determinism contract).
    """
    request = _request(machine, quick)
    serial = run_search(dataclasses.replace(request, workers=1))
    parallel = dataclasses.replace(request, workers=default_workers())
    result = run_once(benchmark, run_search, parallel)
    print(
        f"\nparallel ({result.workers} workers): {result.num_lp_scored} "
        f"LP-scored, {result.seconds:.2f}s (serial {serial.seconds:.2f}s)"
    )
    assert [
        (row.placement.as_tuple(), row.throughput) for row in result.scored
    ] == [(row.placement.as_tuple(), row.throughput) for row in serial.scored]
    assert result.best.throughput == serial.best.throughput
    assert (result.num_pass1_scored, result.num_batches) == (
        serial.num_pass1_scored,
        serial.num_batches,
    )


@pytest.mark.parametrize("gpus,ssds", SCALING_POOLS)
def test_search_scaling_a(benchmark, quick, gpus, ssds):
    """Candidates/sec scaling curve on machine A (serial).

    The rate is canonical candidates (``num_unique``) per search
    second, counting those pass 1 never scored after it stopped at the
    storage-egress ceiling.

    One point per (GPUs, SSDs) pool; the ``[4-8]`` point is the
    acceptance benchmark for the vectorized-search speedup.  Runs the
    full pool at every profile — the curve is the deliverable, so the
    quick profile must produce the same points as the full one.
    """
    request = dataclasses.replace(
        _request(machine_a(), quick, pool=(gpus, ssds)),
        workers=1,
    )
    result = run_once(benchmark, run_search, request)
    rate = result.num_unique / result.seconds if result.seconds else 0.0
    print(
        f"\nscaling A {gpus}g/{ssds}s: {result.num_candidates} candidates, "
        f"{result.num_unique} unique, {result.seconds:.2f}s, "
        f"{rate:.1f} cand/s"
    )
    assert result.num_unique > 0

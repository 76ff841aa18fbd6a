"""Placement-search engine benchmarks (repro.core.search).

``test_search_serial_reference`` times the staged engine on the
machine-B reference search.  Machine B has no chassis symmetries, so
every enumerated candidate is canonical; but pass 1 stops once
``lp_top_k`` candidates reach the storage-egress ceiling, so the full
search scores 288 of its 1936 (9 batches) and LP-scores 48.  Every
search runs inline, in the benchmark's process.

Quick profile searches 2 GPUs / 4 SSDs (280 candidates); ``REPRO_FULL=1``
runs the full 4 GPUs / 8 SSDs search (1936 candidates).

``test_search_scaling_a`` adds the candidates/sec scaling curve on
machine A (mirrored chassis, symmetry pruning active) over growing
GPU/SSD pools; its 4-GPU/8-SSD point is the acceptance benchmark for
the vectorized-search speedup and is tracked by the warehouse gate as
``bench:candidates_per_s`` (baseline tables under
``benchmarks/baselines/``).
"""

import pytest

from repro.core.search import run_search
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
    """The reference search: pass 1 scores the canonical candidates in
    batches until ``lp_top_k`` reach the storage-egress ceiling (every
    one when the pool has no ceiling), and pass 2 LP-scores the
    ``lp_top_k`` best of those."""
    request = _request(machine, quick)
    result = run_once(benchmark, run_search, request)
    print(
        f"\nserial: {result.num_unique} unique, {result.num_pass1_scored} "
        f"pass-1 scored, {result.num_lp_scored} LP-scored, "
        f"{result.seconds:.2f}s"
    )
    assert result.num_lp_scored == min(request.lp_top_k, result.num_unique)


@pytest.mark.parametrize("gpus,ssds", SCALING_POOLS)
def test_search_scaling_a(benchmark, quick, gpus, ssds):
    """Candidates/sec scaling curve on machine A.

    The rate is canonical candidates (``num_unique``) per search
    second, counting those pass 1 never scored after it stopped at the
    storage-egress ceiling.

    One point per (GPUs, SSDs) pool; the ``[4-8]`` point is the
    acceptance benchmark for the vectorized-search speedup.  Runs the
    full pool at every profile — the curve is the deliverable, so the
    quick profile must produce the same points as the full one.
    """
    request = _request(machine_a(), quick, pool=(gpus, ssds))
    result = run_once(benchmark, run_search, request)
    rate = result.num_unique / result.seconds if result.seconds else 0.0
    print(
        f"\nscaling A {gpus}g/{ssds}s: {result.num_candidates} candidates, "
        f"{result.num_unique} unique, {result.seconds:.2f}s, "
        f"{rate:.1f} cand/s"
    )
    assert result.num_unique > 0

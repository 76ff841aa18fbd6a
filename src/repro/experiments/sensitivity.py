"""Sensitivity analyses beyond the paper's figures.

The paper's conclusions rest on a handful of physical parameters; these
sweeps show how robust the reproduction's shapes are to each:

* :func:`sweep_gpu_cache` — epoch time vs HBM cache budget (the
  out-of-core pressure knob);
* :func:`sweep_qpi_bandwidth` — layout (c) vs (b) gap as the socket
  interconnect speeds up (does topology still matter with fast QPI?);
* :func:`sweep_skew` — DDAK-vs-hash gain as graph skew varies (the
  paper's "hash fails because access is skewed" claim, quantified);
* :func:`sweep_feature_dim` — per-vertex embedding size vs throughput
  (IOPS-bound small features vs bandwidth-bound large ones).

Each returns an :class:`~repro.experiments.figures.ExperimentResult` so
the benches print them like the paper figures.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

from repro.experiments.figures import (
    ExperimentResult,
    _HashMomentSystem,
    _batches,
    _dataset,
    _timed,
)
from repro.graphs.datasets import IGB_HOM
from repro.graphs.generators import power_law_graph
from repro.hardware.machines import classic_layouts, machine_a
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem
from repro.utils.report import Table


@_timed
def sweep_gpu_cache(
    quick: bool = False,
    fractions: Sequence[float] = (0.1, 0.3, 0.6, 0.9),
) -> ExperimentResult:
    """Epoch time vs the HBM share given to the embedding cache."""
    ds = _dataset("IG", quick)
    machine = machine_a()
    placement = classic_layouts(machine)["c"]
    table = Table(
        ["gpu_cache_fraction", "epoch_s", "cache_hit_%"],
        title="Sensitivity: GPU embedding-cache budget (layout c, IG)",
    )
    data: Dict[float, float] = {}
    for frac in fractions:
        r = MomentSystem(machine, gpu_cache_fraction=frac).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        e = r.epoch
        hit = e.local_bytes / max(e.local_bytes + e.external_bytes, 1)
        table.add_row([frac, e.paper_epoch_seconds, hit * 100])
        data[frac] = e.paper_epoch_seconds
    return ExperimentResult(
        "sens-cache",
        "GPU cache budget sweep",
        table,
        data=data,
        notes=["bigger caches help monotonically; gains flatten once the "
               "hot set fits"],
    )


@_timed
def sweep_qpi_bandwidth(
    quick: bool = False,
    p2p_bws: Sequence[float] = (4e9, 9e9, 20e9, 40e9),
) -> ExperimentResult:
    """Does hardware placement still matter with a fast interconnect?

    Re-runs layouts (b) and (c) while scaling the cross-socket P2P
    ceiling.  The (c)/(b) gap shrinks as QPI stops being a bottleneck —
    Moment's thesis is strongest on commodity interconnects.
    """
    import repro.hardware.specs as specs
    from repro.baselines.mhyperion import MHyperionSystem

    ds = _dataset("IG", quick)
    machine = machine_a()
    layouts = classic_layouts(machine)
    table = Table(
        ["qpi_p2p_gbs", "epoch_b_s", "epoch_c_s", "gap"],
        title="Sensitivity: cross-socket P2P bandwidth vs layout gap",
    )
    data = {}
    original = specs.QPI_P2P_BW
    try:
        for bw in p2p_bws:
            specs.QPI_P2P_BW = bw
            times = {}
            for key in ("b", "c"):
                r = MHyperionSystem(machine).run(RunSpec(
                    dataset=ds,
                    placement=layouts[key],
                    sample_batches=_batches(quick),
                ))
                times[key] = r.paper_epoch_seconds
            gap = times["b"] / times["c"]
            table.add_row([bw / 1e9, times["b"], times["c"], f"{gap:.2f}x"])
            data[bw] = gap
    finally:
        specs.QPI_P2P_BW = original
    return ExperimentResult(
        "sens-qpi",
        "QPI P2P bandwidth sweep",
        table,
        data=data,
        notes=["the layout gap persists: (b) is bus-9-bound regardless of "
               "QPI speed"],
    )


@_timed
def sweep_skew(
    quick: bool = False,
    exponents: Sequence[float] = (0.0, 0.4, 0.8, 1.1),
) -> ExperimentResult:
    """DDAK-vs-hash gain as a function of degree skew (layout d)."""
    machine = machine_a()
    placement = classic_layouts(machine)["d"]
    base = _dataset("IG", quick)
    table = Table(
        ["zipf_exponent", "ddak_epoch_s", "hash_epoch_s", "gain_%"],
        title="Sensitivity: graph skew vs DDAK gain (layout d)",
    )
    data = {}
    for exp in exponents:
        graph = power_law_graph(
            base.graph.num_vertices,
            base.spec.avg_degree,
            exponent=exp,
            seed=3,
        )
        ds = dataclasses.replace(base, graph=graph)
        ddak = MomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        hashed = _HashMomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        gain = hashed.paper_epoch_seconds / ddak.paper_epoch_seconds - 1
        table.add_row(
            [exp, ddak.paper_epoch_seconds, hashed.paper_epoch_seconds,
             gain * 100]
        )
        data[exp] = gain
    return ExperimentResult(
        "sens-skew",
        "graph-skew sweep",
        table,
        data=data,
        notes=[
            "most of DDAK's (d)-layout gain is bandwidth-proportional "
            "placement (hash loads QPI-crossing drives equally); skew "
            "adds a further edge on top",
        ],
    )


@_timed
def sweep_feature_dim(
    quick: bool = False,
    dims: Sequence[int] = (128, 512, 1024, 4096),
) -> ExperimentResult:
    """Embedding width: small features are IOPS-bound, large ones
    bandwidth-bound (the artifact's "data access granularity" knob)."""
    machine = machine_a()
    placement = classic_layouts(machine)["c"]
    base = _dataset("IG", quick)
    table = Table(
        ["feature_dim", "page_kib", "epoch_s", "fabric_gbs"],
        title="Sensitivity: feature dimension (layout c, IG)",
    )
    data = {}
    for dim in dims:
        graph = dataclasses.replace(base.graph, feature_dim=dim)
        ds = dataclasses.replace(base, graph=graph)
        r = MomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        e = r.epoch
        table.add_row(
            [
                dim,
                dim * 4 / 1024,
                e.paper_epoch_seconds,
                e.throughput_bytes_per_s / 1e9,
            ]
        )
        data[dim] = e.paper_epoch_seconds
    return ExperimentResult(
        "sens-featdim",
        "feature-dimension sweep",
        table,
        data=data,
        notes=["epoch time grows with feature bytes once fetches are "
               "bandwidth-bound"],
    )

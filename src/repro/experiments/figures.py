"""Per-figure/table experiment runners (paper Section 4).

Each ``run_*`` function regenerates the rows/series of one paper
element and returns an :class:`ExperimentResult` holding a printable
table, the raw data, and the paper's reference values for side-by-side
comparison.  The benchmark harness under ``benchmarks/`` is a thin
wrapper around these runners.

Conventions:

* epoch times and throughput are paper-frame (see
  :mod:`repro.simulator.pipeline`);
* throughput is reported as trained seed vertices/second (scale
  invariant) unless a figure calls for bytes/s;
* ``quick=True`` shrinks datasets and simulated batches so the whole
  suite stays test-sized; the benches run the full settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.distdgl import DistDglSystem
from repro.baselines.mgids import MGidsSystem
from repro.baselines.mhyperion import MHyperionSystem
from repro.core.ddak import hash_place, make_bins
from repro.core.flowmodel import FlowTemplate
from repro.core.mcmf import multicommodity_min_time
from repro.core.optimizer import MomentOptimizer, OptimizerConfig
from repro.costs.monetary import cloud_cost_ratio, tco_comparison
from repro.graphs.datasets import DATASETS, DatasetSpec, ScaledDataset, get_dataset
from repro.hardware.machines import (
    MachineSpec,
    classic_layouts,
    cluster_c,
    machine_a,
    machine_b,
    moment_paper_layout_b,
)
from repro.runtime.spec import RunSpec
from repro.runtime.system import GnnSystem, MomentSystem, SystemResult
from repro.utils.report import Table

#: Paper-reported epoch seconds for Figures 1 and 2 (GraphSAGE on IG).
PAPER_FIG1_EPOCHS = {"a": 15.9, "b": 26.7, "c": 14.9, "d": 24.1}
PAPER_FIG2_EPOCHS = {"a": 28.4, "b": 29.7, "c": 18.6, "d": 24.0}
#: Paper headline speedups (Section 4.2).
PAPER_MAX_SPEEDUP_VS_MGIDS = 6.51
PAPER_MAX_SPEEDUP_VS_DISTDGL = 3.02
#: Paper Fig 13 max prediction error.
PAPER_MAX_PREDICTION_ERROR = 0.0861
#: Paper Fig 14/15 max DDAK gains.
PAPER_DDAK_GAIN = {"machine_a": 0.306, "machine_b": 0.340}
#: Paper Fig 16 scaling (1 -> 4 GPUs).
PAPER_SCALING = {
    "machine_a": {"d": 1.92, "c": 1.21, "moment": 2.26},
    "machine_b": {"d": 1.57, "c": 1.21, "moment": 2.21},
}
#: Paper Fig 17 QPI-traffic reductions by DDAK on Machine A.
PAPER_QPI_REDUCTION = {"a": 0.142, "b": 0.087, "c": 0.181, "d": 0.095}
#: Paper Fig 18 NVLink gains.
PAPER_NVLINK_GAIN = {"machine_a": 0.117, "machine_b": 0.068}


@dataclass
class ExperimentResult:
    """One regenerated paper element."""

    experiment_id: str
    title: str
    table: Table
    data: Dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def render(self) -> str:
        """The result header, table, and notes as text."""
        out = [f"== {self.experiment_id}: {self.title} =="]
        out.append(self.table.render())
        for note in self.notes:
            out.append(f"  note: {note}")
        out.append(f"  (regenerated in {self.elapsed_seconds:.1f} s)")
        return "\n".join(out)

    def print(self) -> None:
        """Print :meth:`render` to stdout."""
        print(self.render())


def _machine(name: str) -> MachineSpec:
    if name in ("a", "machine_a"):
        return machine_a()
    if name in ("b", "machine_b"):
        return machine_b()
    raise ValueError(f"unknown machine {name!r}")


@lru_cache(maxsize=16)
def _dataset(key: str, quick: bool, seed: int = 0) -> ScaledDataset:
    spec = get_dataset(key)
    scale = spec.default_scale * (16 if quick else 1)
    return spec.build(scale=scale, seed=seed)


def _batches(quick: bool) -> int:
    return 3 if quick else 8


def _timed(fn):
    """Wrap a runner in an ``experiment.*`` obs span; the span's
    duration (measured even with telemetry off) is the wall time."""

    def wrapper(*args, **kwargs) -> ExperimentResult:
        with obs.span(f"experiment.{fn.__name__}") as sp:
            result = fn(*args, **kwargs)
        result.elapsed_seconds = sp.duration
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
@_timed
def run_table1_machines() -> ExperimentResult:
    """Table 1/3: the evaluation platforms."""
    from repro.utils.units import GiB

    table = Table(
        ["machine", "gpus", "ssds", "cpu", "cpu_mem_gib", "interconnect"],
        title="Table 1: evaluation platforms",
    )
    for m in (machine_a(), machine_b()):
        table.add_row(
            [
                m.name,
                f"4x {m.gpu.name}",
                f"8x {m.ssd.name}",
                m.cpu.name,
                round(m.cpu_mem_total / GiB),
                "PCIe 4.0 x16 + QPI",
            ]
        )
    c = cluster_c()
    table.add_row(
        [
            c.name,
            f"{c.num_machines}x {c.gpu.name}",
            "-",
            c.cpu.name,
            round(c.total_cpu_mem / GiB),
            "PCIe 3.0 x16 + 100Gbps",
        ]
    )
    return ExperimentResult("table1", "evaluation platforms", table)


@_timed
def run_table2_datasets(quick: bool = False) -> ExperimentResult:
    """Table 2: dataset statistics, plus the scaled stand-ins built."""
    table = Table(
        [
            "dataset",
            "vertices",
            "edges",
            "topology",
            "features",
            "scaled_V",
            "scaled_E",
            "skew_gini",
        ],
        title="Table 2: dataset statistics (paper scale | local stand-in)",
    )
    from repro.graphs.generators import degree_gini
    from repro.utils.units import fmt_bytes

    for key, spec in DATASETS.items():
        ds = _dataset(key, quick)
        table.add_row(
            [
                key,
                f"{spec.num_vertices / 1e6:.0f}M",
                f"{spec.num_edges / 1e9:.1f}B",
                fmt_bytes(spec.topology_bytes),
                fmt_bytes(spec.feature_storage_bytes),
                f"{ds.graph.num_vertices:,}",
                f"{ds.graph.num_edges:,}",
                round(degree_gini(ds.graph), 3),
            ]
        )
    return ExperimentResult("table2", "dataset statistics", table)


# ----------------------------------------------------------------------
# Figures 1/2: hardware placement motivation study
# ----------------------------------------------------------------------
def _placement_sweep(
    machine: MachineSpec,
    dataset: ScaledDataset,
    model: str,
    num_gpus: int,
    sample_batches: int,
    system_cls=MHyperionSystem,
) -> Dict[str, SystemResult]:
    system = system_cls(machine)
    out = {}
    for key, placement in classic_layouts(machine, num_gpus=num_gpus).items():
        out[key] = system.run(RunSpec(
            dataset=dataset,
            placement=placement,
            model=model,
            num_gpus=num_gpus,
            sample_batches=sample_batches,
        ))
    return out


@_timed
def run_fig1_placements_a(quick: bool = False) -> ExperimentResult:
    """Figure 1: the four classic layouts on Machine A (epoch time)."""
    ds = _dataset("IG", quick)
    results = _placement_sweep(machine_a(), ds, "graphsage", 4, _batches(quick))
    table = Table(
        ["placement", "epoch_s", "paper_epoch_s"],
        title="Fig 1: hardware placement vs epoch time, Machine A (SAGE/IG)",
    )
    for key in "abcd":
        table.add_row(
            [key, results[key].paper_epoch_seconds, PAPER_FIG1_EPOCHS[key]]
        )
    order = sorted("abcd", key=lambda k: results[k].paper_epoch_seconds)
    paper_order = sorted("abcd", key=lambda k: PAPER_FIG1_EPOCHS[k])
    return ExperimentResult(
        "fig1",
        "placement strategies on Machine A",
        table,
        data={k: r.paper_epoch_seconds for k, r in results.items()},
        notes=[f"measured order {order} vs paper order {paper_order}"],
    )


@_timed
def run_fig2_placements_b(quick: bool = False) -> ExperimentResult:
    """Figure 2: the four classic layouts on Machine B (epoch time)."""
    ds = _dataset("IG", quick)
    results = _placement_sweep(machine_b(), ds, "graphsage", 4, _batches(quick))
    table = Table(
        ["placement", "epoch_s", "paper_epoch_s"],
        title="Fig 2: hardware placement vs epoch time, Machine B (SAGE/IG)",
    )
    for key in "abcd":
        table.add_row(
            [key, results[key].paper_epoch_seconds, PAPER_FIG2_EPOCHS[key]]
        )
    order = sorted("abcd", key=lambda k: results[k].paper_epoch_seconds)
    paper_order = sorted("abcd", key=lambda k: PAPER_FIG2_EPOCHS[k])
    return ExperimentResult(
        "fig2",
        "placement strategies on Machine B",
        table,
        data={k: r.paper_epoch_seconds for k, r in results.items()},
        notes=[f"measured order {order} vs paper order {paper_order}"],
    )


@_timed
def run_fig3_mhyperion_a(quick: bool = False) -> ExperimentResult:
    """Figure 3: M-Hyperion throughput per placement, Machine A (IG+UK)."""
    return _mhyperion_placement_fig("fig3", machine_a(), quick)


@_timed
def run_fig4_mhyperion_b(quick: bool = False) -> ExperimentResult:
    """Figure 4: M-Hyperion throughput per placement, Machine B (IG+UK)."""
    return _mhyperion_placement_fig("fig4", machine_b(), quick)


def _mhyperion_placement_fig(fig_id, machine, quick) -> ExperimentResult:
    table = Table(
        ["dataset", "placement", "kseeds_per_s"],
        title=f"{fig_id}: M-Hyperion throughput per placement, {machine.name}",
    )
    data: Dict = {}
    best_over_b = 0.0
    for key in ("IG", "UK"):
        ds = _dataset(key, quick)
        results = _placement_sweep(
            machine, ds, "graphsage", 4, _batches(quick)
        )
        for pk in "abcd":
            table.add_row([key, pk, results[pk].seeds_per_s / 1e3])
        data[key] = {pk: r.seeds_per_s for pk, r in results.items()}
        best_over_b = max(
            best_over_b, data[key]["c"] / max(data[key]["b"], 1e-9)
        )
    return ExperimentResult(
        fig_id,
        f"M-Hyperion per-placement throughput on {machine.name}",
        table,
        data=data,
        notes=[
            f"best placement (c) over (b): {best_over_b:.2f}x "
            "(paper: 1.86x on A, 1.96x on B)"
        ],
    )


@_timed
def run_fig5_scaling_mhyperion(quick: bool = False) -> ExperimentResult:
    """Figure 5: M-Hyperion 2 vs 4 GPUs under placement (d)."""
    return _binding_scaling_fig("fig5", MHyperionSystem, quick)


@_timed
def run_fig6_scaling_mgids(quick: bool = False) -> ExperimentResult:
    """Figure 6: M-GIDS 2 vs 4 GPUs under placement (d)."""
    return _binding_scaling_fig("fig6", MGidsSystem, quick)


def _binding_scaling_fig(fig_id, system_cls, quick) -> ExperimentResult:
    machine = machine_a()
    system = system_cls(machine)
    table = Table(
        ["dataset", "gpus", "kseeds_per_s"],
        title=f"{fig_id}: {system.name} GPU scaling under placement (d)",
    )
    data: Dict = {}
    for key in ("IG", "UK"):
        ds = _dataset(key, quick)
        per_gpu = {}
        for n in (2, 4):
            placement = classic_layouts(machine, num_gpus=n)["d"]
            r = system.run(RunSpec(
                dataset=ds,
                placement=placement,
                num_gpus=n,
                sample_batches=_batches(quick),
            ))
            per_gpu[n] = r.seeds_per_s if r.ok else 0.0
            table.add_row([key, n, per_gpu[n] / 1e3])
        data[key] = per_gpu
    notes = []
    for key, per_gpu in data.items():
        if per_gpu[2] > 0:
            ratio = per_gpu[4] / per_gpu[2]
            notes.append(
                f"{key}: 4-GPU/2-GPU = {ratio:.2f}x "
                "(paper: little or decreased throughput)"
            )
    return ExperimentResult(
        fig_id,
        "negative GPU scaling under placement (d)",
        table,
        data=data,
        notes=notes,
    )


@_timed
def run_fig7_moment_placement(quick: bool = False) -> ExperimentResult:
    """Figure 7: Moment's optimized placement on Machine B."""
    machine = machine_b()
    ds = _dataset("IG", quick)
    moment = MomentSystem(machine)
    r = moment.run(RunSpec(dataset=ds, sample_batches=_batches(quick)))
    fig7 = moment.run(RunSpec(
        dataset=ds,
        placement=moment_paper_layout_b(machine),
        sample_batches=_batches(quick),
    ))
    best_classic = _placement_sweep(
        machine, ds, "graphsage", 4, _batches(quick), MomentSystem
    )
    table = Table(
        ["layout", "epoch_s", "per_gpu_inlet_gbs"],
        title="Fig 7: Moment's placement on Machine B (paper epoch 13.2 s,"
        " 15.61 GB/s per-GPU inlet)",
    )

    def inlet(res):
        rates = list(res.epoch.per_gpu_inlet.values())
        return float(np.mean(rates)) / 1e9 if rates else 0.0

    table.add_row(["moment (searched)", r.paper_epoch_seconds, inlet(r)])
    table.add_row(["paper fig-7 layout", fig7.paper_epoch_seconds, inlet(fig7)])
    best_c = best_classic["c"]
    table.add_row(["classic (c)", best_c.paper_epoch_seconds, inlet(best_c)])
    return ExperimentResult(
        "fig7",
        "Moment placement on Machine B",
        table,
        data={
            "moment_epoch_s": r.paper_epoch_seconds,
            "fig7_epoch_s": fig7.paper_epoch_seconds,
            "classic_c_epoch_s": best_c.paper_epoch_seconds,
            "moment_placement": repr(r.placement),
        },
        notes=[f"searched placement: {r.placement!r}"],
    )


# ----------------------------------------------------------------------
# Figure 10: end-to-end throughput
# ----------------------------------------------------------------------
@_timed
def run_fig10_end_to_end(
    quick: bool = False,
    datasets: Sequence[str] = ("PA", "IG", "UK", "CL"),
    models: Sequence[str] = ("graphsage", "gat"),
) -> ExperimentResult:
    """Figure 10: Moment vs M-GIDS vs DistDGL on all datasets/models."""
    machine = machine_a()
    table = Table(
        ["dataset", "model", "moment", "m-gids", "distdgl"],
        title="Fig 10: end-to-end throughput (kseeds/s; X = OOM)",
    )
    data: Dict = {}
    speedup_gids = []
    speedup_dgl = []
    for key in datasets:
        ds = _dataset(key, quick)
        # baselines do not optimise hardware placement: they run the
        # stock front-bay server layout (a)
        stock = classic_layouts(machine)["a"]
        for model in models:
            moment = MomentSystem(machine).run(RunSpec(
                dataset=ds, model=model, sample_batches=_batches(quick)
            ))
            mgids = MGidsSystem(machine).run(RunSpec(
                dataset=ds,
                placement=stock,
                model=model,
                sample_batches=_batches(quick),
            ))
            dgl = DistDglSystem().run(RunSpec(
                dataset=ds, model=model, sample_batches=_batches(quick)
            ))

            def cell(ok: bool, seeds: float) -> str:
                return f"{seeds / 1e3:.1f}" if ok else "X"

            table.add_row(
                [
                    key,
                    model,
                    cell(moment.ok, moment.seeds_per_s),
                    cell(mgids.ok, mgids.seeds_per_s),
                    cell(dgl.ok, dgl.seeds_per_s),
                ]
            )
            data[(key, model)] = {
                "moment": moment.seeds_per_s if moment.ok else None,
                "m-gids": mgids.seeds_per_s if mgids.ok else None,
                "distdgl": dgl.seeds_per_s if dgl.ok else None,
            }
            if mgids.ok:
                speedup_gids.append(moment.seeds_per_s / mgids.seeds_per_s)
            if dgl.ok:
                speedup_dgl.append(moment.seeds_per_s / dgl.seeds_per_s)
    notes = [
        f"max speedup vs M-GIDS: {max(speedup_gids):.2f}x (paper up to "
        f"{PAPER_MAX_SPEEDUP_VS_MGIDS}x; paper M-GIDS OOMs on UK/CL)",
        f"max speedup vs DistDGL: {max(speedup_dgl):.2f}x (paper up to "
        f"{PAPER_MAX_SPEEDUP_VS_DISTDGL}x; paper DistDGL OOMs on IG/UK/CL)",
    ]
    return ExperimentResult(
        "fig10", "end-to-end throughput", table, data=data, notes=notes
    )


# ----------------------------------------------------------------------
# Figures 11/12: classic placements + Moment
# ----------------------------------------------------------------------
@_timed
def run_fig11_placements_vs_moment_a(quick: bool = False) -> ExperimentResult:
    return _placements_vs_moment_fig("fig11", machine_a(), quick)


@_timed
def run_fig12_placements_vs_moment_b(quick: bool = False) -> ExperimentResult:
    return _placements_vs_moment_fig("fig12", machine_b(), quick)


def _placements_vs_moment_fig(fig_id, machine, quick) -> ExperimentResult:
    ds = _dataset("IG", quick)
    gpu_counts = (2, 4) if quick else (2, 3, 4)
    models = ("graphsage",) if quick else ("graphsage", "gat")
    table = Table(
        ["model", "gpus", "a", "b", "c", "d", "moment", "speedup"],
        title=f"{fig_id}: classic placements vs Moment on {machine.name} "
        "(kseeds/s)",
    )
    data: Dict = {}
    max_speedup = 0.0
    max_vs_any = 0.0
    for model in models:
        for n in gpu_counts:
            classics = _placement_sweep(
                machine, ds, model, n, _batches(quick), MomentSystem
            )
            moment = MomentSystem(machine).run(RunSpec(
                dataset=ds, model=model, num_gpus=n,
                sample_batches=_batches(quick),
            ))
            best_classic = max(r.seeds_per_s for r in classics.values())
            worst_classic = min(r.seeds_per_s for r in classics.values())
            speedup = moment.seeds_per_s / max(best_classic, 1e-9)
            max_speedup = max(max_speedup, speedup)
            max_vs_any = max(
                max_vs_any, moment.seeds_per_s / max(worst_classic, 1e-9)
            )
            table.add_row(
                [
                    model,
                    n,
                    *(classics[k].seeds_per_s / 1e3 for k in "abcd"),
                    moment.seeds_per_s / 1e3,
                    f"{speedup:.2f}x",
                ]
            )
            data[(model, n)] = {
                **{k: classics[k].seeds_per_s for k in "abcd"},
                "moment": moment.seeds_per_s,
            }
    paper = "1.54x" if machine.name == "machine_a" else "1.63x"
    return ExperimentResult(
        fig_id,
        f"Moment vs classic placements on {machine.name}",
        table,
        data=data,
        notes=[
            f"max Moment speedup over best classic: {max_speedup:.2f}x, "
            f"over any classic: {max_vs_any:.2f}x "
            f"(paper: up to {paper} over the classics)"
        ],
    )


# ----------------------------------------------------------------------
# Figure 13: prediction accuracy
# ----------------------------------------------------------------------
@_timed
def run_fig13_prediction(
    quick: bool = False,
    datasets: Sequence[str] = ("PA", "IG", "UK", "CL"),
) -> ExperimentResult:
    """Figure 13: predicted vs measured throughput on both machines."""
    if quick:
        datasets = ("PA", "IG")
    table = Table(
        ["machine", "dataset", "gpus", "measured_gbs", "predicted_gbs", "err_%"],
        title="Fig 13: automatic-module prediction accuracy "
        f"(paper max error {PAPER_MAX_PREDICTION_ERROR * 100:.1f}%)",
    )
    errors = []
    data: Dict = {}
    # prediction accuracy needs a low-variance measurement: simulate
    # more steps than the other figures
    n_batches = 4 if quick else 20
    for machine in (machine_a(), machine_b()):
        for key in datasets:
            ds = _dataset(key, quick)
            for n in (2, 4):
                moment = MomentSystem(machine)
                r = moment.run(RunSpec(
                    dataset=ds, num_gpus=n, sample_batches=n_batches
                ))
                if not r.ok:
                    continue
                epoch = r.epoch
                io_epoch = epoch.io_seconds * epoch.num_steps
                measured = epoch.external_bytes / max(io_epoch, 1e-9)
                topo = machine.build(r.placement)
                pred = multicommodity_min_time(
                    FlowTemplate.from_topology(topo, epoch.demand), epoch.demand
                )
                predicted = epoch.demand.total / max(pred.time, 1e-9)
                err = abs(predicted - measured) / measured
                errors.append(err)
                table.add_row(
                    [
                        machine.name,
                        key,
                        n,
                        measured / 1e9,
                        predicted / 1e9,
                        err * 100,
                    ]
                )
                data[(machine.name, key, n)] = {
                    "measured": measured,
                    "predicted": predicted,
                    "error": err,
                }
    notes = [
        f"max prediction error: {max(errors) * 100:.2f}% "
        f"(paper: {PAPER_MAX_PREDICTION_ERROR * 100:.2f}%)"
    ]
    return ExperimentResult(
        "fig13", "prediction accuracy", table, data=data, notes=notes
    )


# ----------------------------------------------------------------------
# Figures 14/15/17: DDAK vs hash
# ----------------------------------------------------------------------
class _HashMomentSystem(MomentSystem):
    """Moment's runtime with hash data placement (the Fig-14 baseline)."""

    name = "moment-hash"

    def place_data(self, topo, dataset, hotness, plan, traffic=None):
        bins = make_bins(
            topo,
            gpu_cache_bytes=plan.gpu_cache_bytes,
            cpu_cache_bytes=plan.cpu_cache_bytes,
            ssd_capacity_bytes=plan.ssd_capacity_bytes,
        )
        return hash_place(bins, hotness, dataset.feature_bytes)


def _ddak_vs_hash(
    machine: MachineSpec, quick: bool
) -> Dict[str, Dict[str, SystemResult]]:
    ds = _dataset("IG", quick)
    out: Dict[str, Dict[str, SystemResult]] = {}
    for key, placement in classic_layouts(machine).items():
        ddak = MomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        hashed = _HashMomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        out[key] = {"ddak": ddak, "hash": hashed}
    return out


@_timed
def run_fig14_ddak_a(quick: bool = False) -> ExperimentResult:
    return _ddak_fig("fig14", machine_a(), quick)


@_timed
def run_fig15_ddak_b(quick: bool = False) -> ExperimentResult:
    return _ddak_fig("fig15", machine_b(), quick)


def _ddak_fig(fig_id, machine, quick) -> ExperimentResult:
    results = _ddak_vs_hash(machine, quick)
    table = Table(
        ["placement", "ddak_epoch_s", "hash_epoch_s", "gain_%"],
        title=f"{fig_id}: DDAK vs hash placement on {machine.name} "
        f"(paper max gain {PAPER_DDAK_GAIN[machine.name] * 100:.1f}%)",
    )
    gains = {}
    for key in "abcd":
        d = results[key]["ddak"].paper_epoch_seconds
        h = results[key]["hash"].paper_epoch_seconds
        gains[key] = h / d - 1
        table.add_row([key, d, h, gains[key] * 100])
    return ExperimentResult(
        fig_id,
        f"DDAK gains on {machine.name}",
        table,
        data=gains,
        notes=[
            f"max gain {max(gains.values()) * 100:.1f}% "
            f"(paper {PAPER_DDAK_GAIN[machine.name] * 100:.1f}%)"
        ],
    )


@_timed
def run_fig17_qpi_traffic(quick: bool = False) -> ExperimentResult:
    """Figure 17: cross-QPI traffic, hash vs DDAK, Machine A."""
    results = _ddak_vs_hash(machine_a(), quick)
    table = Table(
        ["placement", "hash_qpi_gb", "ddak_qpi_gb", "reduction_%", "paper_%"],
        title="Fig 17: QPI traffic per epoch, hash vs DDAK (Machine A)",
    )
    data = {}
    for key in "abcd":
        qd = results[key]["ddak"].epoch.traffic.qpi_bytes
        qh = results[key]["hash"].epoch.traffic.qpi_bytes
        red = 1 - qd / max(qh, 1e-9)
        data[key] = red
        table.add_row(
            [key, qh / 1e9, qd / 1e9, red * 100, PAPER_QPI_REDUCTION[key] * 100]
        )
    return ExperimentResult(
        "fig17", "QPI traffic hash vs DDAK", table, data=data
    )


# ----------------------------------------------------------------------
# Figure 16: scalability
# ----------------------------------------------------------------------
@_timed
def run_fig16_scalability(
    quick: bool = False, machines: Sequence[str] = ("a", "b")
) -> ExperimentResult:
    """Figure 16: Moment vs placements (c)/(d) from 1 to 4 GPUs."""
    table = Table(
        ["machine", "system", "1gpu", "2gpu", "3gpu", "4gpu", "scaling"],
        title="Fig 16: scalability, kseeds/s (IG, GraphSAGE)",
    )
    gpu_counts = (1, 2, 4) if quick else (1, 2, 3, 4)
    data: Dict = {}
    ds = _dataset("IG", quick)
    for mname in machines:
        machine = _machine(mname)
        rows: Dict[str, Dict[int, float]] = {"c": {}, "d": {}, "moment": {}}
        for n in gpu_counts:
            layouts = classic_layouts(machine, num_gpus=n)
            for key in ("c", "d"):
                r = MomentSystem(machine).run(RunSpec(
                    dataset=ds,
                    placement=layouts[key],
                    num_gpus=n,
                    sample_batches=_batches(quick),
                ))
                rows[key][n] = r.seeds_per_s
            rm = MomentSystem(machine).run(RunSpec(
                dataset=ds, num_gpus=n, sample_batches=_batches(quick)
            ))
            rows["moment"][n] = rm.seeds_per_s
        for sysname, per_gpu in rows.items():
            scaling = per_gpu[max(gpu_counts)] / max(per_gpu[1], 1e-9)
            paper = PAPER_SCALING[machine.name][sysname]
            table.add_row(
                [
                    machine.name,
                    sysname,
                    *(
                        per_gpu.get(n, float("nan")) / 1e3
                        for n in (1, 2, 3, 4)
                    ),
                    f"{scaling:.2f}x (paper {paper:.2f}x)",
                ]
            )
            data[(machine.name, sysname)] = per_gpu
    return ExperimentResult("fig16", "GPU scalability", table, data=data)


# ----------------------------------------------------------------------
# Figure 18: NVLink support
# ----------------------------------------------------------------------
@_timed
def run_fig18_nvlink(quick: bool = False) -> ExperimentResult:
    """Figure 18: NVLink on/off under placement (c)."""
    ds = _dataset("IG", quick)
    table = Table(
        ["machine", "no_nvlink_s", "nvlink_s", "gain_%", "paper_%"],
        title="Fig 18: NVLink vs no-NVLink, placement (c), IG",
    )
    data = {}
    for machine in (machine_a(), machine_b()):
        placement = classic_layouts(machine)["c"]
        pairs = [(0, 2), (1, 3)]  # bridges across the two switches
        base = MomentSystem(machine).run(RunSpec(
            dataset=ds, placement=placement, sample_batches=_batches(quick)
        ))
        nv = MomentSystem(machine).run(RunSpec(
            dataset=ds,
            placement=placement,
            sample_batches=_batches(quick),
            nvlink_pairs=pairs,
        ))
        gain = base.paper_epoch_seconds / nv.paper_epoch_seconds - 1
        data[machine.name] = gain
        table.add_row(
            [
                machine.name,
                base.paper_epoch_seconds,
                nv.paper_epoch_seconds,
                gain * 100,
                PAPER_NVLINK_GAIN[machine.name] * 100,
            ]
        )
    return ExperimentResult("fig18", "NVLink support", table, data=data)


# ----------------------------------------------------------------------
# Section 4.2 cost claims and Section 3.3 pooling cost
# ----------------------------------------------------------------------
@_timed
def run_cost_tco() -> ExperimentResult:
    """Section 4.2: monetary cost (~50%) and 5-year TCO comparison."""
    tco = tco_comparison()
    ratio = cloud_cost_ratio()
    table = Table(
        ["metric", "value", "paper"],
        title="Section 4.2: monetary cost",
    )
    table.add_row(["cloud hourly ratio (1 box vs 4 nodes)", f"{ratio:.2f}", "~0.50"])
    table.add_row(
        ["5y TCO, Machine A/B", f"${tco['machine_a_b_usd']:,.0f}", "$90,270"]
    )
    table.add_row(
        ["5y TCO, Cluster C", f"${tco['cluster_c_usd']:,.0f}", "$181,100"]
    )
    return ExperimentResult(
        "cost", "monetary cost and TCO", table, data={**tco, "cloud": ratio}
    )


@_timed
def run_ddak_pooling(quick: bool = False) -> ExperimentResult:
    """Section 3.3: DDAK pooling factor n — planning time vs epoch time."""
    from repro.core.ddak import ddak_place
    from repro.core.optimizer import (
        MomentOptimizer,
        OptimizerConfig,
        capacity_plan,
    )

    machine = machine_a()
    ds = _dataset("UK" if not quick else "PA", quick)
    opt = MomentOptimizer(machine, 4, 8)
    hotness = opt.estimate_hotness(ds)
    plan = opt.optimize(ds, hotness=hotness)
    cap = capacity_plan(machine, ds)
    bins = make_bins(
        plan.topology,
        gpu_cache_bytes=cap.gpu_cache_bytes,
        cpu_cache_bytes=cap.cpu_cache_bytes,
        ssd_capacity_bytes=cap.ssd_capacity_bytes,
        traffic=plan.prediction.storage_rate,
    )
    table = Table(
        ["pool_n", "plan_ms", "epoch_s"],
        title="DDAK pooling factor sweep (paper: n=100, ~14 s offline on UK)",
    )
    data = {}
    pools = (10, 100, 1000) if quick else (1, 10, 100, 1000, 10000)
    from repro.runtime.system import MomentSystem as _MS
    from repro.simulator.pipeline import EpochSimulator, SimConfig

    for n in pools:
        t0 = time.perf_counter()
        dp = ddak_place(bins, hotness, ds.feature_bytes, pool_size=n)
        plan_ms = (time.perf_counter() - t0) * 1e3
        sim = EpochSimulator(
            plan.topology,
            machine,
            ds,
            dp,
            SimConfig(sample_batches=_batches(quick)),
        )
        epoch = sim.run_epoch()
        data[n] = {"plan_ms": plan_ms, "epoch_s": epoch.paper_epoch_seconds}
        table.add_row([n, plan_ms, epoch.paper_epoch_seconds])
    return ExperimentResult(
        "pooling",
        "DDAK pooling factor",
        table,
        data=data,
        notes=["larger n plans faster; epoch time degrades only slowly"],
    )

"""The paper's evaluation platforms (Tables 1/3, Figures 1, 2, 7).

* :func:`machine_a` — balanced PCIe topology: two mirrored sides, each a
  root complex with four direct NVMe bays (buses 1–4 / 5–8) and a PCIe
  switch on a x16 uplink (bus 9 / bus 10) carrying twelve slot units.
* :func:`machine_b` — cascaded PCIe topology: RC0 feeds switch 0 over
  bus 11, switch 1 hangs off switch 0 over bus 16 (the contended link of
  Section 2.3), RC0/RC1 each expose one direct x16 slot, and RC1 carries
  four NVMe bays.
* :func:`cluster_c` — the four-node DistDGL cluster, described by specs
  only (the distributed baseline is modelled analytically).

The four "classic" layouts of Figures 1/2 are provided as named
placements, and :func:`classic_layouts` returns them in paper order
(a)–(d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.placement import (
    Chassis,
    GPU,
    Placement,
    SSD,
    build_topology,
)
from repro.core.topology import Topology
from repro.hardware.specs import (
    GpuSpec,
    SsdSpec,
    XEON_GOLD_5320,
    XEON_GOLD_6426Y,
    CpuSpec,
)


@dataclass(frozen=True)
class MachineSpec:
    """A machine: chassis plus its CPU/GPU/SSD part numbers.

    ``gpu``/``ssd`` are the *primary* parts (memory budgeting, capacity
    planning); heterogeneous fabrics list per-slot-group deviations in
    ``gpu_overrides``/``ssd_overrides`` (tuples of ``(group_name,
    part)`` pairs so the spec stays hashable and pickles into search
    worker processes).  ``fabric_spec`` records the declarative
    :class:`~repro.hardware.fabric.FabricSpec` this machine was
    compiled from, when it was (None for hand-built chassis).
    """

    name: str
    chassis: Chassis
    cpu: CpuSpec
    gpu: GpuSpec
    ssd: SsdSpec
    num_sockets: int = 2
    gpu_overrides: Tuple[Tuple[str, GpuSpec], ...] = ()
    ssd_overrides: Tuple[Tuple[str, SsdSpec], ...] = ()
    fabric_spec: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def build(
        self,
        placement: Placement,
        nvlink_pairs: Optional[Sequence[Tuple[int, int]]] = None,
        validate: bool = True,
    ) -> Topology:
        """Instantiate the runtime topology for a placement.

        ``validate=False`` skips the chassis/topology invariant sweeps —
        the search engine's hot path builds hundreds of topologies from
        the already-validated enumeration and opts out.
        """
        return build_topology(
            placement,
            self.gpu,
            self.ssd,
            nvlink_pairs=nvlink_pairs,
            name=f"{self.name}/{placement.name or 'custom'}",
            gpu_specs=dict(self.gpu_overrides) or None,
            ssd_specs=dict(self.ssd_overrides) or None,
            validate=validate,
        )

    @property
    def cpu_mem_total(self) -> float:
        """Total DRAM across both sockets (bytes)."""
        return self.cpu.mem_bytes * self.num_sockets


def machine_a(cpu: CpuSpec = XEON_GOLD_5320) -> MachineSpec:
    """Machine A: balanced topology (Figure 1).

    Compiled from its declarative spec
    (:func:`repro.hardware.fabric.machine_a_spec`); the hand-built
    construction in ``tests/oracles.py`` is the equality oracle for the
    compiler tests.
    """
    from repro.hardware.fabric import compile_fabric, machine_a_spec

    return compile_fabric(machine_a_spec(cpu))


def machine_b(cpu: CpuSpec = XEON_GOLD_6426Y) -> MachineSpec:
    """Machine B: cascaded topology (Figure 2; Fig 7 for Moment's layout).

    Compiled from :func:`repro.hardware.fabric.machine_b_spec`; the
    hand-built construction in ``tests/oracles.py`` is the equality
    oracle.
    """
    from repro.hardware.fabric import compile_fabric, machine_b_spec

    return compile_fabric(machine_b_spec(cpu))


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster C: four single-GPU machines on a 100 Gbps network."""

    name: str
    num_machines: int
    cpu: CpuSpec
    gpu: GpuSpec
    gpu_link_bw: float
    nic_bw: float

    @property
    def cpu_mem_per_machine(self) -> float:
        """DRAM per cluster node (dual socket, bytes)."""
        return self.cpu.mem_bytes * 2  # dual socket

    @property
    def total_cpu_mem(self) -> float:
        """Aggregate DRAM across the cluster (bytes)."""
        return self.cpu_mem_per_machine * self.num_machines


def cluster_c() -> ClusterSpec:
    """Cluster C, lowered from its declarative spec
    (:func:`repro.hardware.fabric.cluster_c_fabric`)."""
    from repro.hardware.fabric import cluster_c_fabric, compile_cluster

    return compile_cluster(cluster_c_fabric())


# ----------------------------------------------------------------------
# The four classic layouts of Figures 1 and 2
# ----------------------------------------------------------------------
def _counts(**groups: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    return {g.replace("__", "."): v for g, v in groups.items()}


def classic_layouts(
    machine: MachineSpec, num_gpus: int = 4, num_ssds: int = 8
) -> Dict[str, Placement]:
    """Layouts (a)-(d) from the paper's Figures 1/2.

    * ``a`` — SSDs on the front-board direct bays, GPUs split across the
      two switches;
    * ``b`` — SSDs on the bays, all GPUs on one switch (P2P-prioritised);
    * ``c`` — SSDs split across the switches next to the GPUs, GPUs
      split too (the best classic layout);
    * ``d`` — SSDs split across switches, all GPUs on one switch.

    ``num_gpus``/``num_ssds`` scale the layouts for the 1-4 GPU
    scalability studies; devices are assigned in the same spirit
    (GPUs split or together, SSDs bays-first or switch-split).
    """
    ch = machine.chassis
    is_b = "rc0.x16" in ch.group_names

    def split(n: int) -> Tuple[int, int]:
        return (n + 1) // 2, n // 2

    g0, g1 = split(num_gpus)
    s0, s1 = split(num_ssds)
    bay0 = min(num_ssds, 4)
    bay1 = min(num_ssds - bay0, 4)
    if bay0 + bay1 < num_ssds:
        raise ValueError("classic bay layouts support at most 8 SSDs")

    layouts = {
        "a": Placement(
            ch,
            {
                "rc0.bays": {SSD: bay0},
                "rc1.bays": {SSD: bay1},
                "plx0.slots": {GPU: g0},
                "plx1.slots": {GPU: g1},
            },
            name="classic_a",
        ),
        "b": Placement(
            ch,
            {
                "rc0.bays": {SSD: bay0},
                "rc1.bays": {SSD: bay1},
                "plx0.slots": {GPU: num_gpus},
            },
            name="classic_b",
        ),
        "c": Placement(
            ch,
            {
                "plx0.slots": {GPU: g0, SSD: s0},
                "plx1.slots": {GPU: g1, SSD: s1},
            },
            name="classic_c",
        ),
        "d": Placement(
            ch,
            {
                "plx0.slots": {GPU: num_gpus, SSD: min(s0, 12 - 2 * num_gpus)},
                "plx1.slots": {SSD: num_ssds - min(s0, 12 - 2 * num_gpus)},
            },
            name="classic_d",
        ),
    }
    return layouts


def moment_paper_layout_b(machine: MachineSpec) -> Placement:
    """The placement Moment's optimizer reports on Machine B (Figure 7):
    GPU0 on RC0's direct slot, GPU3 on RC1's, four SSDs on RC1's bays,
    two SSDs on switch 0, two SSDs plus two GPUs on switch 1."""
    ch = machine.chassis
    if "rc0.x16" not in ch.group_names:
        raise ValueError("Figure-7 layout is specific to Machine B")
    return Placement(
        ch,
        {
            "rc0.x16": {GPU: 1},
            "rc1.x16": {GPU: 1},
            "rc1.bays": {SSD: 4},
            "plx0.slots": {SSD: 2},
            "plx1.slots": {GPU: 2, SSD: 2},
        },
        name="moment_fig7",
    )

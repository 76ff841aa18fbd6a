"""Hardware placement: slots, chassis, placements, and enumeration.

The paper searches over *where to physically install* GPUs and SSDs in a
server's PCIe slots.  We model the server as a :class:`Chassis` — the
immutable interconnect skeleton (root complexes, switches, trunk links,
CPU memory) plus :class:`SlotGroup` s of interchangeable slots — and a
:class:`Placement` that says how many devices of each kind go in each
group.  Slots within a group are electrically identical, so only counts
matter ("PCIe switch symmetry" in the paper falls out for free);
cross-group symmetry is handled by :mod:`repro.core.symmetry`.

Slot arithmetic follows the paper's physical constraints: an A100
consumes two slot units (dual-width card), an NVMe SSD one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.core.topology import LinkKind, Node, NodeKind, Topology
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.specs import GpuSpec, SsdSpec

#: Device kinds a slot can host.
GPU = "gpu"
SSD = "ssd"
DEVICE_KINDS = (GPU, SSD)

#: Slot units consumed per device kind (paper: dual slots for A100-class
#: GPUs, single slots for NVMe SSDs).
SLOT_UNITS = {GPU: 2, SSD: 1}


@dataclass(frozen=True)
class SlotGroup:
    """A set of interchangeable slots hanging off one interconnect node.

    Attributes
    ----------
    name:
        Unique group id, e.g. ``"plx0.slots"`` or ``"rc0.bays"``.
    attach:
        Interconnect node the slots are wired to.
    units:
        Total slot units available (a dual-width GPU uses 2).
    link_bw:
        Per-device link bandwidth for devices in this group (bytes/s) —
        determined by the slot's lane width.
    allowed:
        Device kinds that physically fit (``{"gpu", "ssd"}``).
    bus_label:
        Optional bus name from the paper's figures for reports.
    tag:
        Free-form electrical identity marker.  Groups whose slots host
        different device *parts* (e.g. mixed GPU generations on a
        heterogeneous fabric) carry distinct tags so the symmetry
        engine never treats them as swappable.  Empty for homogeneous
        machines (the historical behaviour).
    """

    name: str
    attach: str
    units: int
    link_bw: float
    allowed: FrozenSet[str] = frozenset(DEVICE_KINDS)
    bus_label: str = ""
    tag: str = ""

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise ValueError(f"slot group {self.name!r} must have units > 0")
        check_positive("link_bw", self.link_bw)
        bad = set(self.allowed) - set(DEVICE_KINDS)
        if bad:
            raise ValueError(f"unknown device kinds {bad} in group {self.name!r}")

    def capacity_for(self, kind: str) -> int:
        """Max devices of ``kind`` if the group held only that kind."""
        if kind not in self.allowed:
            return 0
        return self.units // SLOT_UNITS[kind]


@dataclass(frozen=True)
class TrunkLink:
    """A fixed (non-slot) link of the chassis skeleton."""

    a: str
    b: str
    capacity: float
    kind: LinkKind = LinkKind.PCIE
    label: str = ""


@dataclass(frozen=True)
class MemoryBank:
    """A CPU DRAM bank attached to one root complex."""

    name: str
    attach: str
    capacity_bytes: float
    bandwidth: float


@dataclass
class Chassis:
    """The immutable part of a server: interconnects, trunks, memory, slots."""

    name: str
    interconnects: Dict[str, NodeKind] = field(default_factory=dict)
    trunks: List[TrunkLink] = field(default_factory=list)
    memories: List[MemoryBank] = field(default_factory=list)
    slot_groups: List[SlotGroup] = field(default_factory=list)

    def add_interconnect(self, name: str, kind: NodeKind) -> None:
        """Register a root complex or switch on the skeleton."""
        if not kind.is_interconnect:
            raise ValueError(f"{kind} is not an interconnect kind")
        if name in self.interconnects:
            raise ValueError(f"duplicate interconnect {name!r}")
        self.interconnects[name] = kind

    def add_trunk(
        self,
        a: str,
        b: str,
        capacity: float,
        kind: LinkKind = LinkKind.PCIE,
        label: str = "",
    ) -> None:
        """Add a fixed (non-slot) link between interconnects."""
        self.trunks.append(TrunkLink(a, b, capacity, kind, label))

    def add_memory(
        self, name: str, attach: str, capacity_bytes: float, bandwidth: float
    ) -> None:
        """Attach a DRAM bank to a root complex."""
        self.memories.append(MemoryBank(name, attach, capacity_bytes, bandwidth))

    def add_slot_group(self, group: SlotGroup) -> None:
        """Register a slot group (validates its attach point)."""
        if any(g.name == group.name for g in self.slot_groups):
            raise ValueError(f"duplicate slot group {group.name!r}")
        if group.attach not in self.interconnects:
            raise ValueError(
                f"slot group {group.name!r} attaches to unknown node "
                f"{group.attach!r}"
            )
        self.slot_groups.append(group)

    def group(self, name: str) -> SlotGroup:
        """Look up a slot group by name (raises ``KeyError``)."""
        for g in self.slot_groups:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def group_names(self) -> List[str]:
        """Slot-group names in declaration order."""
        return [g.name for g in self.slot_groups]

    def validate(self) -> None:
        """Check skeleton references; raises ``ValueError``."""
        names = set(self.interconnects)
        for t in self.trunks:
            if t.a not in names or t.b not in names:
                raise ValueError(f"trunk {t} references unknown interconnect")
        for m in self.memories:
            if m.attach not in names:
                raise ValueError(f"memory {m.name!r} attaches to unknown node")


class Placement:
    """An assignment of device counts to slot groups.

    Immutable and hashable; ``counts[group][kind]`` is the number of
    devices of ``kind`` installed in ``group``.
    """

    def __init__(
        self,
        chassis: Chassis,
        counts: Mapping[str, Mapping[str, int]],
        name: str = "",
    ) -> None:
        self.chassis = chassis
        self.name = name
        norm: Dict[str, Dict[str, int]] = {}
        for gname, per_kind in counts.items():
            group = chassis.group(gname)  # raises KeyError on unknown group
            used = 0
            row: Dict[str, int] = {}
            for kind, n in per_kind.items():
                if kind not in DEVICE_KINDS:
                    raise ValueError(f"unknown device kind {kind!r}")
                if n < 0:
                    raise ValueError(f"negative count for {kind} in {gname}")
                if n > 0 and kind not in group.allowed:
                    raise ValueError(
                        f"group {gname!r} does not accept {kind!r} devices"
                    )
                used += n * SLOT_UNITS[kind]
                if n:
                    row[kind] = int(n)
            if used > group.units:
                raise ValueError(
                    f"group {gname!r} overflows: {used} units used, "
                    f"{group.units} available"
                )
            if row:
                norm[gname] = row
        self._counts = norm

    def count(self, group: str, kind: str) -> int:
        """Devices of ``kind`` installed in ``group``."""
        return self._counts.get(group, {}).get(kind, 0)

    def total(self, kind: str) -> int:
        """Total devices of ``kind`` across all groups."""
        return sum(row.get(kind, 0) for row in self._counts.values())

    @property
    def num_gpus(self) -> int:
        """Total GPUs in this placement."""
        return self.total(GPU)

    @property
    def num_ssds(self) -> int:
        """Total SSDs in this placement."""
        return self.total(SSD)

    def as_tuple(self) -> Tuple[Tuple[str, int, int], ...]:
        """Canonical-ish tuple: (group, n_gpu, n_ssd) for every group."""
        return tuple(
            (g.name, self.count(g.name, GPU), self.count(g.name, SSD))
            for g in self.chassis.slot_groups
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Placement)
            and self.chassis is other.chassis
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        parts = []
        for gname, gpu_n, ssd_n in self.as_tuple():
            if gpu_n or ssd_n:
                bits = []
                if gpu_n:
                    bits.append(f"{gpu_n}gpu")
                if ssd_n:
                    bits.append(f"{ssd_n}ssd")
                parts.append(f"{gname}:{'+'.join(bits)}")
        label = f"{self.name}: " if self.name else ""
        return f"Placement({label}{', '.join(parts) or 'empty'})"


# ----------------------------------------------------------------------
# Topology instantiation
# ----------------------------------------------------------------------
def build_topology(
    placement: Placement,
    gpu_spec: "GpuSpec",
    ssd_spec: "SsdSpec",
    nvlink_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    nvlink_bw: Optional[float] = None,
    name: Optional[str] = None,
    gpu_specs: Optional[Mapping[str, "GpuSpec"]] = None,
    ssd_specs: Optional[Mapping[str, "SsdSpec"]] = None,
    validate: bool = True,
) -> Topology:
    """Instantiate the runtime :class:`Topology` for a placement.

    Devices are numbered deterministically in slot-group declaration
    order (``gpu0..``, ``ssd0..``).  Each GPU gets a co-located
    ``gpuN:mem`` storage node joined by an HBM-bandwidth link, so GPU
    caches participate in the flow model like any other storage tier.

    ``nvlink_pairs`` adds GPU<->GPU NVLink edges by GPU index (Fig. 18).

    ``gpu_specs``/``ssd_specs`` map slot-group name -> device part for
    heterogeneous fabrics (mixed GPU generations, slower drive models
    in some bays); groups not listed fall back to ``gpu_spec``/
    ``ssd_spec``.
    """
    from repro.hardware.specs import GPU_HBM_BW

    chassis = placement.chassis
    if validate:
        chassis.validate()
    topo = Topology(name or f"{chassis.name}/{placement.name or 'custom'}")

    for iname, ikind in chassis.interconnects.items():
        topo.add(iname, ikind)
    for trunk in chassis.trunks:
        topo.add_link(trunk.a, trunk.b, trunk.capacity, trunk.kind, trunk.label)
    for mem in chassis.memories:
        topo.add(mem.name, NodeKind.CPU_MEM, egress_bw=mem.bandwidth)
        topo.add_link(
            mem.name, mem.attach, mem.bandwidth, LinkKind.MEMORY, f"{mem.name}-bus"
        )

    gpu_i = 0
    ssd_i = 0
    for group in chassis.slot_groups:
        g_spec = (gpu_specs or {}).get(group.name, gpu_spec)
        s_spec = (ssd_specs or {}).get(group.name, ssd_spec)
        for _ in range(placement.count(group.name, GPU)):
            gname = f"gpu{gpu_i}"
            topo.add(gname, NodeKind.GPU)
            bw = min(group.link_bw, g_spec.link_bw)
            topo.add_link(gname, group.attach, bw, LinkKind.PCIE, group.bus_label)
            mem_name = f"{gname}:mem"
            topo.add(mem_name, NodeKind.GPU_MEM, egress_bw=GPU_HBM_BW)
            topo.add_link(mem_name, gname, GPU_HBM_BW, LinkKind.INTERNAL, "hbm")
            gpu_i += 1
        for _ in range(placement.count(group.name, SSD)):
            sname = f"ssd{ssd_i}"
            topo.add(sname, NodeKind.SSD, egress_bw=s_spec.read_bw)
            bw = min(group.link_bw, s_spec.link_bw)
            topo.add_link(sname, group.attach, bw, LinkKind.PCIE, group.bus_label)
            ssd_i += 1

    if nvlink_pairs:
        bw = nvlink_bw
        if bw is None:
            from repro.hardware.specs import NVLINK_BW

            bw = NVLINK_BW
        for a, b in nvlink_pairs:
            ga, gb = f"gpu{a}", f"gpu{b}"
            if ga not in topo or gb not in topo:
                raise ValueError(f"NVLink pair ({a},{b}) references missing GPU")
            topo.add_link(ga, gb, bw, LinkKind.NVLINK, f"nvlink{a}-{b}")

    if validate:
        topo.validate()
    return topo


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def _compositions(total: int, caps: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum bounded by ``caps``."""
    if not caps:
        if total == 0:
            yield ()
        return
    first_cap = min(caps[0], total)
    for first in range(first_cap + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def iter_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
) -> Iterator[Placement]:
    """Stream all feasible placements of the device pool, one at a time.

    Respects per-group slot units, dual-width GPU slots, and device-kind
    restrictions ("Considering Physical Slot Constraints" in the paper).
    Candidates are yielded in a deterministic order (GPU compositions
    outer, SSD compositions inner, both in slot-group declaration
    order), so downstream consumers can use the enumeration index as a
    stable tie-breaker.  The search engine consumes this generator
    directly and prunes symmetric duplicates as they are produced.
    """
    for row in pool_rows(chassis, num_gpus, num_ssds):
        yield placement_of(chassis, row)


def pool_rows(
    chassis: Chassis, num_gpus: int, num_ssds: int
) -> Iterator[Tuple[int, ...]]:
    """Every feasible placement of the pool as its count vector — GPU
    counts per slot group, then SSD counts per slot group — in
    :func:`iter_placements` order, without building a
    :class:`Placement`."""
    groups = chassis.slot_groups
    gpu_caps = [g.capacity_for(GPU) for g in groups]
    for gpu_counts in _compositions(num_gpus, gpu_caps):
        # Remaining units per group after GPUs are seated.
        ssd_caps = []
        for g, ng in zip(groups, gpu_counts):
            free_units = g.units - ng * SLOT_UNITS[GPU]
            ssd_caps.append(free_units if SSD in g.allowed else 0)
        for ssd_counts in _compositions(num_ssds, ssd_caps):
            yield gpu_counts + ssd_counts


def placement_of(chassis: Chassis, row: Sequence[int]) -> Placement:
    """The :class:`Placement` of a :func:`pool_rows` count vector."""
    groups = chassis.slot_groups
    n = len(groups)
    return Placement(
        chassis,
        {g.name: {GPU: row[i], SSD: row[n + i]} for i, g in enumerate(groups)},
    )


def enumerate_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
) -> List[Placement]:
    """All feasible placements, materialised (see :func:`iter_placements`)."""
    return list(iter_placements(chassis, num_gpus, num_ssds))


def count_placements(chassis: Chassis, num_gpus: int, num_ssds: int) -> int:
    """``len(enumerate_placements(...))`` without enumerating.

    Dynamic program over slot groups with state (GPUs seated, SSDs
    seated), mirroring the bounded compositions of
    :func:`iter_placements` exactly — this is how the search engine
    keeps reporting the raw (pre-symmetry) space size now that the
    direct canonical enumerator never materialises duplicates.
    """
    states: Dict[Tuple[int, int], int] = {(0, 0): 1}
    for group in chassis.slot_groups:
        gpu_cap = group.capacity_for(GPU)
        ssd_ok = SSD in group.allowed
        new: Dict[Tuple[int, int], int] = {}
        for (ng_used, ns_used), ways in states.items():
            for ng in range(min(gpu_cap, num_gpus - ng_used) + 1):
                free_units = group.units - ng * SLOT_UNITS[GPU]
                ssd_cap = free_units if ssd_ok else 0
                for ns in range(min(ssd_cap, num_ssds - ns_used) + 1):
                    key = (ng_used + ng, ns_used + ns)
                    new[key] = new.get(key, 0) + ways
        states = new
    return states.get((num_gpus, num_ssds), 0)

"""Seeded fabric generator/fuzzer.

Produces random-but-reproducible :class:`~repro.hardware.fabric.FabricSpec`
machines for property sweeps (``python -m repro.experiments
fabric-sweep``): mixed GPU generations, asymmetric PCIe trees (sockets
with different switch/bay complements, cascaded switches on one side
only), variable NVMe bay counts, an optional CXL memory tier, and an
optional NIC-attached NVMe shelf.

Every fabric is generated from a single integer seed through one
``numpy`` generator, so ``generate_fabric(seed)`` is bit-stable across
runs and machines — a failing sweep seed reproduces exactly.  Capacity
floors (:data:`MIN_GPU_SLOTS` / :data:`MIN_SSD_SLOTS`) guarantee the
sweep's device pool always physically fits, so every generated fabric
admits at least one placement.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.placement import GPU, SSD
from repro.hardware.fabric import (
    CxlMemSpec,
    FabricSpec,
    LinkWidth,
    NicStorageSpec,
    SlotBankSpec,
    SocketSpec,
    SwitchSpec,
    resolve_gpu,
    resolve_ssd,
)
from repro.hardware.specs import (
    A100_40GB,
    H100_80GB,
    P4510,
    P5510,
    PM1743,
    V100_32GB,
)
from repro.utils.units import GB


# Shape of the fuzzed fabrics (probabilities are per socket unless
# noted).
MAX_SOCKETS = 2
#: Max top-level switches per socket (0..N sampled uniformly).
MAX_SWITCHES_PER_SOCKET = 2
#: Chance a switch carries a cascaded child switch (Machine-B style).
P_CASCADE = 0.35
#: Chance the fabric mixes GPU generations across banks.
P_MIXED_GPUS = 0.35
#: Chance a bay bank uses a different SSD model than the primary.
P_MIXED_SSDS = 0.25
#: Chance a socket carries a CXL.mem expander.
P_CXL = 0.30
#: Chance a socket carries a NIC-attached NVMe shelf.
P_NIC_STORAGE = 0.20
#: Capacity floors: the generated machine must physically seat at least
#: this many GPUs / SSDs (patched in if sampling fell short).
MIN_GPU_SLOTS = 2
MIN_SSD_SLOTS = 4


#: GPU parts the fuzzer draws from (selection weights alongside).
_GPU_POOL = (A100_40GB, V100_32GB, H100_80GB)
_GPU_WEIGHTS = (0.5, 0.25, 0.25)
_SSD_POOL = (P5510, P4510, PM1743)
_SSD_WEIGHTS = (0.5, 0.25, 0.25)


def _pick(rng: np.random.Generator, pool, weights):
    return pool[int(rng.choice(len(pool), p=np.asarray(weights)))]


def _bay_bank(
    rng: np.random.Generator,
    name: str,
    ssd_part,
    primary_ssd,
    bus: str,
) -> SlotBankSpec:
    units = int(rng.integers(2, 7))  # 2..6 NVMe bays
    return SlotBankSpec(
        name=name,
        units=units,
        link=LinkWidth(ssd_part.pcie_gen, 4),
        allowed=(SSD,),
        bus=bus,
        ssd_part=ssd_part.name if ssd_part.name != primary_ssd.name else None,
    )


def _slot_bank(
    rng: np.random.Generator,
    gpu_part,
    primary_gpu,
    bus: str,
) -> SlotBankSpec:
    units = int(rng.integers(8, 15))  # 8..14 slot units
    gen = max(4, gpu_part.pcie_gen)
    return SlotBankSpec(
        name="slots",
        units=units,
        link=LinkWidth(gen, 16),
        allowed=(GPU, SSD),
        bus=bus,
        gpu_part=gpu_part.name if gpu_part.name != primary_gpu.name else None,
    )


def _switch(
    rng: np.random.Generator,
    primary_gpu,
    mixed: bool,
    depth: int,
    bus_counter: List[int],
) -> SwitchSpec:
    def next_bus() -> str:
        bus_counter[0] += 1
        return f"gbus{bus_counter[0]}"

    gpu_part = (
        _pick(rng, _GPU_POOL, _GPU_WEIGHTS) if mixed and rng.random() < 0.5
        else primary_gpu
    )
    bank = _slot_bank(rng, gpu_part, primary_gpu, next_bus())
    children: Tuple[SwitchSpec, ...] = ()
    if depth > 0 and rng.random() < P_CASCADE:
        children = (_switch(rng, primary_gpu, mixed, depth - 1, bus_counter),)
    return SwitchSpec(
        uplink=LinkWidth(int(rng.choice((4, 4, 5))), 16),
        bus=next_bus(),
        banks=(bank,),
        children=children,
    )


def generate_fabric(seed: int) -> FabricSpec:
    """One reproducible random fabric for ``seed`` (named
    ``fabric-gen-<seed>``, provenance in ``generator_seed``)."""
    rng = np.random.default_rng(seed)
    bus_counter = [0]

    primary_gpu = _pick(rng, _GPU_POOL, _GPU_WEIGHTS)
    primary_ssd = _pick(rng, _SSD_POOL, _SSD_WEIGHTS)
    mixed = bool(rng.random() < P_MIXED_GPUS)
    nsock = int(rng.integers(1, MAX_SOCKETS + 1))

    sockets: List[SocketSpec] = []
    for i in range(nsock):
        banks: List[SlotBankSpec] = []
        if rng.random() < 0.8:  # NVMe bays directly on the RC
            ssd_part = (
                _pick(rng, _SSD_POOL, _SSD_WEIGHTS)
                if rng.random() < P_MIXED_SSDS
                else primary_ssd
            )
            bus_counter[0] += 1
            banks.append(
                _bay_bank(
                    rng, "bays", ssd_part, primary_ssd, f"gbus{bus_counter[0]}"
                )
            )
        if rng.random() < 0.3:  # a direct x16 GPU slot on the RC
            bus_counter[0] += 1
            banks.append(
                SlotBankSpec(
                    name="x16",
                    units=2,
                    link=LinkWidth(primary_gpu.pcie_gen, 16),
                    allowed=(GPU,),
                    bus=f"gbus{bus_counter[0]}",
                )
            )
        n_switches = int(rng.integers(0, MAX_SWITCHES_PER_SOCKET + 1))
        switches = tuple(
            _switch(rng, primary_gpu, mixed, depth=1, bus_counter=bus_counter)
            for _ in range(n_switches)
        )
        sockets.append(
            SocketSpec(
                cpu_part="Xeon-Gold-5320",
                banks=tuple(banks),
                switches=switches,
                cxl=CxlMemSpec() if rng.random() < P_CXL else None,
                nic_storage=(
                    NicStorageSpec(
                        bays=_bay_bank(
                            rng, "shelf", primary_ssd, primary_ssd, "nvmeof"
                        ),
                        nic_bw=float(rng.choice((12.5, 25.0))) * GB,
                    )
                    if rng.random() < P_NIC_STORAGE
                    else None
                ),
            )
        )

    spec = FabricSpec(
        name=f"fabric-gen-{seed}",
        sockets=tuple(sockets),
        gpu_part=primary_gpu.name,
        ssd_part=primary_ssd.name,
        generator_seed=int(seed),
    )
    spec = _ensure_capacity(spec)
    spec.validate()
    return spec


def _ensure_capacity(spec: FabricSpec) -> FabricSpec:
    """Patch in a fallback switch/bay bank when sampling under-provisioned
    the fabric (floors guarantee the sweep's device pool always fits)."""
    import dataclasses

    sockets = list(spec.sockets)
    if gpu_slot_capacity(spec) < MIN_GPU_SLOTS:
        fallback = SwitchSpec(
            uplink=LinkWidth(4, 16),
            bus="gbus-fallback",
            banks=(
                SlotBankSpec(
                    "slots", 12, LinkWidth(4, 16), (GPU, SSD), "gbus-fb-slots"
                ),
            ),
        )
        sockets[0] = dataclasses.replace(
            sockets[0], switches=sockets[0].switches + (fallback,)
        )
        spec = dataclasses.replace(spec, sockets=tuple(sockets))
    if ssd_slot_capacity(spec) < MIN_SSD_SLOTS:
        extra = SlotBankSpec(
            "bays-extra",
            MIN_SSD_SLOTS,
            LinkWidth(4, 4),
            (SSD,),
            "gbus-fb-bays",
        )
        sockets = list(spec.sockets)
        sockets[0] = dataclasses.replace(
            sockets[0], banks=sockets[0].banks + (extra,)
        )
        spec = dataclasses.replace(spec, sockets=tuple(sockets))
    return spec


# ----------------------------------------------------------------------
# Shape predicates (sweep coverage assertions)
# ----------------------------------------------------------------------
def _bank_shape(bank: SlotBankSpec) -> Tuple:
    return (bank.name, bank.units, bank.link.gen, bank.link.lanes,
            tuple(sorted(bank.allowed)), bank.gpu_part, bank.ssd_part)


def _switch_shape(sw: SwitchSpec) -> Tuple:
    return (
        (sw.uplink.gen, sw.uplink.lanes),
        tuple(_bank_shape(b) for b in sw.banks),
        tuple(_switch_shape(c) for c in sw.children),
    )


def _socket_shape(sock: SocketSpec) -> Tuple:
    return (
        tuple(_bank_shape(b) for b in sock.banks),
        tuple(_switch_shape(s) for s in sock.switches),
        sock.cxl is not None,
        sock.nic_storage is not None,
    )


def is_asymmetric(spec: FabricSpec) -> bool:
    """Whether the PCIe tree differs across sockets (or cascades within
    one), i.e. the fabric is not a mirrored Machine-A-style layout."""
    shapes = [_socket_shape(s) for s in spec.sockets]
    if len(set(shapes)) > 1:
        return True
    return any(
        sw.children for sock in spec.sockets for sw in sock.switches
    )


def has_cxl(spec: FabricSpec) -> bool:
    """Whether any socket carries a CXL memory expander."""
    return any(s.cxl is not None for s in spec.sockets)


def gpu_slot_capacity(spec: FabricSpec) -> int:
    """Max GPUs the fabric can physically seat (dual-width cards)."""
    return sum(
        b.units // resolve_gpu(b.gpu_part or spec.gpu_part).slot_units
        for b in _all_banks(spec)
        if GPU in b.allowed
    )


def ssd_slot_capacity(spec: FabricSpec) -> int:
    """Max SSDs the fabric can physically seat (ignoring GPUs)."""
    return sum(
        b.units // resolve_ssd(b.ssd_part or spec.ssd_part).slot_units
        for b in _all_banks(spec)
        if SSD in b.allowed
    )


def _all_banks(spec: FabricSpec):
    def from_switch(sw: SwitchSpec):
        yield from sw.banks
        for c in sw.children:
            yield from from_switch(c)

    for sock in spec.sockets:
        yield from sock.banks
        for sw in sock.switches:
            yield from from_switch(sw)
        if sock.nic_storage is not None:
            yield sock.nic_storage.bays

"""Moment's core contribution: topology modeling, max-flow scheduling,
placement search with symmetry pruning, and DDAK data placement."""

from repro.core.topology import LinkKind, Node, NodeKind, Link, Topology
from repro.core.placement import (
    Chassis,
    Placement,
    SlotGroup,
    build_topology,
    enumerate_placements,
)
from repro.core.symmetry import (
    chassis_automorphisms,
    slot_group_symmetries,
)
from repro.core.flowmodel import (
    CPU_CLASS,
    SSD_CLASS,
    FlowPrediction,
    TrafficDemand,
    min_completion_time,
    plain_max_flow,
)

__all__ = [
    "LinkKind",
    "Node",
    "NodeKind",
    "Link",
    "Topology",
    "Chassis",
    "Placement",
    "SlotGroup",
    "build_topology",
    "enumerate_placements",
    "chassis_automorphisms",
    "slot_group_symmetries",
    "CPU_CLASS",
    "SSD_CLASS",
    "FlowPrediction",
    "TrafficDemand",
    "min_completion_time",
    "plain_max_flow",
]

"""repro — reproduction of *Moment* (SC '25).

Moment co-optimizes a multi-GPU server's physical communication
topology (which PCIe slot each GPU/SSD occupies) and graph-data
placement (which memory tier holds each vertex embedding) for
out-of-core GNN training.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the per-figure reproduction record.

Quickstart::

    from repro import MomentSystem, RunSpec, machine_a, run
    result = run(MomentSystem(machine_a()), RunSpec(dataset=dataset))
"""

from repro.core import (
    Chassis,
    Placement,
    SlotGroup,
    Topology,
    TrafficDemand,
    build_topology,
    enumerate_placements,
    min_completion_time,
    plain_max_flow,
)
from repro.hardware import (
    MachineSpec,
    classic_layouts,
    cluster_c,
    machine_a,
    machine_b,
    moment_paper_layout_b,
)
from repro.core.optimizer import MomentOptimizer, MomentPlan, OptimizerConfig
from repro.faults import FaultSchedule
from repro.runtime.spec import RunSpec
from repro.runtime.system import MomentSystem, SystemResult
from repro.api import run

__version__ = "2.0.0"

__all__ = [
    "Chassis",
    "Placement",
    "SlotGroup",
    "Topology",
    "TrafficDemand",
    "build_topology",
    "enumerate_placements",
    "min_completion_time",
    "plain_max_flow",
    "MachineSpec",
    "classic_layouts",
    "cluster_c",
    "machine_a",
    "machine_b",
    "moment_paper_layout_b",
    "MomentOptimizer",
    "MomentPlan",
    "OptimizerConfig",
    "MomentSystem",
    "SystemResult",
    "RunSpec",
    "FaultSchedule",
    "run",
    "__version__",
]

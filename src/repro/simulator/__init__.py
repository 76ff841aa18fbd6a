"""Hardware simulator: max-min fair bandwidth sharing, routing, NVMe
read ceilings, memory ledgers, traffic accounting, and the epoch engine."""

from repro.simulator.bandwidth import (
    FairShareResult,
    Flow,
    max_min_rates,
    progressive_fill,
)
from repro.simulator.routing import Router, egress_key, link_key
from repro.simulator.iostack import (
    effective_read_bw,
    pages_for_bytes,
)
from repro.simulator.memory import (
    MemoryLedger,
    OutOfMemoryError,
    activation_bytes,
    bam_page_cache_metadata_bytes,
    distdgl_partition_bytes,
    io_buffer_bytes,
)
from repro.simulator.traffic import TrafficAccount
from repro.simulator.pipeline import EpochResult, EpochSimulator, SimConfig

__all__ = [
    "FairShareResult",
    "Flow",
    "max_min_rates",
    "progressive_fill",
    "Router",
    "egress_key",
    "link_key",
    "effective_read_bw",
    "pages_for_bytes",
    "MemoryLedger",
    "OutOfMemoryError",
    "activation_bytes",
    "bam_page_cache_metadata_bytes",
    "distdgl_partition_bytes",
    "io_buffer_bytes",
    "TrafficAccount",
    "EpochResult",
    "EpochSimulator",
    "SimConfig",
]

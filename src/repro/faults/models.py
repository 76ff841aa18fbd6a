"""Fault models for degradation-aware training (ROADMAP: graceful
degradation).

Each fault targets one hardware component of the runtime topology and
is *time-indexed in simulated steps*: it activates at ``step`` and —
unless ``duration`` bounds it — stays active for the rest of the run.
The models mirror the failure classes the out-of-core GNN literature
actually observes on multi-GPU storage servers:

* :class:`SsdFailure` — a drive drops off the bus entirely.  Reads
  against it time out (:data:`~repro.simulator.iostack.MAX_RETRIES`
  retries with backoff, costing
  :data:`~repro.simulator.iostack.DETECTION_STALL_S`), after which its pages
  are served from the surviving replica tier at a bounded recovery
  bandwidth until a replan migrates them.
* :class:`SsdSlowdown` — thermal throttling / internal GC: the drive's
  effective egress bandwidth scales by ``factor``.
* :class:`LinkDegrade` — a PCIe link trains down (x16 -> x4) or a QPI
  path saturates: both directions of the physical link scale by
  ``factor``.
* :class:`GpuEvict` — HBM pressure (fragmentation, a co-tenant job)
  evicts ``fraction`` of one GPU's embedding cache; the evicted share
  of local hits turns into CPU-memory reads.

All models are frozen dataclasses so schedules hash, compare and pickle
cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.validation import check_positive


class Fault:
    """Common behaviour of all fault models (not a dataclass itself:
    subclasses order their target fields before ``step``/``duration``).
    """

    #: Short machine-readable class tag (also the ``--faults`` DSL verb).
    kind: str = "fault"

    # subclasses provide these as dataclass fields
    step: int
    duration: Optional[int]

    def _check_timing(self) -> None:
        if self.step < 0:
            raise ValueError(f"fault step must be >= 0, got {self.step}")
        if self.duration is not None:
            check_positive("duration", self.duration)

    def active_at(self, step: int) -> bool:
        """Whether this fault is in effect during simulated ``step``."""
        if step < self.step:
            return False
        if self.duration is None:
            return True
        return step < self.step + self.duration

    @property
    def target(self) -> str:
        """The affected component's node name (reporting label)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable form (also the DSL round-trip)."""
        tail = "" if self.duration is None else f" for {self.duration} steps"
        return f"{self.kind}@{self.step}: {self.target}{tail}"


def _check_factor(name: str, value: float) -> None:
    """Degradation factors scale a positive capacity: (0, 1]."""
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class SsdFailure(Fault):
    """A drive fails hard at ``step`` (duration-bounded = offline/online)."""

    ssd: str
    step: int
    duration: Optional[int] = None

    kind = "ssd_failure"

    def __post_init__(self) -> None:
        self._check_timing()

    @property
    def target(self) -> str:
        return self.ssd


@dataclass(frozen=True)
class SsdSlowdown(Fault):
    """A drive's egress bandwidth scales by ``factor`` while active."""

    ssd: str
    step: int
    factor: float = 0.5
    duration: Optional[int] = None

    kind = "ssd_slowdown"

    def __post_init__(self) -> None:
        self._check_timing()
        _check_factor("factor", self.factor)

    @property
    def target(self) -> str:
        return self.ssd


@dataclass(frozen=True)
class LinkDegrade(Fault):
    """Both directions of the physical link ``src <-> dst`` scale by
    ``factor`` (PCIe lane down-training, QPI contention)."""

    src: str
    dst: str
    step: int
    factor: float = 0.25
    duration: Optional[int] = None

    kind = "link_degrade"

    def __post_init__(self) -> None:
        self._check_timing()
        _check_factor("factor", self.factor)

    @property
    def target(self) -> str:
        return f"{self.src}-{self.dst}"

    @property
    def directed_keys(self) -> Tuple[Tuple[str, str], ...]:
        """Both directed (src, dst) pairs the degradation applies to."""
        return ((self.src, self.dst), (self.dst, self.src))


@dataclass(frozen=True)
class GpuEvict(Fault):
    """``fraction`` of one GPU's embedding cache is evicted while
    active: that share of local hits is served from CPU memory."""

    gpu: str
    step: int
    fraction: float = 0.5
    duration: Optional[int] = None

    kind = "gpu_evict"

    def __post_init__(self) -> None:
        self._check_timing()
        _check_factor("fraction", self.fraction)

    @property
    def target(self) -> str:
        return self.gpu

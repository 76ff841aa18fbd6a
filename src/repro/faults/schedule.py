"""Deterministic, seeded fault schedules.

A :class:`FaultSchedule` is an immutable, step-indexed collection of
:mod:`repro.faults.models` events that the
:class:`~repro.simulator.pipeline.EpochSimulator` consumes step-by-step.
Determinism contract: the schedule is a pure value — the same schedule
(and the same simulator seed) reproduces bit-identical epoch results,
and an *empty* schedule reproduces the fault-free code path exactly.

Two construction paths beyond the literal constructor:

* :meth:`FaultSchedule.parse` — the ``--faults SPEC`` mini-DSL used by
  the experiments CLI: semicolon-separated ``kind@step:target[:param]``
  events, e.g. ``"ssd_failure@4:ssd2;link_degrade@6:rc0-plx0:0.25"``.
* :func:`random_schedule` — a seeded random draw over a topology's
  components, for fuzz-style robustness sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.faults.models import (
    Fault,
    GpuEvict,
    LinkDegrade,
    SsdFailure,
    SsdSlowdown,
)
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable sequence of fault events plus the seed that (for
    generated schedules) produced it.  ``seed`` is carried so run
    records can reproduce the schedule; hand-built schedules keep 0.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if not isinstance(f, Fault):
                raise TypeError(f"not a fault model: {f!r}")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The no-faults schedule (equivalent to running without one)."""
        return cls()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # ------------------------------------------------------------------
    def active_at(self, step: int) -> Tuple[Fault, ...]:
        """Faults in effect during simulated ``step`` (schedule order)."""
        return tuple(f for f in self.faults if f.active_at(step))

    def activated_at(self, step: int) -> Tuple[Fault, ...]:
        """Faults whose onset is exactly ``step`` (detection events)."""
        return tuple(f for f in self.faults if f.step == step)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        if not self.faults:
            return "FaultSchedule(empty)"
        return "\n".join(f.describe() for f in self.faults)

    # ------------------------------------------------------------------
    # the --faults DSL
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse the CLI mini-DSL into a schedule.

        Grammar (events split on ``;``)::

            event  := kind '@' step [ '+' duration ] ':' target [ ':' param ]
            kind   := ssd_failure | ssd_slowdown | link_degrade | gpu_evict
            target := node name  (link_degrade: 'src-dst')
            param  := float      (slowdown/degrade factor, evict fraction)

        Examples::

            ssd_failure@4:ssd2
            ssd_slowdown@2+3:ssd0:0.5      # 3 steps of half bandwidth
            link_degrade@6:rc0-plx0:0.25
            gpu_evict@3:gpu1:0.5
        """
        faults = []
        for raw in spec.split(";"):
            event = raw.strip()
            if not event:
                continue
            faults.append(_parse_event(event))
        if not faults:
            raise ValueError(f"fault spec {spec!r} contains no events")
        return cls(faults=tuple(faults))


def _parse_event(event: str) -> Fault:
    try:
        head, rest = event.split("@", 1)
        when, _, body = rest.partition(":")
    except ValueError:
        raise ValueError(
            f"bad fault event {event!r}; expected kind@step:target[:param]"
        ) from None
    if not body:
        raise ValueError(f"fault event {event!r} names no target")
    kind = head.strip().lower()
    when = when.strip()
    duration: Optional[int] = None
    if "+" in when:
        step_s, dur_s = when.split("+", 1)
        step, duration = int(step_s), int(dur_s)
    else:
        step = int(when)
    parts = [p.strip() for p in body.split(":")]
    target = parts[0]
    param = float(parts[1]) if len(parts) > 1 else None

    if kind in ("ssd_failure", "fail"):
        if param is not None:
            raise ValueError(f"{kind} takes no parameter: {event!r}")
        return SsdFailure(ssd=target, step=step, duration=duration)
    if kind in ("ssd_slowdown", "slow"):
        return SsdSlowdown(
            ssd=target,
            step=step,
            factor=0.5 if param is None else param,
            duration=duration,
        )
    if kind in ("link_degrade", "link"):
        if "-" not in target:
            raise ValueError(
                f"link_degrade target must be 'src-dst', got {target!r}"
            )
        src, dst = target.split("-", 1)
        return LinkDegrade(
            src=src,
            dst=dst,
            step=step,
            factor=0.25 if param is None else param,
            duration=duration,
        )
    if kind in ("gpu_evict", "evict"):
        return GpuEvict(
            gpu=target,
            step=step,
            fraction=0.5 if param is None else param,
            duration=duration,
        )
    raise ValueError(
        f"unknown fault kind {kind!r} in {event!r}; known kinds: "
        "ssd_failure, ssd_slowdown, link_degrade, gpu_evict"
    )


def random_schedule(
    ssds: Sequence[str],
    gpus: Sequence[str],
    links: Iterable[Tuple[str, str]] = (),
    num_faults: int = 2,
    max_step: int = 8,
    seed: SeedLike = 0,
) -> FaultSchedule:
    """A seeded random fault draw for robustness sweeps.

    Picks ``num_faults`` events uniformly over the supplied components
    and fault classes; the same seed reproduces the same schedule.
    """
    if num_faults < 1:
        raise ValueError("num_faults must be >= 1")
    rng = ensure_rng(seed)
    link_list = sorted(set(tuple(l) for l in links))
    faults = []
    kinds = ["ssd_failure", "ssd_slowdown", "gpu_evict"]
    if link_list:
        kinds.append("link_degrade")
    for _ in range(num_faults):
        kind = kinds[int(rng.integers(len(kinds)))]
        step = int(rng.integers(max_step))
        if kind == "ssd_failure" and len(ssds):
            faults.append(
                SsdFailure(ssd=ssds[int(rng.integers(len(ssds)))], step=step)
            )
        elif kind == "ssd_slowdown" and len(ssds):
            faults.append(
                SsdSlowdown(
                    ssd=ssds[int(rng.integers(len(ssds)))],
                    step=step,
                    factor=float(rng.uniform(0.2, 0.8)),
                )
            )
        elif kind == "gpu_evict" and len(gpus):
            faults.append(
                GpuEvict(
                    gpu=gpus[int(rng.integers(len(gpus)))],
                    step=step,
                    fraction=float(rng.uniform(0.2, 0.8)),
                )
            )
        elif kind == "link_degrade":
            src, dst = link_list[int(rng.integers(len(link_list)))]
            faults.append(
                LinkDegrade(
                    src=src,
                    dst=dst,
                    step=step,
                    factor=float(rng.uniform(0.1, 0.5)),
                )
            )
    if not faults:
        raise ValueError("no components to draw faults from")
    # int() for the record: numpy seeds aren't JSON-serializable
    seed_val = seed if isinstance(seed, int) else 0
    return FaultSchedule(faults=tuple(faults), seed=seed_val)

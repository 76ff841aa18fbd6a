"""The unified run specification (:class:`RunSpec`).

``GnnSystem.run`` historically took 8 loose keyword arguments; every
new capability (fault schedules, replanning) would have widened that
signature further at a dozen call sites.  A :class:`RunSpec` bundles
the complete description of one run into a single frozen value:

>>> spec = RunSpec(dataset=ds, placement=layout, sample_batches=6)
>>> result = system.run(spec)
>>> result = system.run(spec.replace(faults=schedule, replan=True))

The pre-2.0 ``run(dataset, **kwargs)`` form is gone: ``GnnSystem.run``
raises ``TypeError`` for anything but a :class:`RunSpec`
(:func:`require_run_spec`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.placement import Placement
from repro.faults.schedule import FaultSchedule
from repro.graphs.datasets import ScaledDataset
from repro.runtime.replan import ReplanConfig


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything one :meth:`GnnSystem.run` needs, as a single value.

    ``eq=False``: ``hotness`` may be a large array; specs are compared
    by identity, not content.
    """

    dataset: ScaledDataset
    #: Hardware placement; None lets the system pick (Moment searches,
    #: fixed-layout baselines use their default).
    placement: Optional[Placement] = None
    model: str = "graphsage"
    num_gpus: int = 4
    num_ssds: int = 8
    fanouts: Tuple[int, ...] = (25, 10)
    sample_batches: int = 10
    nvlink_pairs: Optional[Sequence[Tuple[int, int]]] = None
    #: Per-vertex hotness override (None = the system estimates it).
    hotness: Optional[np.ndarray] = None
    #: Fault schedule injected into the epoch simulation (None/empty =
    #: healthy run, bit-identical to the pre-faults code path).
    faults: Optional[FaultSchedule] = None
    #: Degradation-aware replanning: ``True`` enables it with default
    #: knobs, or pass a :class:`~repro.runtime.replan.ReplanConfig`.
    #: Requires a fault schedule (it reacts to injected degradation).
    replan: Union[bool, ReplanConfig, None] = None
    #: Workload seed override; ``None`` keeps the system's own seed
    #: (the historical behaviour, bit-identical).
    seed: Optional[int] = None
    #: Hardware identity by name, resolved through
    #: :func:`repro.hardware.registry.get_machine` (``"machine_a"``,
    #: ``"gen:7"``, a spec-file path).  ``None`` (the historical
    #: behaviour) trusts whatever machine the system was built with.
    machine: Optional[str] = None
    #: Hardware identity as a declarative fabric: a
    #: :class:`~repro.hardware.fabric.FabricSpec`, its ``to_dict()``
    #: payload, or a path to a ``repro.fabric/v1`` JSON file.  Mutually
    #: exclusive with ``machine``.
    fabric: Union[object, Dict, str, None] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fanouts", tuple(self.fanouts))
        if self.seed is not None and not isinstance(self.seed, int):
            raise TypeError(
                f"seed must be an int or None, got {type(self.seed)}"
            )
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.num_ssds < 1:
            raise ValueError("num_ssds must be >= 1")
        if self.sample_batches < 1:
            raise ValueError("sample_batches must be >= 1")
        if self.faults is not None and not isinstance(
            self.faults, FaultSchedule
        ):
            raise TypeError(
                f"faults must be a FaultSchedule, got {type(self.faults)}"
            )
        if self.replan_config is not None and not self.faults:
            raise ValueError(
                "replan requires a fault schedule to react to"
            )
        if self.machine is not None and self.fabric is not None:
            raise ValueError(
                "give exactly one hardware identity: this spec sets both "
                f"machine={self.machine!r} and fabric={type(self.fabric).__name__} "
                "— drop one (machine names a registered/generated fabric, "
                "fabric carries an inline spec or spec-file path)"
            )
        if self.machine is not None and not isinstance(self.machine, str):
            raise TypeError(
                f"machine must be a registry name (str) or None, got "
                f"{type(self.machine)}"
            )

    @property
    def replan_config(self) -> Optional[ReplanConfig]:
        """The effective replanning config (None = replanning off)."""
        if self.replan is None or self.replan is False:
            return None
        if self.replan is True:
            return ReplanConfig()
        if isinstance(self.replan, ReplanConfig):
            return self.replan
        raise TypeError(
            f"replan must be bool or ReplanConfig, got {type(self.replan)}"
        )

    def resolve_machine(self):
        """The :class:`~repro.hardware.machines.MachineSpec` this spec
        names, or ``None`` when the spec carries no hardware identity.

        ``machine`` resolves through the registry; ``fabric`` compiles
        an inline :class:`~repro.hardware.fabric.FabricSpec`, a
        ``to_dict()`` payload, or a spec-file path.
        """
        if self.machine is not None:
            from repro.hardware.registry import get_machine

            return get_machine(self.machine)
        if self.fabric is None:
            return None
        from repro.hardware.fabric import (
            FabricSpec,
            compile_fabric,
            load_fabric,
        )

        if isinstance(self.fabric, FabricSpec):
            return compile_fabric(self.fabric)
        if isinstance(self.fabric, dict):
            return compile_fabric(FabricSpec.from_dict(self.fabric))
        if isinstance(self.fabric, str):
            return compile_fabric(load_fabric(self.fabric))
        raise TypeError(
            "fabric must be a FabricSpec, a repro.fabric/v1 dict, or a "
            f"path, got {type(self.fabric)}"
        )

    def replace(self, **changes) -> "RunSpec":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def require_run_spec(where: str, spec, extra: Dict[str, object]) -> None:
    """Raise ``TypeError`` unless ``spec`` is a :class:`RunSpec` and no
    loose keyword options ride along (the pre-2.0 ``run(dataset,
    **kwargs)`` form)."""
    if isinstance(spec, RunSpec) and not extra:
        return
    got = type(spec).__name__
    if extra:
        got += f" plus keyword options {sorted(extra)}"
    raise TypeError(
        f"{where} takes a RunSpec, got {got}; wrap the dataset and "
        "options in repro.RunSpec(dataset=..., ...)"
    )

"""Layer self-time tracing, installed from outside the program.

The benchmark attributes an operation's wall time to the repo's
layers without touching program code: :class:`Tracer` replaces the
attribute each caller looks up (a class method, or a function a module
imported by name) with a timing wrapper, and restores it afterwards.

A wrapper's *self time* is its duration minus the durations of the
wrappers nested inside it, so the layer times of one operation add up
to at most its wall time; the rest is glue that no named layer owns
(``1 - trace.coverage``).  The traced operations run on one thread
(the search runs serially with every ``REPRO_*`` knob removed), so one
wrapper stack serves them all.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _batch_size(args, kwargs) -> int:
    """Candidates in one ``FlexibleMaxFlowScorer.score_batch`` call."""
    topos = kwargs.get("topos", args[1] if len(args) > 1 else ())
    return len(topos)


#: (owner, attribute, layer, item counter).  ``owner`` is ``module`` or
#: ``module:Class``; a function imported by name is wrapped in every
#: module that calls it, because each import is its own binding.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.graphs.datasets:DatasetSpec", "build", "graphs.build", None),
    (
        "repro.core.optimizer:MomentOptimizer",
        "estimate_hotness",
        "sampling.hotness",
        None,
    ),
    (
        "repro.hardware.machines:MachineSpec",
        "build",
        "hardware.topology_build",
        None,
    ),
    ("repro.core.optimizer", "run_search", "search.engine", None),
    ("repro.runtime.replan", "run_search", "search.engine", None),
    (
        "repro.core.search:FlexibleMaxFlowScorer",
        "score_batch",
        "search.pass1",
        _batch_size,
    ),
    ("repro.core.search:MulticommodityScorer", "score", "search.pass2", None),
    ("repro.core.optimizer", "ddak_place", "ddak.place", None),
    ("repro.runtime.system", "ddak_place", "ddak.place", None),
    ("repro.runtime.adaptive", "ddak_place", "ddak.place", None),
    (
        "repro.simulator.pipeline:EpochSimulator",
        "simulate_step",
        "sim.step",
        None,
    ),
    ("repro.simulator.pipeline", "progressive_fill", "sim.fill", None),
    ("repro.runtime.replan:ReplanPolicy", "on_step", "replan.on_step", None),
)

#: Every layer a target reports into, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Per-layer self time, call counts and item counts."""

    def __init__(self) -> None:
        self._stack: List[float] = []  # nested time of each open wrapper
        self._saved: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every total (wrappers stay installed)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Counter = Counter()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Totals since the last :meth:`reset`, for every layer."""
        return {
            layer: {
                "self_s": self.self_s.get(layer, 0.0),
                "calls": self.calls.get(layer, 0),
                "items": self.items.get(layer, 0),
            }
            for layer in LAYERS
        }

    def _wrap(self, layer: str, fn, items: Optional[Callable]):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
                if items is not None:
                    self.items[layer] += items(args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; idempotent while installed."""
        if self._saved:
            return
        for path, attr, layer, items in TARGETS:
            owner = _owner(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, items))

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

"""Helpers shared by the benchmark's orchestrator and its workers."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: The package source of the checkout the benchmark runs in.
SRC = HERE.parent / "src"

#: The ``--seed`` the goldens in ``goldens.json`` were recorded for
#: (one entry per session); other seeds get only the structural checks.
GOLDEN_SEED = 0


def clean_env() -> Dict[str, str]:
    """The environment for a child process: every ``REPRO_*`` knob
    removed (so an ambient setting cannot change what is measured), the
    package source on ``PYTHONPATH``, and a fixed hash seed (so set and
    dict iteration in the program is the same in every process)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_args() -> argparse.Namespace:
    """Flags every worker takes from the orchestrator."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--session", type=int, default=0, help="index of this session in its run"
    )
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=None,
        help="time.monotonic() at which the orchestrator started this "
        "process (set-up time is measured from it)",
    )
    return parser.parse_args()


def spawned_at(args: argparse.Namespace) -> float:
    """When this process was started (falls back to now)."""
    return args.spawned_at if args.spawned_at is not None else time.monotonic()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def env_record() -> Dict[str, object]:
    """What could change a measurement: resolved search knobs and the
    interpreter/library versions (read in the worker, after imports)."""
    import numpy
    import scipy

    from repro.core import search

    return {
        "search.default_workers": search.default_workers(),
        "search.default_prune_bounds": search.default_prune_bounds(),
        "search.default_batch_size": search.default_batch_size(),
        "search.default_warm_starts": search.default_warm_starts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def input_seed(seed: int, session: int) -> int:
    """The seed a session makes its inputs from: each session of a run
    gets its own input set, all derived from the run's ``--seed``."""
    return seed * 1000 + session


def load_golden(workload: str, seed: int, session: int) -> Optional[Dict]:
    """The recorded outputs of one session, or None off the golden seed."""
    if seed != GOLDEN_SEED:
        return None
    with open(HERE / "goldens.json") as fh:
        return json.load(fh)[workload][str(session)]


def median(values: Sequence[float]) -> float:
    """Median (0 for no samples)."""
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """90th percentile, ``statistics.quantiles(n=10)`` (exclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def close_rel(a: float, b: float, rel: float = 1e-9) -> bool:
    """``a`` equals ``b`` to ``rel`` relative tolerance."""
    return abs(a - b) <= rel * max(abs(a), abs(b))


def emit(result: Dict) -> None:
    """Print a worker's result as the last line of its stdout."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def note(problems: List[str], message: str, limit: int = 20) -> None:
    """Record a failed check (keeping the first ``limit``)."""
    if len(problems) < limit:
        problems.append(message)

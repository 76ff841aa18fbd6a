"""Shared benchmark fixtures.

Every per-figure benchmark regenerates its paper element through
:mod:`repro.experiments` and prints the resulting rows, so
``python -m pytest benchmarks/ --benchmark-only`` (from the repository
root, which puts ``tools`` on the path for ``bench_serve.py``)
reproduces the whole evaluation section.  Set ``REPRO_FULL=1`` to run
at full dataset scale (minutes); the default is the quick profile
(CI-sized, same shapes).

Set ``REPRO_JSONL=path`` to capture telemetry for every ``run_once``
benchmark and append one structured run record per benchmark to that
file — tagged with host machine spec, dataset/experiment, seed,
repetition index, and git SHA (schema in EXPERIMENTS.md).  Set
``REPRO_REPS=N`` (with ``REPRO_JSONL``) to execute each benchmark N
times and emit one tagged record per repetition — the input the
warehouse's CI-and-noise-band machinery (``python -m tools.warehouse``)
needs; repetition 0 runs under ``benchmark.pedantic`` as before, the
rest are plain re-executions.  Runners that accept a ``seed`` kwarg get
per-repetition derived seeds (:func:`repro.utils.rng.derive_seed`);
seed-stable runners measure wall-time noise, which is the point.
"""

import inspect
import os
import platform

import pytest

from repro import obs
from repro.utils.rng import derive_seed


@pytest.fixture(scope="session")
def quick() -> bool:
    return os.environ.get("REPRO_FULL", "0") != "1"


@pytest.fixture(scope="session")
def show():
    """Print an ExperimentResult under pytest -s / benchmark output."""

    def _show(result):
        print()
        result.print()
        return result

    return _show


def bench_metadata(**extra) -> dict:
    """Provenance tags for one benchmark record: git SHA, host machine
    spec, dataset scale profile, plus any run-specific ``extra``."""
    return obs.run_metadata(
        machine_spec={
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
            "system": platform.system(),
        },
        scale_profile="full" if os.environ.get("REPRO_FULL") == "1" else "quick",
        **extra,
    )


def bench_metrics(result) -> dict:
    """The benchmark's primary scalars, by result shape.

    ``ExperimentResult`` contributes its wall time and every scalar in
    ``result.data``; ``SearchResult``-shaped objects contribute
    candidate counts and candidates/sec — the throughput the
    regression gate tracks for the search engine.
    """
    out = {}
    if result is None:
        return out
    data = getattr(result, "data", None)
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[f"data:{k}"] = float(v)
    elapsed = getattr(result, "elapsed_seconds", None)
    if elapsed is not None:
        out["experiment_elapsed_s"] = float(elapsed)
    if hasattr(result, "num_unique") and hasattr(result, "seconds"):
        out["search_seconds"] = float(result.seconds)
        out["num_unique"] = float(result.num_unique)
        out["num_lp_scored"] = float(result.num_lp_scored)
        if result.seconds > 0:
            out["candidates_per_s"] = result.num_unique / result.seconds
    return out


def _accepts_seed(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "seed" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a runner with a single round (they are minutes-long
    simulations, not microseconds-long kernels).

    When ``REPRO_JSONL`` names a sink file, each repetition (see
    ``REPRO_REPS``) executes under its own telemetry capture and emits
    one tagged JSONL run record.
    """
    sink = os.environ.get("REPRO_JSONL")
    if not sink:
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )
    reps = max(1, int(os.environ.get("REPRO_REPS", "1")))
    run_id = getattr(benchmark, "name", None) or getattr(
        fn, "__name__", "benchmark"
    )
    base_seed = kwargs.get("seed", 0)
    derive = _accepts_seed(fn) and "seed" in kwargs
    first_result = None
    for rep in range(reps):
        rep_kwargs = dict(kwargs)
        rep_seed = derive_seed(base_seed, rep)
        if derive:
            rep_kwargs["seed"] = rep_seed
        with obs.capture() as tel:
            if rep == 0:
                result = benchmark.pedantic(
                    fn,
                    args=args,
                    kwargs=rep_kwargs,
                    rounds=1,
                    iterations=1,
                    warmup_rounds=0,
                )
                first_result = result
            else:
                result = fn(*args, **rep_kwargs)
        record = obs.build_run_record(
            run_id=run_id,
            config={
                "benchmark": run_id,
                "kwargs": {k: repr(v) for k, v in rep_kwargs.items()},
            },
            telemetry=tel,
            meta=bench_metadata(
                experiment=getattr(result, "experiment_id", None),
                dataset=kwargs.get("datasets") or kwargs.get("dataset"),
                seed=rep_seed if derive else base_seed,
                repetition=rep,
            ),
        )
        metrics = bench_metrics(result)
        if metrics:
            record.setdefault("derived", {})["bench"] = metrics
        obs.append_jsonl(sink, record)
    return first_result

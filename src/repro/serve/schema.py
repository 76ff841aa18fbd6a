"""The ``repro.serve/v1.1`` request schema: parsing, errors, cache keys.

A planning request is ``RunSpec``-shaped JSON — the same fields a
:class:`repro.RunSpec` takes, minus the in-memory objects (datasets
arrive as profiles to build, hardware as a registry name or an inline
``repro.fabric/v1`` payload).  :func:`parse_request` validates one
payload into a frozen :class:`PlanRequest` (raising
:class:`RequestError` with the offending field for the HTTP 400 body),
and :func:`cache_key` folds a request + its resolved machine into the
normalized tuple the plan cache, single-flight table, and persistent
store key on.  :func:`encode_key` / :func:`decode_key` round-trip that
tuple through JSON for the on-disk store.

Normalization rules (documented in DESIGN.md §5f): hardware is keyed by
:func:`~repro.hardware.fabric.chassis_fingerprint` — not by name — so
``"machine_a"``, an alias, and an inline fabric that compiles to the
same chassis all share cache entries; dataset profiles key on their
full build recipe (every knob that changes the built graph); floats are
canonicalised through ``float()``; defaulted and explicitly-passed
default values key identically.

Error envelope (``repro.serve/v1.1``): every non-200 body from every
endpoint is ``{"schema": ..., "error": {"code", "message",
"detail"?}}`` — ``code`` is one of the stable strings in
:data:`ERROR_CODES` (what clients branch on), ``message`` is
human-readable (never stable), and ``detail`` is a small object
pointing at the culprit (``{"field": "dataset.key"}``,
``{"job_id": ...}``...).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SERVE_SCHEMA = "repro.serve/v1.1"

#: Request schemas this server still accepts (v1 requests are a strict
#: subset of v1.1: the jobs endpoints and the error envelope changed,
#: the planning-request fields did not).
COMPAT_SCHEMAS = ("repro.serve/v1", SERVE_SCHEMA)

#: Dataset key for the synthetic smoke-test graph
#: (:func:`repro.graphs.datasets.tiny_dataset`).
TINY_KEY = "TINY"

#: The stable machine-readable error codes, by HTTP status.  Clients
#: (and this repo's tests + load generator) branch on ``error.code``;
#: ``error.message`` wording is free to change.
ERROR_CODES: Dict[str, int] = {
    "bad_request": 400,  # ill-typed/unknown field — detail.field names it
    "invalid_json": 400,  # body not parseable as JSON
    "not_found": 404,  # unknown route — detail.path
    "job_not_found": 404,  # unknown/reaped job id — detail.job_id
    "too_large": 413,  # body over the byte cap — detail.limit_bytes
    "queue_full": 429,  # solve queue full — Retry-After header set
    "internal": 500,  # the planner raised
    "timeout": 504,  # deadline expired — detail.job_id keeps the handle
}


class RequestError(ValueError):
    """A planning request the server must reject (HTTP 400).

    Carries the offending ``field`` (dotted path, or None for
    payload-level problems) so the structured error body can point at
    it.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.message = message
        self.field = field

    def to_body(self) -> Dict[str, object]:
        """The structured JSON error body for this rejection."""
        detail = {"field": self.field} if self.field is not None else {}
        return error_body("bad_request", self.message, **detail)


def error_body(code: str, message: str, **detail: object) -> Dict[str, object]:
    """One ``repro.serve/v1.1`` error payload (every non-200 body).

    ``code`` must be one of :data:`ERROR_CODES`; ``detail`` keys point
    at the culprit (``field=...``, ``job_id=...``) and are omitted when
    empty.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    err: Dict[str, object] = {"code": code, "message": message}
    detail = {k: v for k, v in detail.items() if v is not None}
    if detail:
        err["detail"] = detail
    return {"schema": SERVE_SCHEMA, "error": err}


def encode_key(key: Tuple) -> List:
    """JSON-ready form of a :func:`cache_key` tuple (tuples → lists).

    Key tuples hold only ints, floats, bools, strings, None, and nested
    tuples of the same, all of which survive a JSON round-trip exactly;
    :func:`decode_key` restores the original tuple shape.
    """
    return [encode_key(v) if isinstance(v, tuple) else v for v in key]


def decode_key(payload: object) -> Tuple:
    """The cache-key tuple a JSON array (from :func:`encode_key`) names."""
    if not isinstance(payload, list):
        raise ValueError(f"encoded cache key must be a list, got {payload!r}")
    return tuple(
        decode_key(v) if isinstance(v, list) else v for v in payload
    )


@dataclass(frozen=True)
class DatasetProfile:
    """The build recipe for one request's dataset.

    ``key`` is a registry key from
    :data:`repro.graphs.datasets.DATASETS` (``PA``/``IG``/``UK``/``CL``)
    or :data:`TINY_KEY` for the synthetic smoke graph.  Registry
    datasets take ``scale``/``feature_dim`` overrides; the tiny graph
    takes its full generator knobs.  ``normalized()`` is the cache-key
    contribution: every field that changes the built graph, nothing
    else.
    """

    key: str
    seed: int = 0
    #: Registry datasets only: fraction of the paper-scale graph.
    scale: Optional[float] = None
    feature_dim: Optional[int] = None
    #: Tiny graph only.
    num_vertices: int = 2000
    avg_degree: float = 8.0
    batch_size: int = 64
    skew_exponent: float = 0.8

    def normalized(self) -> Tuple:
        """Canonical cache-key tuple of this profile."""
        if self.key == TINY_KEY:
            return (
                TINY_KEY,
                int(self.num_vertices),
                float(self.avg_degree),
                None if self.feature_dim is None else int(self.feature_dim),
                int(self.batch_size),
                float(self.skew_exponent),
                int(self.seed),
            )
        return (
            self.key,
            None if self.scale is None else float(self.scale),
            None if self.feature_dim is None else int(self.feature_dim),
            int(self.seed),
        )


@dataclass(frozen=True)
class PlanRequest:
    """One validated planning request (the output of
    :func:`parse_request`).

    Mirrors :class:`repro.RunSpec` field-for-field where that makes
    sense over the wire; ``simulate=False`` asks for the plan only
    (placement search, no epoch simulation), ``timeout_s`` bounds how
    long this request is willing to wait end-to-end.
    """

    dataset: DatasetProfile
    machine: Optional[str] = "machine_a"
    #: Inline ``repro.fabric/v1`` payload (mutually exclusive with
    #: ``machine``; the server never reads spec files off its own disk).
    fabric: Optional[Dict] = field(default=None, compare=False)
    num_gpus: int = 4
    num_ssds: int = 8
    model: str = "graphsage"
    fanouts: Tuple[int, ...] = (25, 10)
    sample_batches: int = 10
    seed: int = 0
    simulate: bool = True
    timeout_s: Optional[float] = None
    gpu_cache_fraction: float = 0.6
    cpu_cache_vertex_fraction: float = 0.01


_TOP_FIELDS = {
    "schema",
    "dataset",
    "machine",
    "fabric",
    "num_gpus",
    "num_ssds",
    "model",
    "fanouts",
    "sample_batches",
    "seed",
    "simulate",
    "timeout_s",
    "optimizer",
}
_REGISTRY_DATASET_FIELDS = {"key", "seed", "scale", "feature_dim"}
_TINY_DATASET_FIELDS = {
    "key",
    "seed",
    "feature_dim",
    "num_vertices",
    "avg_degree",
    "batch_size",
    "skew_exponent",
}
_OPTIMIZER_FIELDS = {"gpu_cache_fraction", "cpu_cache_vertex_fraction"}

_KNOWN_MODELS = ("graphsage", "gat", "gcn")


def _require_int(value, name, minimum=None, default=None):
    """An int field (bool explicitly rejected), range-checked."""
    if value is None:
        value = default
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer", field=name)
    if minimum is not None and value < minimum:
        raise RequestError(f"{name} must be >= {minimum}", field=name)
    return value


def _require_float(value, name, minimum=None, maximum=None, default=None):
    """A finite float field (ints accepted, bool rejected), range-checked."""
    if value is None:
        value = default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{name} must be a number", field=name)
    # NaN and ±Infinity (json.loads reads them) pass every range check
    if not abs(value) <= sys.float_info.max:
        raise RequestError(f"{name} must be a finite number", field=name)
    value = float(value)
    if minimum is not None and value < minimum:
        raise RequestError(f"{name} must be >= {minimum}", field=name)
    if maximum is not None and value > maximum:
        raise RequestError(f"{name} must be <= {maximum}", field=name)
    return value


def _parse_dataset(payload) -> DatasetProfile:
    """Validate the ``dataset`` object of a request."""
    from repro.graphs.datasets import DATASETS

    if not isinstance(payload, dict):
        raise RequestError(
            "dataset must be an object with a 'key' field", field="dataset"
        )
    key = payload.get("key")
    if not isinstance(key, str):
        raise RequestError("dataset.key must be a string", field="dataset.key")
    key = key.upper()
    known = sorted(DATASETS) + [TINY_KEY]
    if key != TINY_KEY and key not in DATASETS:
        raise RequestError(
            f"unknown dataset key {key!r} (known: {', '.join(known)})",
            field="dataset.key",
        )
    allowed = _TINY_DATASET_FIELDS if key == TINY_KEY else _REGISTRY_DATASET_FIELDS
    unknown = set(payload) - allowed
    if unknown:
        raise RequestError(
            f"unknown dataset field(s) for {key}: {', '.join(sorted(unknown))}",
            field="dataset",
        )
    seed = _require_int(payload.get("seed"), "dataset.seed", minimum=0, default=0)
    feature_dim = payload.get("feature_dim")
    if feature_dim is not None:
        feature_dim = _require_int(
            feature_dim, "dataset.feature_dim", minimum=1
        )
    if key == TINY_KEY:
        return DatasetProfile(
            key=key,
            seed=seed,
            feature_dim=feature_dim,
            num_vertices=_require_int(
                payload.get("num_vertices"),
                "dataset.num_vertices",
                minimum=64,
                default=2000,
            ),
            avg_degree=_require_float(
                payload.get("avg_degree"),
                "dataset.avg_degree",
                minimum=1.0,
                default=8.0,
            ),
            batch_size=_require_int(
                payload.get("batch_size"),
                "dataset.batch_size",
                minimum=1,
                default=64,
            ),
            skew_exponent=_require_float(
                payload.get("skew_exponent"),
                "dataset.skew_exponent",
                minimum=0.0,
                default=0.8,
            ),
        )
    scale = payload.get("scale")
    if scale is not None:
        scale = _require_float(scale, "dataset.scale", minimum=1e-6)
    return DatasetProfile(
        key=key, seed=seed, scale=scale, feature_dim=feature_dim
    )


def parse_request(payload) -> PlanRequest:
    """Validate one JSON planning payload into a :class:`PlanRequest`.

    Unknown fields are rejected (schema drift should fail loudly, not
    silently plan something else); every rejection raises
    :class:`RequestError` carrying the offending field.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(payload) - _TOP_FIELDS
    if unknown:
        raise RequestError(
            f"unknown field(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_TOP_FIELDS))})"
        )
    schema = payload.get("schema")
    if schema is not None and schema not in COMPAT_SCHEMAS:
        raise RequestError(
            f"schema is {schema!r}, this server speaks "
            f"{' / '.join(COMPAT_SCHEMAS)}",
            field="schema",
        )
    if "dataset" not in payload:
        raise RequestError("missing required field 'dataset'", field="dataset")
    dataset = _parse_dataset(payload["dataset"])

    machine = payload.get("machine")
    fabric = payload.get("fabric")
    if machine is not None and fabric is not None:
        raise RequestError(
            "give exactly one hardware identity: machine or fabric, not both",
            field="machine",
        )
    if machine is not None and not isinstance(machine, str):
        raise RequestError(
            "machine must be a registry name (string)", field="machine"
        )
    if fabric is not None and not isinstance(fabric, dict):
        raise RequestError(
            "fabric must be an inline repro.fabric/v1 object "
            "(the server does not read spec files)",
            field="fabric",
        )
    if machine is None and fabric is None:
        machine = "machine_a"

    model = payload.get("model", "graphsage")
    if not isinstance(model, str):
        raise RequestError("model must be a string", field="model")
    model = model.lower()
    if model not in _KNOWN_MODELS:
        raise RequestError(
            f"unknown model {model!r} (known: {', '.join(_KNOWN_MODELS)})",
            field="model",
        )

    fanouts = payload.get("fanouts", [25, 10])
    if (
        not isinstance(fanouts, (list, tuple))
        or not fanouts
        or not all(
            isinstance(f, int) and not isinstance(f, bool) and f >= 1
            for f in fanouts
        )
    ):
        raise RequestError(
            "fanouts must be a non-empty list of integers >= 1",
            field="fanouts",
        )

    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        timeout_s = _require_float(timeout_s, "timeout_s", minimum=0.001)

    simulate = payload.get("simulate", True)
    if not isinstance(simulate, bool):
        raise RequestError("simulate must be a boolean", field="simulate")

    optimizer = payload.get("optimizer") or {}
    if not isinstance(optimizer, dict):
        raise RequestError("optimizer must be an object", field="optimizer")
    unknown = set(optimizer) - _OPTIMIZER_FIELDS
    if unknown:
        raise RequestError(
            f"unknown optimizer field(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_OPTIMIZER_FIELDS))})",
            field="optimizer",
        )

    return PlanRequest(
        dataset=dataset,
        machine=machine,
        fabric=fabric,
        num_gpus=_require_int(
            payload.get("num_gpus"), "num_gpus", minimum=1, default=4
        ),
        num_ssds=_require_int(
            payload.get("num_ssds"), "num_ssds", minimum=1, default=8
        ),
        model=model,
        fanouts=tuple(int(f) for f in fanouts),
        sample_batches=_require_int(
            payload.get("sample_batches"),
            "sample_batches",
            minimum=1,
            default=10,
        ),
        seed=_require_int(payload.get("seed"), "seed", minimum=0, default=0),
        simulate=simulate,
        timeout_s=timeout_s,
        gpu_cache_fraction=_require_float(
            optimizer.get("gpu_cache_fraction"),
            "optimizer.gpu_cache_fraction",
            minimum=0.01,
            maximum=1.0,
            default=0.6,
        ),
        cpu_cache_vertex_fraction=_require_float(
            optimizer.get("cpu_cache_vertex_fraction"),
            "optimizer.cpu_cache_vertex_fraction",
            minimum=0.0,
            maximum=1.0,
            default=0.01,
        ),
    )


def cache_key(request: PlanRequest, machine) -> Tuple:
    """The normalized cache/single-flight key of one request.

    Hardware contributes its
    :func:`~repro.hardware.fabric.chassis_fingerprint` (structural
    identity, not the registry name), the dataset its full build
    recipe, and the optimizer its knobs — two requests share a key iff
    the solve they'd trigger is identical.
    """
    from repro.hardware.fabric import chassis_fingerprint

    return (
        chassis_fingerprint(machine.chassis),
        request.dataset.normalized(),
        tuple(int(f) for f in request.fanouts),
        int(request.num_gpus),
        int(request.num_ssds),
        request.model.lower(),
        int(request.sample_batches),
        int(request.seed),
        bool(request.simulate),
        (
            float(request.gpu_cache_fraction),
            float(request.cpu_cache_vertex_fraction),
        ),
    )

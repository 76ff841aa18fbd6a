"""repro.serve — the planning service (plans over HTTP).

Turns the library's one-shot solve (``repro.api.run``) into a
long-running service: ``RunSpec``-shaped JSON in, ``MomentPlan`` +
simulated throughput verdict out, under the versioned
:data:`~repro.serve.schema.SERVE_SCHEMA` (``repro.serve/v1.1``;
``repro.serve/v1`` requests still parse).

Layering (DESIGN.md §5f):

* :mod:`repro.serve.schema` — request parsing, cache-key
  normalization, the unified error envelope;
* :mod:`repro.serve.cache` — thread-safe LRU plan cache;
* :mod:`repro.serve.store` — persistent append-only plan store
  (``repro.servecache/v1``) that survives restarts;
* :mod:`repro.serve.planner` — the default solver (rides
  ``repro.api.run`` and the :mod:`repro.core.search` engine), plus the
  process-pool entry points;
* :mod:`repro.serve.service` — job table, bounded queue, worker pool,
  optional solver-process pool, single-flight dedup,
  backpressure/timeout semantics;
* :mod:`repro.serve.http` — stdlib ``ThreadingHTTPServer`` front-end
  (sync ``/v1/plan`` and the async ``/v1/jobs`` API).

Start a server with ``python -m repro.serve --port 8421 --workers 2
--solver-processes 4 --cache-path plans.jsonl``; drive it with
``python -m tools.loadgen --url http://...`` (see docs/API.md
for the wire schema and curl-able examples).
"""

from repro.serve.cache import PlanCache
from repro.serve.http import PlanServer, make_server, server_url
from repro.serve.schema import (
    ERROR_CODES,
    SERVE_SCHEMA,
    DatasetProfile,
    PlanRequest,
    RequestError,
    cache_key,
    error_body,
    parse_request,
)
from repro.serve.service import (
    JobState,
    PlanService,
    ServeConfig,
    ServeResponse,
)
from repro.serve.store import PlanStore

__all__ = [
    "SERVE_SCHEMA",
    "ERROR_CODES",
    "DatasetProfile",
    "PlanRequest",
    "RequestError",
    "parse_request",
    "cache_key",
    "error_body",
    "PlanCache",
    "PlanStore",
    "JobState",
    "PlanService",
    "ServeConfig",
    "ServeResponse",
    "PlanServer",
    "make_server",
    "server_url",
]

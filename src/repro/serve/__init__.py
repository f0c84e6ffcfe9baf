"""Fault-tolerant inference serving for trained models.

The serving workload the ROADMAP asks for: a stdlib-only, thread-based
HTTP service that survives malformed requests, slow forwards, NaN
models, and corrupt checkpoints — every response is structured JSON
with a deliberate status code, never a traceback.

- :mod:`repro.serve.validate` — request validation/sanitization
  (NaN/Inf features, out-of-range node ids, shape mismatches, oversized
  payloads → structured 4xx);
- :mod:`repro.serve.guard` — per-request deadlines, a failure-rate
  circuit breaker (closed → open → half-open), and bounded admission
  with load shedding;
- :mod:`repro.serve.fastpath` — the serving fast path's concurrency
  primitives: single-flight coalescing of cold-cache forwards and a
  micro-batching admission queue (the version-keyed logit store itself
  lives in :mod:`repro.perf.logitstore`);
- :mod:`repro.serve.engine` — the fast path + degradation ladder:
  memoized warm lookup → full deep forward → cached shallow ``Â^k X``
  fallback (``degraded: true``) → structured 503; startup checkpoint
  loading that skips corrupt archives; atomic hot model swap;
- :mod:`repro.serve.frontdoor` — the HTTP layer the model server and
  the fleet router share: one threading server and one handler base
  (a header reader in place of the stdlib's ``email`` parse, one write
  per response, one body reader with the size guard);
- :mod:`repro.serve.server` — the model server, with ``/predict``,
  ``/graph/update`` (durable dynamic-graph mutation; see
  ``docs/dynamic-graphs.md``), ``/reload``, ``/healthz``, ``/readyz``,
  ``/metrics`` (the PR-1 metrics registry);
- :mod:`repro.serve.client` — a retrying client (exponential backoff +
  jitter, idempotent-only retries, including transport errors during
  replica restarts);
- :mod:`repro.serve.fleet` / :mod:`repro.serve.supervisor` /
  :mod:`repro.serve.router` — the multi-process fleet: N forked replica
  servers supervised with exponential-backoff restarts and a
  restart-budget quarantine, fronted by a health-aware round-robin
  router with one-sibling retry, all sharing one cross-process
  :class:`~repro.perf.SharedLogitStore` (``python -m repro serve
  --workers N``).

See ``docs/serving.md`` for endpoints, error codes, breaker states and
degradation semantics; ``python -m repro serve`` starts a server.
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.fleet import FleetConfig, ServingFleet
from repro.serve.router import FleetRouter
from repro.serve.supervisor import ReplicaHandle, Supervisor
from repro.serve.engine import (
    InferenceEngine,
    ShallowFallback,
    engine_from_checkpoint_dir,
    load_checkpoint_model,
    model_from_cli_meta,
)
from repro.serve.fastpath import BatchClosed, MicroBatcher, SingleFlight
from repro.serve.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    GraphConflict,
    ModelFault,
    ModelUnavailable,
    Overloaded,
    PayloadTooLarge,
    ServeError,
    ValidationError,
    VersionConflict,
)
from repro.serve.guard import CircuitBreaker, Deadline, LoadShedder
from repro.serve.server import GRAPH_VERSION_HEADER, ModelServer
from repro.serve.validate import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_UPDATE_OPS,
    PredictRequest,
    parse_predict_request,
    parse_update_request,
)

__all__ = [
    "ModelServer",
    "FleetConfig",
    "ServingFleet",
    "FleetRouter",
    "Supervisor",
    "ReplicaHandle",
    "InferenceEngine",
    "ShallowFallback",
    "engine_from_checkpoint_dir",
    "load_checkpoint_model",
    "model_from_cli_meta",
    "SingleFlight",
    "MicroBatcher",
    "BatchClosed",
    "CircuitBreaker",
    "Deadline",
    "LoadShedder",
    "PredictRequest",
    "parse_predict_request",
    "parse_update_request",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_UPDATE_OPS",
    "GRAPH_VERSION_HEADER",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ValidationError",
    "PayloadTooLarge",
    "Overloaded",
    "CircuitOpenError",
    "ModelUnavailable",
    "DeadlineExceeded",
    "ModelFault",
    "GraphConflict",
    "VersionConflict",
]

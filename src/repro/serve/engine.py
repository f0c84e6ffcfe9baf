"""Inference engine: fast path, full model path, shallow fallback, ladder.

The engine owns one trained model attached to one graph and answers
validated :class:`~repro.serve.validate.PredictRequest`s.  Requests flow
through a memoizing *fast path* and then a three-rung degradation
ladder:

0. **Warm fast path** — transductive inference is deterministic and a
   full-graph forward computes logits for *all* N nodes, so the engine
   memoizes that matrix in a version-keyed
   :class:`~repro.perf.LogitStore` (key: model-parameter fingerprint +
   adjacency fingerprint + feature fingerprint + perf-mode settings).
   A warm request is answered by a pure row lookup — O(requested ids),
   no forward, no breaker/latency accounting (``"cached": true``).
1. **Full path** — on a cold key, the deep model's forward guarded by
   the circuit breaker and the request deadline.  Concurrent cold
   requests for the same key are *single-flighted*: one leader executes
   the forward, followers share its result (``"coalesced": true``)
   instead of stampeding N threads into N identical forwards.  With the
   store disabled, an optional micro-batching admission queue coalesces
   concurrent node-id sets into one evaluation per bounded window.
   Non-finite logits, exceptions, and blown deadlines all count as
   full-path *failures* — recorded on the breaker exactly once per
   executed forward, never per coalesced consumer.
2. **Degraded path** — when the full path fails, the breaker is open,
   or the latency estimate says the deadline cannot be met, the request
   is answered from the :class:`ShallowFallback`: an SGC-style linear
   head over the cached ``Â^k X`` propagation
   (:mod:`repro.perf.propcache`).  Lasagne's decoupled view of deep
   GCNs is what makes this principled — a shallow precomputed
   propagation still produces correctly-shaped, usefully-ranked logits
   at a fraction of the cost.  The fallback's own closed-form logits
   are memoized under its version key too, so warm degraded responses
   are also O(lookup).  Responses carry ``degraded: true`` plus the
   reason.
3. **Structured refusal** — with no fallback available the request
   fails with a 503-mapped :class:`~repro.serve.errors.ServeError`
   (never a traceback).

:meth:`InferenceEngine.swap_model` hot-swaps a new checkpoint
atomically: the old version's memoized logits are invalidated *before*
the new weights are published, and the active ``(model, version)`` pair
is a single tuple read, so a stale cached logit can never be served
after a reload.

:meth:`InferenceEngine.apply_update` is the dynamic-graph entry point
(``POST /graph/update``): fsync-WAL-first via
:class:`~repro.resilience.wal.GraphMutationLog`, then copy-on-write CSR
surgery + incremental renormalization
(:mod:`repro.graphs.mutate` — bitwise-identical to a full rebuild),
then *incremental* ``Â^k X`` maintenance (only the rows within k hops
of the change are recomputed, patched into the
:class:`~repro.perf.PropagationCache` under the new fingerprints), then
row-level :class:`~repro.perf.LogitStore` migration — untouched warm
rows keep serving while the rows inside the model's receptive field of
the change go stale.  A crash anywhere mid-apply is recovered on
startup by replaying the WAL from the base graph; replay is idempotent
by ``update_id`` and duplicate submissions are acknowledged no-ops.
``graph_version`` (the WAL's monotonic counter) fences the fleet: see
:mod:`repro.serve.server` / :mod:`repro.serve.router`.

Startup loads models via the PR-2 :class:`CheckpointManager` —
:func:`engine_from_checkpoint_dir` walks checkpoints newest-first and
silently skips corrupt archives, so a server always boots from the
newest *valid* state.
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.mutate import (
    MutationConflict,
    UpdateBatch,
    apply_batch,
    check_batch,
    dirty_rows,
    incremental_gcn_norm,
    normalization_state,
)
from repro.graphs.normalize import gcn_norm
from repro.obs import MetricsRegistry, get_logger, get_registry, get_tracer
from repro.perf import config as perf_config
from repro.perf import propcache
from repro.perf.logitstore import (
    LogitStore,
    model_fingerprint,
    operator_fingerprint,
)
from repro.resilience.checkpoint import CheckpointManager, arrays_to_state
from repro.resilience.wal import GraphMutationLog
from repro.serve.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    GraphConflict,
    ModelFault,
    ModelUnavailable,
    ServeError,
)
from repro.tensor.sparse import SparseMatrix
from repro.serve.fastpath import MicroBatcher, SingleFlight
from repro.serve.guard import CircuitBreaker, Deadline
from repro.serve.validate import PredictRequest
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

_LOG = get_logger("serve")

PathLike = Union[str, pathlib.Path]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class ShallowFallback:
    """SGC-style degraded predictor: a closed-form head over ``Â^k X``.

    The propagation ``P = Â^k X`` comes from the process-global
    :class:`~repro.perf.PropagationCache` (shared with any SGC/GCN model
    serving the same graph), and the linear map ``P W + b`` is fit in
    closed form as a ridge regression onto one-hot training labels — no
    training loop, a few milliseconds at startup, and every degraded
    response afterwards is one small matmul over precomputed rows.

    :attr:`version` fingerprints the fitted head (weights, bias, the
    adjacency, and ``k_hops``), which lets the serving fast path memoize
    :meth:`full_logits` in the same version-keyed store as the deep
    model — warm degraded responses become pure row lookups.
    """

    def __init__(
        self,
        graph: Graph,
        adj=None,
        k_hops: int = 2,
        ridge: float = 1e-3,
        quantize: Optional[bool] = None,
    ) -> None:
        if k_hops < 1:
            raise ValueError(f"k_hops must be >= 1, got {k_hops}")
        self.graph = graph
        self.k_hops = k_hops
        self.ridge = ridge
        self.adj = adj if adj is not None else gcn_norm(graph.adj)
        # Cached, shared, read-only Â^k X for the stored features.
        self._propagated = propcache.propagated_features(
            self.adj, graph.features, k=k_hops
        )
        train = graph.train_indices()
        onehot = np.zeros((train.size, graph.num_classes))
        onehot[np.arange(train.size), graph.labels[train]] = 1.0
        design = np.hstack(
            [self._propagated[train], np.ones((train.size, 1))]
        )
        gram = design.T @ design
        gram[np.diag_indices_from(gram)] += ridge
        solution = np.linalg.solve(gram, design.T @ onehot)
        self.weight = solution[:-1]
        self.bias = solution[-1]
        # Optional int8 weight quantization (8x smaller head), audited
        # at fit time: the quantized head only replaces the float one if
        # its argmax agrees with the float head on EVERY node of this
        # graph — otherwise the float weights stay and the quantization
        # is silently dropped.  ``None`` defers to the runtime switch.
        if quantize is None:
            quantize = perf_config.quantized_fallback_enabled()
        self.quantize = bool(quantize)
        self.quantized = None
        if quantize:
            from repro.perf.kernels import QuantizedHead

            head = QuantizedHead(self.weight, self.bias)
            float_argmax = (
                self._propagated @ self.weight + self.bias
            ).argmax(axis=1)
            if np.array_equal(
                head.logits(self._propagated).argmax(axis=1), float_argmax
            ):
                self.quantized = head
        self._version: Optional[str] = None

    @property
    def version(self) -> str:
        """Content fingerprint of the fitted head (see class docstring)."""
        if self._version is None:
            import hashlib

            digest = hashlib.sha1()
            digest.update(self.adj.fingerprint.encode())
            digest.update(str(self.k_hops).encode())
            digest.update(np.ascontiguousarray(self.weight).tobytes())
            digest.update(np.ascontiguousarray(self.bias).tobytes())
            if self.quantized is not None:
                # A quantized head serves (slightly) different logits, so
                # it must never share memoized entries with the float
                # head of the same fit.
                digest.update(b"int8")
                digest.update(self.quantized.q.tobytes())
                digest.update(self.quantized.scale.tobytes())
                digest.update(self.quantized.zero_point.tobytes())
            self._version = "fallback:" + digest.hexdigest()
        return self._version

    def full_logits(self) -> np.ndarray:
        """Degraded logits for *every* node (one matmul, memoizable)."""
        if self.quantized is not None:
            return self.quantized.logits(self._propagated)
        return self._propagated @ self.weight + self.bias

    def logits(
        self,
        nodes: np.ndarray,
        features_override: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Degraded logits for ``nodes`` (rows align with ``nodes``)."""
        if features_override is None:
            rows = self._propagated[nodes]
        else:
            # Overridden features perturb the whole propagation; recompute
            # directly (k spmms) without polluting the shared cache.
            x = self.graph.features.copy()
            x[nodes] = features_override
            for _ in range(self.k_hops):
                x = self.adj.csr @ x
            rows = x[nodes]
        if self.quantized is not None:
            return self.quantized.logits(rows)
        return rows @ self.weight + self.bias


def _mark_recorded(exc: BaseException) -> BaseException:
    """Tag an exception whose breaker outcome is already recorded."""
    exc._breaker_recorded = True  # type: ignore[attr-defined]
    return exc


class InferenceEngine:
    """One model + one graph + the fast path + the degradation ladder.

    Fast-path knobs
    ---------------
    fastpath:
        Enable the version-keyed logit store and single-flight
        coalescing (the production default for ``python -m repro
        serve``; disable to force every request through a forward).
    logit_store:
        The store to memoize into; a private bounded
        :class:`~repro.perf.LogitStore` by default.  Pass
        :func:`repro.perf.get_logit_store` to share across engines.
    batch_window_ms, max_batch:
        When ``batch_window_ms > 0``, requests on the non-memoized
        evaluation paths (the degraded fallback, and the full path when
        ``fastpath`` is off) are held up to this window and coalesced —
        the union of queued node-id sets is evaluated once.  A batch
        flushes early once ``max_batch`` node ids are queued.  With the
        store *enabled* and a model that supports restricted evaluation
        (SGC), store misses also route through the batcher and evaluate
        only the batch union — see ``restricted_max_frac``.
    restricted_max_frac:
        Largest batch-union size, as a fraction of N, that the
        union-restricted evaluator accepts; bigger unions fall back to
        one full forward (which warms every store row at similar cost).
    """

    def __init__(
        self,
        model,
        graph: Graph,
        fallback: Optional[ShallowFallback] = None,
        breaker: Optional[CircuitBreaker] = None,
        registry: Optional[MetricsRegistry] = None,
        fault_hook: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None,
        latency_ema_alpha: float = 0.3,
        preempt_margin: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
        fastpath: bool = True,
        logit_store: Optional[LogitStore] = None,
        batch_window_ms: float = 0.0,
        max_batch: int = 256,
        restricted_max_frac: float = 0.25,
        tracer=None,
        wal: Optional[GraphMutationLog] = None,
        update_fault_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        # The engine serves from frozen feature buffers whose fingerprints
        # it knows, so a graph update derives the next ones in O(batch)
        # instead of rehashing N rows (see _apply_to_memory).
        self._feat_fp = propcache.fingerprint(propcache.freeze(graph.features))
        self._setup(model, graph)
        self.fallback = fallback
        #: ``(graph, operator)`` to refit the fallback on before its next
        #: use: an update publishes it instead of refitting on its path.
        self._fallback_target: Optional[Tuple] = None
        self._fallback_lock = threading.Lock()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.registry = registry if registry is not None else get_registry()
        # Tracing rides the process-wide tracer unless one is injected;
        # the default is disabled, where every span call returns the
        # shared NULL_SPAN (no allocation on this hot path).
        self.tracer = tracer if tracer is not None else get_tracer()
        self.fault_hook = fault_hook
        self.latency_ema_alpha = latency_ema_alpha
        self.preempt_margin = preempt_margin
        self._clock = clock
        self._latency_ema: Optional[float] = None

        # -- fast path -------------------------------------------------
        self.fastpath = fastpath
        if logit_store is not None:
            self.logit_store: Optional[LogitStore] = logit_store
        else:
            self.logit_store = LogitStore() if fastpath else None
        self._singleflight = SingleFlight()
        self._swap_lock = threading.RLock()
        # (model, parameter fingerprint, adjacency fingerprint) published
        # as ONE tuple: predict() snapshots it once, so a concurrent
        # swap_model can never pair old weights with a new version key.
        self._active: Tuple = (model, model_fingerprint(model),
                               self._adj_fingerprint(model))
        self.batch_window_ms = batch_window_ms
        self.max_batch = max_batch
        # Union-restricted micro-batch eval is only profitable while the
        # union stays well under N: above this fraction a full forward
        # costs about the same and warms EVERY store row, not just the
        # union's.
        self.restricted_max_frac = restricted_max_frac
        window_s = batch_window_ms / 1000.0
        self._full_batcher: Optional[MicroBatcher] = (
            MicroBatcher(self._evaluate_full_union, window_s=window_s,
                         max_batch=max_batch, clock=clock)
            if batch_window_ms > 0 else None
        )
        self._fallback_batcher: Optional[MicroBatcher] = (
            MicroBatcher(self._evaluate_fallback_union, window_s=window_s,
                         max_batch=max_batch, clock=clock)
            if batch_window_ms > 0 and fallback is not None else None
        )

        # -- dynamic graph state ----------------------------------------
        # ``graph_version`` is the WAL's monotonic counter (0 = the base
        # graph); ``_update_versions`` mirrors the committed update ids so
        # duplicate submissions are acknowledged no-ops even without a WAL.
        self.graph_version = 0
        self.update_fault_hook = update_fault_hook
        self._update_versions: dict = {}
        self._update_lock = threading.Lock()
        self._norm_state: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._needs_recovery = False
        self._wal: Optional[GraphMutationLog] = None
        if wal is not None:
            self.attach_wal(wal)

    # -- versioning ----------------------------------------------------
    @staticmethod
    def _adj_fingerprint(model) -> Optional[str]:
        return operator_fingerprint(getattr(model, "_norm_adj", None))

    @staticmethod
    def _model_features(features: np.ndarray, feat_fp: str) -> Tensor:
        """``Tensor(features)`` over a frozen buffer with a known digest.

        A dtype cast (float32 under ``perf_mode()``) derives its
        fingerprint from ``feat_fp``; an uncast tensor shares
        ``features`` itself.
        """
        tensor = Tensor(features)
        if tensor.data is not features:
            propcache.freeze(tensor.data, propcache.derive_fingerprint(
                feat_fp, f"astype {tensor.data.dtype}"
            ))
        return tensor

    def _setup(self, model, graph: Graph) -> None:
        """``model.setup(graph)`` with frozen, fingerprinted features.

        A model not yet attached to ``graph`` gets its view seeded with
        :meth:`_model_features`, so the propagation cache keys its
        ``Â^k X`` chain without hashing; a view attached earlier has its
        buffer frozen and hashed once, on first use.
        """
        view_cache = getattr(model, "_view_cache", None)
        if view_cache is not None and id(graph) not in view_cache:
            view_cache[id(graph)] = (
                graph, model.build_operator(graph),
                self._model_features(graph.features, self._feat_fp),
            )
        model.setup(graph)
        features = getattr(model, "_features", None)
        if isinstance(features, Tensor):
            propcache.freeze(features.data)

    @property
    def model_version(self) -> str:
        """Parameter fingerprint of the currently-published model."""
        return self._active[1]

    def _store_key(self, request: PredictRequest) -> Optional[Tuple]:
        """The logit-store key for this request, or None if ineligible.

        Feature overrides perturb the forward per-request, a non-sparse
        operator has no content fingerprint, and a disabled fast path
        memoizes nothing — all ineligible.
        """
        if request.features is not None:
            return None
        return self._current_store_key()

    def _current_store_key(self) -> Optional[Tuple]:
        """The store key for the active (model, graph, perf) state.

        The perf-mode switches are part of the key because they change
        the computed bits.
        """
        if not self.fastpath or self.logit_store is None:
            return None
        _, version, adj_fp = self._active
        if adj_fp is None:
            return None
        return (version, adj_fp, self._feat_fp) + perf_config.bit_settings()

    def swap_model(self, model) -> str:
        """Atomically publish new weights; invalidates memoized logits.

        The swapped-out version's store entries are dropped *before* the
        new ``(model, version)`` pair becomes visible, and version keys
        contain the parameter fingerprint — so a request can never be
        answered with logits computed by the old weights once the swap
        returns.  Returns the new version fingerprint.
        """
        with self._swap_lock, self.tracer.span("serve.swap_model") as span:
            self._setup(model, self.graph)
            new_version = model_fingerprint(model)
            _, old_version, _ = self._active
            if self.logit_store is not None:
                self.logit_store.invalidate_version(old_version)
            self.model = model
            self._active = (model, new_version, self._adj_fingerprint(model))
            # The new model's forward cost is unknown; restart the EMA.
            self._latency_ema = None
            self.registry.counter("serve.reload").inc()
            span.update(
                old_version=old_version[:12], new_version=new_version[:12]
            )
            _LOG.info(
                "model swapped: %s -> %s", old_version[:12], new_version[:12]
            )
            return new_version

    # -- dynamic graph updates -----------------------------------------
    def receptive_field(self) -> Optional[int]:
        """Hop radius a mutation's influence travels in the model's output.

        SGC-style models expose ``k_hops``; message-passing stacks expose
        ``num_layers``.  ``None`` means the radius is unknown and every
        memoized logit row must be treated as stale after a mutation.
        """
        model = self._active[0]
        for attr in ("k_hops", "num_layers"):
            value = getattr(model, attr, None)
            if isinstance(value, int) and value > 0:
                return value
        return None

    def _update_hook(self, stage: str) -> None:
        """Fault-injection seam: stages ``pre-wal`` / ``wal-committed`` /
        ``pre-publish`` (see :class:`repro.resilience.CrashMidApply`)."""
        if self.update_fault_hook is not None:
            self.update_fault_hook(stage)

    def attach_wal(self, wal: GraphMutationLog) -> int:
        """Adopt a mutation log and replay committed records into memory.

        The engine must currently hold the graph state as of its own
        ``graph_version`` (0 for a freshly-built engine on the base
        graph); every WAL record after that version is re-applied through
        the same in-memory transition as a live update.  Replay is how a
        crashed replica recovers: the WAL is the source of truth, memory
        is a projection of it.  Returns the number of records replayed.
        """
        with self._update_lock:
            self._wal = wal
            replayed = 0
            for record in wal.records_after(self.graph_version):
                batch = UpdateBatch.from_ops(record.update_id, record.ops)
                self._apply_to_memory(batch, record.version)
                replayed += 1
            if replayed:
                self.registry.counter("serve.graph.replayed").inc(replayed)
                self.registry.gauge("serve.graph_version").set(
                    self.graph_version
                )
                _LOG.info(
                    "replayed %d WAL record(s); graph at version %d "
                    "(%d nodes)",
                    replayed, self.graph_version, self.graph.num_nodes,
                )
            return replayed

    def apply_update(self, batch: UpdateBatch) -> dict:
        """Durably apply one mutation batch: WAL-first, then memory.

        The transactional order is the whole point:

        1. preflight against live state and the model (409 before
           anything is written: a conflicting op, or node growth on a
           model bound to its node count, ``node_bound_model``);
        2. duplicate ``update_id`` → acknowledged no-op (idempotent
           retries are safe at every failure point below);
        3. fsync the WAL record — *the commit point*;
        4. in-memory transition (CSR surgery, incremental renorm,
           ``Â^k X`` patching, row-level logit-store migration);
        5. publish the new fingerprints and ``graph_version``.

        A crash after (3) loses nothing: startup replay re-applies the
        record.  A *non-fatal* failure after (3) leaves the WAL ahead of
        memory, so the engine fences itself (503 ``needs_recovery``) and
        keeps serving the last consistent graph until restarted.
        """
        with self._update_lock, self.tracer.span(
            "serve.graph_update.apply", ops=batch.num_ops
        ) as span:
            if self._needs_recovery:
                raise ServeError(
                    "a previous update failed after its WAL commit; restart "
                    "this replica so WAL replay can restore consistency",
                    status=503, code="needs_recovery",
                )
            committed = self._update_versions.get(batch.update_id)
            if committed is None and self._wal is not None:
                committed = self._wal.version_of(batch.update_id)
            if committed is not None:
                self.registry.counter("serve.graph.duplicates").inc()
                span.update(duplicate=True, graph_version=self.graph_version)
                return {
                    "applied": False,
                    "duplicate": True,
                    "update_id": batch.update_id,
                    "graph_version": self.graph_version,
                    "num_nodes": self.graph.num_nodes,
                }
            try:
                check_batch(self.graph, batch)
            except MutationConflict as exc:
                self.registry.counter("serve.graph.conflicts").inc()
                raise GraphConflict(str(exc), code=exc.code) from exc
            num_nodes = self.graph.num_nodes + batch.add_nodes
            model = self._active[0]
            if not model.can_attach(num_nodes):
                self.registry.counter("serve.graph.conflicts").inc()
                raise GraphConflict(
                    f"the model's parameters are bound to "
                    f"{self.graph.num_nodes} nodes and cannot serve a graph "
                    f"with {num_nodes}; node growth needs a model that is "
                    "not node-bound (e.g. Lasagne with aggregator='maxpool')",
                    code="node_bound_model",
                )
            self._update_hook("pre-wal")
            if self._wal is not None:
                with self.tracer.span("serve.graph_update.wal"):
                    record = self._wal.append(batch.update_id, batch.to_ops())
                version = record.version
            else:
                version = self.graph_version + 1
            try:
                self._update_hook("wal-committed")
                stats = self._apply_to_memory(batch, version)
            except BaseException:
                # The WAL (or, WAL-less, possibly memory itself) is ahead
                # of the published state: refuse further mutations until a
                # restart replays the log from the base graph.  Predicts
                # keep serving the last consistently-published version.
                self._needs_recovery = True
                raise
            self.registry.counter("serve.graph.updates").inc()
            self.registry.gauge("serve.graph_version").set(version)
            span.update(graph_version=version, **stats)
            _LOG.info(
                "graph update %s -> version %d (%d ops, %d nodes)",
                batch.update_id, version, batch.num_ops,
                self.graph.num_nodes,
            )
            return {
                "applied": True,
                "duplicate": False,
                "update_id": batch.update_id,
                "graph_version": version,
                "num_nodes": self.graph.num_nodes,
                **stats,
            }

    def _apply_to_memory(self, batch: UpdateBatch, version: int) -> dict:
        """The in-memory transition shared by live applies and WAL replay.

        The mutated graph gets a *new object identity*: the old
        :class:`Graph` and its arrays are never touched, so in-flight
        forwards reading the old view stay consistent, and every
        ``id(graph)``-keyed per-model precomputation (the base class's
        view cache, SGC's attach-time ``Â^K X``) misses naturally instead
        of silently serving stale state.  ``Â`` is renormalized
        incrementally when the model uses the stock ``gcn_norm`` operator
        (bitwise-identical to a rebuild), and the model's own ``Â^k X``
        chain in the shared propagation cache is patched row-wise.  A
        changed buffer's fingerprint is derived from its parent's plus
        the batch, so nothing is rehashed.  Until the publish nothing
        that serves has changed; the publish then, under the swap lock,
        attaches the model to the new view, migrates logit-store entries
        row-wise and flips the published graph, fingerprints and
        version together.  The shallow fallback is refit lazily, on its
        first use after the update (:meth:`_fallback_head`).
        """
        from repro.models.base import GNNModel

        model, model_version, old_adj_fp = self._active
        old_graph = self.graph
        old_op = getattr(model, "_norm_adj", None)
        old_feat_fp = self._feat_fp
        incremental = (
            isinstance(old_op, SparseMatrix)
            and type(model).build_operator is GNNModel.build_operator
        )
        norm_state = self._norm_state
        if incremental and norm_state is None:
            norm_state = normalization_state(old_graph.adj)
        with self.tracer.span("serve.graph_update.mutate"):
            graph = Graph(
                adj=old_graph.adj,
                features=old_graph.features,
                labels=old_graph.labels,
                train_mask=old_graph.train_mask,
                val_mask=old_graph.val_mask,
                test_mask=old_graph.test_mask,
                name=old_graph.name,
                num_classes=old_graph.num_classes,
            )
            delta = apply_batch(graph, batch)
        features_changed = graph.features is not old_graph.features
        new_feat_fp = old_feat_fp
        if features_changed:
            new_feat_fp = propcache.derive_fingerprint(
                old_feat_fp, batch.digest()
            )
            propcache.freeze(graph.features, new_feat_fp)
        new_op = None
        if incremental:
            with self.tracer.span("serve.graph_update.renorm"):
                new_op, degrees, inv_sqrt = incremental_gcn_norm(
                    old_op, graph, delta, *norm_state
                )
                norm_state = (degrees, inv_sqrt)
        else:
            norm_state = None
        dirty: dict = {}

        def rows_for(power: int) -> np.ndarray:
            if power not in dirty:
                dirty[power] = dirty_rows(graph.adj, delta, power)
            return dirty[power]

        # Seed the model's view of the new graph — the incrementally
        # renormalized operator, and the old feature tensor when no
        # feature row changed — so the attach at publish builds nothing.
        view_cache = getattr(model, "_view_cache", None)
        old_features = getattr(model, "_features", None)
        features = new_adj_fp = None
        migrated_powers = 0
        try:
            if view_cache is not None:
                if features_changed or not isinstance(old_features, Tensor):
                    features = self._model_features(graph.features, new_feat_fp)
                else:
                    features = old_features
                op = new_op if new_op is not None else model.build_operator(graph)
                view_cache[id(graph)] = (graph, op, features)
                new_adj_fp = operator_fingerprint(op)
            # Patch the chain the model reads — keyed by its own feature
            # buffer, a float32 cast of the graph's under perf_mode() — so
            # SGC's attach at publish is a cache hit, not k full spmms.
            if (
                new_op is not None
                and old_adj_fp is not None
                and features is not None
            ):
                with self.tracer.span("serve.graph_update.propagate"):
                    migrated_powers = propcache.get_cache().migrate_propagation(
                        old_adj_fp, propcache.fingerprint(old_features.data),
                        new_op, features.data, rows_for,
                    )
            field = self.receptive_field()
            stale = rows_for(field) if field is not None else None
            self._update_hook("pre-publish")
            with self._swap_lock:
                prop_tensors = getattr(model, "_prop_tensors", None)
                if prop_tensors is not None:
                    prop_tensors.clear()
                try:
                    model.attach(graph)
                    if view_cache is None:
                        new_adj_fp = self._adj_fingerprint(model)
                    migrated_entries = self._migrate_store(
                        model_version, (old_adj_fp, old_feat_fp),
                        (new_adj_fp, new_feat_fp), stale,
                    )
                except BaseException:
                    model.attach(old_graph)
                    raise
                self.graph = graph
                self._feat_fp = new_feat_fp
                self._active = (model, model_version, new_adj_fp)
                self.graph_version = version
                self._update_versions[batch.update_id] = version
                self._norm_state = norm_state
                if self.fallback is not None:
                    self._fallback_target = (graph, new_op)
        except BaseException:
            # Nothing was published: the model still serves the old view
            # (SGC's attach-time Â^K X included).  The propagation chain
            # already moved to the new fingerprints, so a later lookup
            # under the old ones recomputes it: cold, not wrong.
            if view_cache is not None:
                view_cache.pop(id(graph), None)
            raise
        # Published: memory hygiene for id(old_graph)-keyed caches, so a
        # long-lived engine does not accumulate one view per update.
        if view_cache is not None:
            view_cache.pop(id(old_graph), None)
        attach_cache = getattr(model, "_prop_cache", None)
        if isinstance(attach_cache, dict):
            for key in [
                k for k in attach_cache
                if (isinstance(k, tuple) and k and k[0] == id(old_graph))
                or k == id(old_graph)
            ]:
                attach_cache.pop(key, None)
        self.registry.gauge("serve.graph.num_nodes").set(graph.num_nodes)
        return {
            "incremental": new_op is not None,
            "dirty_rows": int(stale.size) if stale is not None else None,
            "cache_powers_migrated": migrated_powers,
            "store_entries_migrated": migrated_entries,
        }

    def _migrate_store(self, model_version: str, old_fps: Tuple,
                       new_fps: Tuple, stale: Optional[np.ndarray]) -> int:
        """Row-level logit-store maintenance for a published update.

        Entries under the old ``(adj, feat)`` fingerprints move to the new
        key with only the receptive-field rows ``stale`` marked stale, so
        untouched warm rows keep serving.  An unknown radius (or a store
        without row semantics) degrades to whole-version invalidation:
        correctness over warmth.  Returns the number of entries migrated.
        """
        store = self.logit_store
        if store is None:
            return 0
        if stale is None:
            store.invalidate_version(model_version)
            return 0
        if old_fps[0] is None or new_fps[0] is None or not hasattr(store, "keys"):
            store.invalidate_rows(model_version, stale)
            return 0
        migrated = 0
        for key in store.keys():
            if (
                isinstance(key, tuple)
                and len(key) >= 3
                and key[0] == model_version
                and key[1:3] == old_fps
            ):
                new_key = (model_version,) + new_fps + key[3:]
                if store.migrate(key, new_key, stale_rows=stale):
                    migrated += 1
        return migrated

    # -- full path -----------------------------------------------------
    def _full_logits(self, request: PredictRequest, model=None) -> np.ndarray:
        """Full-graph logits from the deep model (eval mode, no tape)."""
        model = self.model if model is None else model
        # Snapshot (operator, features) as ONE dict read of the model's
        # view-cache tuple: apply_update republishes that tuple atomically,
        # so a forward overlapping a graph mutation can never pair the new
        # operator with the old features (or vice versa).
        view = getattr(model, "_view_cache", {}).get(id(self.graph))
        if view is not None:
            _, op, feats = view
        else:
            op, feats = model._norm_adj, model._features
        if request.features is None:
            x = feats
        else:
            patched = feats.data.copy()
            patched[request.nodes] = request.features
            x = Tensor(patched)
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                logits = model.forward(op, x)
        finally:
            if was_training:
                model.train()
        data = logits.data
        if self.fault_hook is not None:
            mutated = self.fault_hook(data)
            if mutated is not None:
                data = mutated
        return data

    def _update_latency(self, elapsed: float) -> None:
        if self._latency_ema is None:
            self._latency_ema = elapsed
        else:
            a = self.latency_ema_alpha
            self._latency_ema = a * elapsed + (1 - a) * self._latency_ema

    @property
    def full_latency_estimate(self) -> Optional[float]:
        """EMA of recent full-forward wall time, seconds (None until warm)."""
        return self._latency_ema

    def _attempt_full(
        self, request: PredictRequest, deadline: Optional[Deadline]
    ) -> np.ndarray:
        with self.tracer.span(
            "serve.forward", nodes=len(request.nodes)
        ) as span:
            start = self._clock()
            logits = self._full_logits(request)
            elapsed = self._clock() - start
            self._update_latency(elapsed)
            span.set("forward_ms", round(1000 * elapsed, 3))
            selected = logits[request.nodes]
            if not np.isfinite(selected).all():
                raise ModelFault("full model produced non-finite logits")
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"full forward took {1000 * elapsed:.1f} ms, over the "
                    f"{1000 * deadline.budget_s:.0f} ms budget"
                )
            return selected

    def _coalesced_full(
        self,
        request: PredictRequest,
        deadline: Optional[Deadline],
        key: Tuple,
    ) -> Tuple[np.ndarray, bool]:
        """Single-flighted cold-cache forward; returns (rows, coalesced).

        The flight leader executes the forward, records the one breaker
        outcome, updates the latency EMA and stores the full matrix;
        followers share the stored matrix (or the leader's exception,
        already breaker-recorded).  The forward and the key it is stored
        under come from one published state: both are read under the
        swap lock, which a graph update or model swap holds to publish.
        """

        def compute() -> np.ndarray:
            try:
                with self.tracer.span("serve.forward") as fwd_span, \
                        self._swap_lock:
                    key = self._current_store_key()
                    start = self._clock()
                    logits = self._full_logits(request, model=self._active[0])
                    elapsed = self._clock() - start
                    self._update_latency(elapsed)
                    fwd_span.set("forward_ms", round(1000 * elapsed, 3))
                    if not np.isfinite(logits).all():
                        raise ModelFault(
                            "full model produced non-finite logits"
                        )
                    if deadline is not None and deadline.expired:
                        raise DeadlineExceeded(
                            f"full forward took {1000 * elapsed:.1f} ms, over "
                            f"the {1000 * deadline.budget_s:.0f} ms budget"
                        )
                    stored = (
                        logits if key is None
                        else self.logit_store.put(key, logits)
                    )
                self.breaker.record_success()
                return stored
            except Exception as exc:
                self.breaker.record_failure()
                raise _mark_recorded(exc)

        timeout = deadline.clamp() if deadline is not None else None
        with self.tracer.span("serve.singleflight") as sf_span:
            try:
                logits, leader, waiters = self._singleflight.run(
                    key, compute, timeout_s=timeout
                )
            except TimeoutError as exc:
                raise _mark_recorded(DeadlineExceeded(str(exc))) from None
            sf_span.update(leader=leader, waiters=waiters)
            if leader:
                if waiters:
                    self.registry.counter(
                        "serve.fastpath.coalesced_waiters"
                    ).inc(waiters)
            elif deadline is not None and deadline.expired:
                raise _mark_recorded(DeadlineExceeded(
                    "deadline expired while waiting on a coalesced forward"
                ))
        return logits[request.nodes], not leader

    def _restricted_rows(self, union: np.ndarray, span=None):
        """Union-restricted rows for a micro-batch, or None.

        When the model can evaluate a node subset exactly
        (``supports_restricted_eval`` — SGC's one-matmul head) and the
        union is small relative to N, a store miss costs
        ``O(|union| · F · C)`` instead of a full ``(N, C)`` forward.
        The computed rows warm the logit store row-wise
        (:meth:`~repro.perf.LogitStore.put_rows`), so repeats of the
        same ids become warm hits without *any* full forward ever
        running.  Returns ``None`` — caller falls back to the full
        forward — when the model can't restrict or the union is big
        enough that a full forward (which warms every row) amortizes
        better.
        """
        if not getattr(self._active[0], "supports_restricted_eval", False):
            return None
        # The rows come from the model's attach-time state, which a graph
        # update flips together with the store key under the swap lock:
        # read both, and file the rows, under it too.
        with self._swap_lock:
            if len(union) > self.restricted_max_frac * self.graph.num_nodes:
                return None
            rows = self._active[0].restricted_logits(union)
            if rows is None:
                return None
            key = self._current_store_key()
            if key is not None:
                put_rows = getattr(self.logit_store, "put_rows", None)
                if put_rows is not None:
                    put_rows(key, union, rows, self.graph.num_nodes)
        self.registry.counter("serve.fastpath.restricted_rows").inc(
            len(union)
        )
        if span is not None:
            span.set("restricted", True)
        return rows

    def _evaluate_full_union(self, union: np.ndarray) -> np.ndarray:
        """Micro-batch evaluator: one evaluation for a union of ids.

        Union-restricted when the model supports it and the union is
        small (see :meth:`_restricted_rows`); otherwise one full forward
        whose ``(N, C)`` matrix also warms the logit store.  Restricted
        evaluations do not touch the latency EMA — their wall time says
        nothing about the cost of a full forward, which is what the EMA
        feeds (deadline preemption).
        """
        self.registry.histogram("serve.fastpath.batch_size").observe(
            len(union)
        )
        try:
            # Runs on the batch leader's thread, so the span lands under
            # its serve.microbatch span; followers see only the wait.
            with self.tracer.span(
                "serve.forward", batch_union=len(union)
            ) as span:
                selected = self._restricted_rows(union, span)
                if selected is None:
                    # One published state for the forward and its key
                    # (see _coalesced_full).
                    with self._swap_lock:
                        start = self._clock()
                        logits = self._full_logits(PredictRequest(nodes=union))
                        elapsed = self._clock() - start
                        key = self._current_store_key()
                        if key is not None:
                            logits = self.logit_store.put(key, logits)
                    self._update_latency(elapsed)
                    span.set("forward_ms", round(1000 * elapsed, 3))
                    selected = logits[union]
                if not np.isfinite(selected).all():
                    raise ModelFault("full model produced non-finite logits")
            self.breaker.record_success()
            return selected
        except Exception as exc:
            self.breaker.record_failure()
            raise _mark_recorded(exc)

    def _batched_full(
        self, request: PredictRequest, deadline: Optional[Deadline]
    ) -> np.ndarray:
        timeout = deadline.clamp() if deadline is not None else None
        with self.tracer.span(
            "serve.microbatch", nodes=len(request.nodes)
        ) as span:
            try:
                rows = self._full_batcher.submit(
                    request.nodes, timeout_s=timeout
                )
            except TimeoutError as exc:
                raise _mark_recorded(DeadlineExceeded(str(exc))) from None
            span.set("flushes", self._full_batcher.flushes)
            if deadline is not None and deadline.expired:
                raise _mark_recorded(DeadlineExceeded(
                    "deadline expired while waiting on a micro-batch"
                ))
            return rows

    # -- degraded path -------------------------------------------------
    def _fallback_head(self) -> ShallowFallback:
        """The fallback, refit on the published graph on first use.

        A graph update only records the graph to refit on, keeping the
        ridge solve (and its ``Â^k X``) off the update path.  The first
        degraded request afterwards fits the new head — with the same
        ``k_hops``, ridge and quantization request, so the fit-time
        argmax audit still decides whether an int8 head is kept — and
        drops the old head's store entries.
        """
        if self._fallback_target is None:
            return self.fallback
        with self._fallback_lock:
            target = self._fallback_target
            if target is not None:
                old = self.fallback
                graph, adj = target
                head = ShallowFallback(
                    graph, adj=adj, k_hops=old.k_hops, ridge=old.ridge,
                    quantize=old.quantize,
                )
                with self._swap_lock:
                    self.fallback = head
                    if self._fallback_target is target:
                        self._fallback_target = None
                # Entries are keyed by the version, so a head never
                # versioned has none.
                if self.logit_store is not None and old._version is not None:
                    self.logit_store.invalidate_version(old._version)
            return self.fallback

    def _evaluate_fallback_union(self, union: np.ndarray) -> np.ndarray:
        self.registry.histogram("serve.fastpath.batch_size").observe(
            len(union)
        )
        return self._fallback_head().logits(union)

    def _degraded_logits(
        self, request: PredictRequest, deadline: Optional[Deadline]
    ) -> Tuple[np.ndarray, bool]:
        """Fallback rows for the request; returns (rows, from_cache)."""
        fallback = self._fallback_head()
        with self.tracer.span("serve.fallback") as span:
            if request.features is not None:
                span.set("mode", "features_override")
                return fallback.logits(request.nodes, request.features), False
            if self.fastpath and self.logit_store is not None:
                fkey = (fallback.version,)
                cached = self.logit_store.get(fkey)
                if cached is not None:
                    self.registry.counter("serve.fastpath.hits").inc()
                    span.update(mode="memoized", hit=True)
                    return cached[request.nodes], True
                self.registry.counter("serve.fastpath.misses").inc()
                span.update(mode="memoized", hit=False)
                timeout = deadline.clamp() if deadline is not None else None
                full, leader, waiters = self._singleflight.run(
                    fkey,
                    lambda: self.logit_store.put(fkey, fallback.full_logits()),
                    timeout_s=timeout,
                )
                span.update(leader=leader, waiters=waiters)
                if leader and waiters:
                    self.registry.counter(
                        "serve.fastpath.coalesced_waiters"
                    ).inc(waiters)
                return full[request.nodes], False
            if self._fallback_batcher is not None:
                span.set("mode", "microbatch")
                timeout = deadline.clamp() if deadline is not None else None
                return (
                    self._fallback_batcher.submit(
                        request.nodes, timeout_s=timeout
                    ),
                    False,
                )
            span.set("mode", "direct")
            return fallback.logits(request.nodes), False

    # -- the ladder ----------------------------------------------------
    def predict(
        self, request: PredictRequest, deadline: Optional[Deadline] = None
    ) -> dict:
        """Answer a validated request via the fast path + ladder."""
        tracer = self.tracer
        fast_key = self._store_key(request)
        if fast_key is not None:
            with tracer.span("serve.store.lookup") as span:
                # Row-level lookup: after a graph mutation only the rows
                # inside the model's receptive field of the change are
                # stale, and requests touching none of them keep hitting.
                rows = self.logit_store.get_rows(fast_key, request.nodes)
                span.set("hit", rows is not None)
            if rows is not None:
                # Warm hit: no forward, no breaker or latency-EMA
                # accounting — a lookup can't say anything about the
                # model's health or its full-forward cost.
                self.registry.counter("serve.fastpath.hits").inc()
                return self._result(
                    request, rows, degraded=False, cached=True,
                )
            self.registry.counter("serve.fastpath.misses").inc()

        reason: Optional[str] = None
        if not self.breaker.allow():
            reason = "breaker_open"
            self.registry.counter("serve.breaker.short_circuit").inc()
            tracer.annotate(breaker_state=self.breaker.state)
        elif (
            deadline is not None
            and self._latency_ema is not None
            and deadline.remaining() < self._latency_ema * self.preempt_margin
        ):
            # The full path cannot plausibly meet the budget: degrade
            # up-front instead of burning the budget to find out.
            reason = "deadline_preempted"
            self.registry.counter("serve.deadline.preempted").inc()
            tracer.annotate(
                deadline_remaining_ms=round(1000 * deadline.remaining(), 3),
                latency_ema_ms=round(1000 * self._latency_ema, 3),
            )

        if reason is None:
            try:
                coalesced = False
                if fast_key is not None:
                    model = self._active[0]
                    if (
                        self._full_batcher is not None
                        and getattr(model, "supports_restricted_eval", False)
                    ):
                        # Union-restricted micro-batch: the batcher
                        # coalesces concurrent misses and the evaluator
                        # computes only the union's rows (warming those
                        # store rows) instead of the full (N, C) matrix.
                        selected = self._batched_full(request, deadline)
                    else:
                        selected, coalesced = self._coalesced_full(
                            request, deadline, fast_key
                        )
                elif (
                    self._full_batcher is not None
                    and request.features is None
                ):
                    selected = self._batched_full(request, deadline)
                else:
                    selected = self._attempt_full(request, deadline)
                    self.breaker.record_success()
                self.registry.counter("serve.predict.full").inc()
                return self._result(
                    request, selected, degraded=False, coalesced=coalesced
                )
            except Exception as exc:  # any full-path failure degrades
                if not getattr(exc, "_breaker_recorded", False):
                    self.breaker.record_failure()
                self.registry.counter("serve.predict.failures").inc()
                reason = exc.code if isinstance(exc, ServeError) else "model_fault"
                tracer.annotate(full_path_error=f"{type(exc).__name__}: {exc}")
                _LOG.warning("full path failed (%s): %s", reason, exc)

        if self.fallback is None:
            if reason == "breaker_open":
                raise CircuitOpenError(
                    "circuit breaker is open and no degraded fallback is "
                    "configured; retry after cool-down",
                    detail=self.breaker.snapshot(),
                )
            raise ModelUnavailable(
                f"full model failed ({reason}) and no degraded fallback is "
                "configured",
                detail={"reason": reason},
            )
        try:
            selected, from_cache = self._degraded_logits(request, deadline)
        except Exception as exc:
            raise ModelUnavailable(
                f"degraded fallback failed: {exc}", detail={"reason": reason}
            ) from exc
        self.registry.counter("serve.predict.degraded").inc()
        return self._result(
            request, selected, degraded=True, reason=reason, cached=from_cache
        )

    def _result(
        self,
        request: PredictRequest,
        logits: np.ndarray,
        degraded: bool,
        reason: Optional[str] = None,
        cached: bool = False,
        coalesced: bool = False,
    ) -> dict:
        result = {
            "nodes": request.nodes.tolist(),
            "classes": np.argmax(logits, axis=1).astype(int).tolist(),
            "degraded": degraded,
            "cached": cached,
            "model": "fallback-sgc" if degraded else type(self.model).__name__.lower(),
        }
        if coalesced:
            result["coalesced"] = True
        if reason is not None:
            result["reason"] = reason
        # The root request span carries the outcome attributes, so a
        # rendered trace explains itself without the response body.
        self.tracer.annotate(degraded=degraded, cached=cached)
        if coalesced:
            self.tracer.annotate(coalesced=True)
        if reason is not None:
            self.tracer.annotate(degradation_reason=reason)
        if request.return_probabilities:
            result["probabilities"] = _softmax(logits).round(6).tolist()
        return result

    def info(self) -> dict:
        """Status view used by ``/readyz`` and ``/metrics``."""
        fastpath: dict = {
            "enabled": self.fastpath,
            "model_version": self.model_version[:12],
            "singleflight": self._singleflight.info(),
        }
        if self.logit_store is not None:
            fastpath["store"] = self.logit_store.info()
        if self._full_batcher is not None:
            fastpath["batching"] = self._full_batcher.info()
        info = {
            "model": type(self.model).__name__,
            "graph": self.graph.name,
            "num_nodes": self.graph.num_nodes,
            "num_features": self.graph.num_features,
            "fallback": self.fallback is not None,
            "latency_ema_s": self._latency_ema,
            "breaker": self.breaker.snapshot(),
            "fastpath": fastpath,
            "graph_version": self.graph_version,
        }
        if self._wal is not None:
            info["wal"] = {
                "path": str(self._wal.path),
                "records": len(self._wal),
                "last_version": self._wal.last_version,
                "truncated_bytes": self._wal.truncated_bytes,
            }
        if self._needs_recovery:
            info["needs_recovery"] = True
        return info


# ---------------------------------------------------------------------------
# Startup loading (nn.serialization + PR-2 CheckpointManager)
# ---------------------------------------------------------------------------

def model_from_cli_meta(cli: dict, graph: Graph):
    """Rebuild the trained model from a checkpoint's CLI metadata.

    Mirrors the ``python -m repro train`` model construction so a
    checkpoint written by ``train --checkpoint-every`` can be served
    without repeating the original command line.
    """
    from repro.core import Lasagne
    from repro.models import build_model, model_names

    hp = hyperparams_for_cli(cli)
    name = cli.get("model", "lasagne")
    if name == "lasagne":
        return Lasagne(
            graph.num_features, hp.hidden, graph.num_classes,
            num_layers=cli.get("layers", 5),
            aggregator=cli.get("aggregator", "stochastic"),
            dropout=hp.dropout, fm_rank=hp.fm_rank,
            seed=cli.get("seed", 0),
        )
    if name in model_names():
        return build_model(
            name, graph.num_features, graph.num_classes,
            hidden=hp.hidden, num_layers=cli.get("layers", 5),
            dropout=hp.dropout, seed=cli.get("seed", 0),
        )
    raise ModelUnavailable(f"checkpoint names unknown model {name!r}")


def hyperparams_for_cli(cli: dict):
    from repro.training import hyperparams_for

    return hyperparams_for(cli["dataset"])


def load_checkpoint_model(
    manager: CheckpointManager, graph: Optional[Graph] = None
):
    """``(model, graph, ckpt)`` from the newest valid checkpoint, or None.

    Shared by cold startup (:func:`engine_from_checkpoint_dir`) and hot
    reload (:meth:`repro.serve.ModelServer.reload_checkpoint`): walks
    checkpoints newest-first, skips corrupt archives, rebuilds the model
    from the embedded CLI metadata and restores the best (or last)
    parameters.
    """
    ckpt = manager.load_latest()
    if ckpt is None:
        _LOG.warning("no usable checkpoint under %s", manager.directory)
        return None
    cli = ckpt.meta.get("extra", {}).get("metadata", {}).get("cli")
    if graph is None:
        if not cli:
            _LOG.warning(
                "checkpoint %s carries no CLI metadata and no graph was "
                "supplied", ckpt.path,
            )
            return None
        from repro.datasets import load_dataset

        graph = load_dataset(
            cli["dataset"], scale=cli.get("scale"), seed=cli.get("seed", 0)
        )
    if not cli:
        raise ModelUnavailable(
            f"checkpoint {ckpt.path} carries no CLI metadata; build the "
            "model explicitly and use InferenceEngine(...) directly"
        )
    model = model_from_cli_meta(cli, graph)
    model.setup(graph)
    state = arrays_to_state(ckpt.arrays, ckpt.meta)
    params = state["best_state"] or state["model"]
    model.load_state_dict(params)
    return model, graph, ckpt


def engine_from_checkpoint_dir(
    directory: Union[PathLike, CheckpointManager],
    graph: Optional[Graph] = None,
    *,
    fallback_k: Optional[int] = 2,
    breaker: Optional[CircuitBreaker] = None,
    registry: Optional[MetricsRegistry] = None,
    **engine_kwargs,
) -> Optional[InferenceEngine]:
    """Build an engine from the newest *valid* training checkpoint.

    ``CheckpointManager.load_latest`` skips corrupt/truncated archives
    (checksum + deserialization verified), so a server pointed at a
    damaged checkpoint directory boots from the newest surviving state.
    Returns ``None`` when nothing usable exists — callers decide whether
    that means "refuse to start" (CLI) or "start unready" (tests).

    ``fallback_k=None`` disables the degraded path.  Fast-path knobs
    (``fastpath``, ``batch_window_ms``, ``max_batch``, ``logit_store``)
    pass through to :class:`InferenceEngine`.
    """
    manager = (
        directory
        if isinstance(directory, CheckpointManager)
        else CheckpointManager(directory)
    )
    loaded = load_checkpoint_model(manager, graph)
    if loaded is None:
        return None
    model, graph, ckpt = loaded
    _LOG.info(
        "serving %s from checkpoint %s (epoch %d)",
        type(model).__name__, ckpt.path.name, ckpt.step,
    )
    fallback = (
        ShallowFallback(graph, k_hops=fallback_k)
        if fallback_k is not None
        else None
    )
    return InferenceEngine(
        model, graph,
        fallback=fallback, breaker=breaker, registry=registry,
        **engine_kwargs,
    )

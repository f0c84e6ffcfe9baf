"""Full-graph trainer with validation early stopping and fault recovery.

Implements the paper's protocol (§5.1.3): Adam, up to 400 epochs,
training stops when validation accuracy has not improved for 20
consecutive evaluations, and the parameters of the best validation epoch
are restored before testing.

Both evaluation protocols are supported:

- *transductive* (default): loss and evaluation on the same graph;
- *inductive* (``inductive=True``, Flickr/Reddit in Table 4): the loss
  pass sees only the training-node-induced subgraph, evaluation attaches
  the full graph.

Resilience (see ``docs/resilience.md``):

- ``checkpoint_every=N, checkpoint_dir=...`` writes an atomic,
  checksummed checkpoint of the *complete* training state (parameters,
  best-epoch parameters, optimizer moments, scheduler epoch, every RNG
  stream, early-stopping counters) every N epochs;
- ``resume_from=...`` restores the newest valid checkpoint and
  continues the run bitwise-identically to an uninterrupted one;
- ``guards=GuardConfig(...)`` detects NaN/Inf loss or exploding
  gradient norms *before* the optimizer applies the step, rolls back to
  the last good state with learning-rate backoff, and — once the retry
  budget is spent — aborts with a structured
  :class:`~repro.resilience.TrainingDiverged` instead of poisoning the
  run;
- ``fault_hook=`` is the deterministic fault-injection seam used by the
  resilience tests (``repro.resilience.faults``); it costs nothing when
  unset.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
import time
from typing import Callable, List, Optional, Union

import numpy as np

from repro import nn
from repro.graphs.graph import Graph
from repro.models.base import GNNModel
from repro.nn.serialization import CheckpointError
from repro.obs import get_logger, get_registry, get_tracer
from repro.obs.profiler import OpProfiler
from repro.obs.runlog import RunLogger
from repro.resilience.checkpoint import (
    CheckpointManager,
    arrays_to_state,
    capture_training_state,
    restore_training_state,
    state_to_arrays,
)
from repro.resilience.guards import DivergenceGuard, GuardConfig, TrainingDiverged
from repro.tensor import functional as F

_LOG = get_logger("trainer")


@dataclasses.dataclass
class TrainConfig:
    """Optimizer and stopping settings for one training run.

    ``max_grad_norm`` enables global-norm gradient clipping (useful for
    the deepest configurations); ``lr_schedule`` is one of ``None``,
    ``"cosine"`` or ``"step"``; ``checkpoint_path`` writes the best
    validation state to disk as an ``.npz`` checkpoint; ``guards``
    attaches a divergence-recovery policy
    (:class:`~repro.resilience.GuardConfig`) to every ``fit``.
    """

    lr: float = 0.02
    weight_decay: float = 5e-4
    epochs: int = 400
    patience: int = 20
    seed: int = 0
    verbose: bool = False
    max_grad_norm: Optional[float] = None
    lr_schedule: Optional[str] = None
    checkpoint_path: Optional[str] = None
    guards: Optional[GuardConfig] = None


@dataclasses.dataclass
class TrainResult:
    """Outcome of one training run."""

    best_val_acc: float
    test_acc: float
    epochs_run: int
    train_losses: List[float]
    val_accuracies: List[float]
    epoch_times: List[float]
    history: dict
    rollbacks: int = 0
    resumed_from_epoch: Optional[int] = None

    @property
    def mean_epoch_time(self) -> float:
        return float(np.mean(self.epoch_times)) if self.epoch_times else 0.0


def _gate_stats(model: GNNModel) -> dict:
    """Stochastic-aggregator gate summary for the epoch record.

    Lasagne's stochastic variant keeps per-node layer-activation
    probabilities in ``model.gate``; other models contribute nothing.
    """
    gate = getattr(model, "gate", None)
    if gate is None or not hasattr(gate, "probabilities_numpy"):
        return {}
    probs = gate.probabilities_numpy()
    return {
        "gate_mean": float(probs.mean()),
        "gate_min": float(probs.min()),
        "gate_max": float(probs.max()),
    }


class _Bookkeeping:
    """The trainer-loop state that must survive rollback and resume."""

    def __init__(self, model: GNNModel) -> None:
        self.best_val = -1.0
        self.best_state = model.state_dict()
        self.stale = 0
        self.losses: List[float] = []
        self.val_accs: List[float] = []
        self.times: List[float] = []
        self.lrs: List[float] = []
        self.grad_norms: List[float] = []

    def extra(self, metadata: Optional[dict] = None) -> dict:
        """The JSON-able (plus ``best_state`` arrays) snapshot payload."""
        payload = {
            "best_val": self.best_val,
            "best_state": self.best_state,
            "stale": self.stale,
            "losses": list(self.losses),
            "val_accs": list(self.val_accs),
            "times": list(self.times),
            "lrs": list(self.lrs),
            "grad_norms": list(self.grad_norms),
        }
        if metadata:
            payload["metadata"] = metadata
        return payload

    def restore(self, extra: dict, best_state: Optional[dict]) -> None:
        self.best_val = float(extra["best_val"])
        self.stale = int(extra["stale"])
        self.losses[:] = extra["losses"]
        self.val_accs[:] = extra["val_accs"]
        self.times[:] = extra["times"]
        self.lrs[:] = extra["lrs"]
        self.grad_norms[:] = extra["grad_norms"]
        if best_state:
            self.best_state = best_state


class Trainer:
    """Train a :class:`~repro.models.base.GNNModel` on a :class:`Graph`."""

    def __init__(self, config: Optional[TrainConfig] = None) -> None:
        self.config = config or TrainConfig()

    def _make_scheduler(self, optimizer):
        schedule = self.config.lr_schedule
        if schedule is None:
            return None
        if schedule == "cosine":
            return nn.CosineAnnealingLR(optimizer, total_epochs=self.config.epochs)
        if schedule == "step":
            return nn.StepLR(optimizer, step_size=max(self.config.epochs // 4, 1))
        raise ValueError(
            f"unknown lr_schedule {schedule!r}; options: None, 'cosine', 'step'"
        )

    @staticmethod
    def _resolve_resume(resume_from) -> dict:
        """Load the training-state snapshot named by ``resume_from``.

        Accepts a checkpoint directory (newest valid checkpoint wins,
        corrupt files skipped), a single ``.npz`` checkpoint path, or a
        :class:`CheckpointManager`.
        """
        if isinstance(resume_from, CheckpointManager):
            ckpt = resume_from.load_latest()
        else:
            path = pathlib.Path(resume_from)
            if path.is_dir():
                ckpt = CheckpointManager(path).load_latest()
            else:
                ckpt = CheckpointManager(path.parent).load(path)
        if ckpt is None:
            raise CheckpointError(
                f"no usable checkpoint found under {resume_from}"
            )
        return arrays_to_state(ckpt.arrays, ckpt.meta)

    def fit(
        self,
        model: GNNModel,
        graph: Graph,
        inductive: bool = False,
        epoch_callback: Optional[Callable[[int, GNNModel], None]] = None,
        logger: Optional[RunLogger] = None,
        profiler: Optional[OpProfiler] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Union[None, str, pathlib.Path, CheckpointManager] = None,
        resume_from: Union[None, str, pathlib.Path, CheckpointManager] = None,
        guards: Optional[GuardConfig] = None,
        fault_hook: Optional[Callable[[int, GNNModel, nn.Optimizer], None]] = None,
        checkpoint_metadata: Optional[dict] = None,
        tracer=None,
    ) -> TrainResult:
        """Train ``model`` on ``graph`` and return the result.

        ``epoch_callback(epoch, model)`` runs after each epoch — the MI
        experiments (Fig. 6) use it to trace hidden representations.

        ``logger`` (a :class:`repro.obs.RunLogger`) receives one
        structured ``epoch`` record per epoch plus ``divergence`` /
        ``rollback`` / ``checkpoint`` resilience events; ``profiler`` (a
        :class:`repro.obs.OpProfiler`) is enabled for the duration of
        the fit; both default to off and add nothing when omitted.

        ``checkpoint_every=N`` + ``checkpoint_dir`` writes a crash-safe
        checkpoint every N epochs; ``resume_from`` continues from the
        newest valid checkpoint bitwise-identically; ``guards``
        (falling back to ``config.guards``) enables divergence rollback
        with LR backoff; ``fault_hook(epoch, model, optimizer)`` is the
        fault-injection seam used by the resilience tests;
        ``checkpoint_metadata`` rides along in every checkpoint (the CLI
        stores the invocation there so ``python -m repro resume`` can
        rebuild the model).

        ``tracer`` (defaulting to the process-wide
        :func:`repro.obs.get_tracer`, which is disabled until
        configured) wraps the fit in a ``train.fit`` root trace with one
        ``train.epoch`` span per epoch — loss, validation accuracy and
        divergence rollbacks land as span attributes.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        tracer = tracer if tracer is not None else get_tracer()

        train_view = graph.training_subgraph() if inductive else graph
        model.setup(graph)  # full view first: sizes node-aware params to N
        if inductive:
            model.attach(train_view)

        optimizer = nn.Adam(
            model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay
        )
        scheduler = self._make_scheduler(optimizer)

        guard_cfg = guards if guards is not None else cfg.guards
        guard = DivergenceGuard(guard_cfg) if guard_cfg is not None else None

        manager: Optional[CheckpointManager] = None
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            manager = (
                checkpoint_dir
                if isinstance(checkpoint_dir, CheckpointManager)
                else CheckpointManager(checkpoint_dir)
            )

        book = _Bookkeeping(model)
        start_epoch = 0
        resumed_from: Optional[int] = None
        if resume_from is not None:
            snapshot = self._resolve_resume(resume_from)
            extra = restore_training_state(
                snapshot, model, optimizer, scheduler, rng
            )
            book.restore(extra, snapshot.get("best_state"))
            start_epoch = snapshot["epoch"] + 1
            resumed_from = snapshot["epoch"]
            _LOG.info("resumed from checkpoint epoch %d", resumed_from)

        if logger is not None:
            logger.log(
                "fit_start",
                model=repr(model),
                dataset=getattr(graph, "name", None),
                num_nodes=graph.num_nodes,
                epochs=cfg.epochs,
                patience=cfg.patience,
                lr=cfg.lr,
                weight_decay=cfg.weight_decay,
                lr_schedule=cfg.lr_schedule,
                seed=cfg.seed,
                inductive=inductive,
                resumed_from_epoch=resumed_from,
                guarded=guard is not None,
                checkpoint_every=checkpoint_every,
            )

        # The guard needs a rollback target before the first good epoch.
        if guard is not None and guard.snapshot is None:
            guard.snapshot = capture_training_state(
                model, optimizer, scheduler, rng, epoch=start_epoch - 1,
                extra=book.extra(checkpoint_metadata),
            )

        epochs_run = start_epoch

        profile_ctx = (
            profiler.profile() if profiler is not None else contextlib.nullcontext()
        )
        # Root trace for the fit; one train.epoch span per epoch hangs
        # underneath it.  The default tracer is disabled, so untraced
        # runs pay only NULL_SPAN context-manager no-ops per epoch.
        fit_span = tracer.trace(
            "train.fit",
            model=type(model).__name__,
            dataset=getattr(graph, "name", None),
            epochs=cfg.epochs,
            inductive=inductive,
        )
        with profile_ctx, fit_span:
            epoch = start_epoch
            while epoch < cfg.epochs:
                epochs_run = epoch + 1
                with tracer.span("train.epoch", epoch=epoch) as espan:
                    start = time.perf_counter()
                    model.train()
                    model.begin_epoch(rng)
                    logits, index = model.training_batch()
                    batch_graph = model.graph
                    mask = batch_graph.train_mask[index]
                    if not mask.any():
                        raise RuntimeError(
                            "training batch contains no labeled nodes"
                        )
                    loss = F.cross_entropy(
                        logits[np.flatnonzero(mask)],
                        batch_graph.labels[index][mask],
                    )
                    aux = model.auxiliary_loss()
                    if aux is not None:
                        loss = loss + aux
                    optimizer.zero_grad()
                    loss.backward()
                    if fault_hook is not None:
                        fault_hook(epoch, model, optimizer)
                    if cfg.max_grad_norm is not None:
                        grad_total = nn.clip_grad_norm(
                            optimizer.params, cfg.max_grad_norm
                        )
                    else:
                        grad_total = nn.grad_norm(optimizer.params)
                    loss_val = loss.item()

                    if guard is not None:
                        reason = guard.diagnose(loss_val, grad_total)
                        if reason is not None:
                            tracer.annotate(divergence=reason, loss=loss_val)
                            epoch = self._handle_divergence(
                                guard, reason, epoch, loss_val, grad_total,
                                model, optimizer, scheduler, rng, book, logger,
                            )
                            continue

                    lr_used = optimizer.lr  # the rate this step applied
                    optimizer.step()
                    if scheduler is not None:
                        scheduler.step()
                    book.times.append(time.perf_counter() - start)
                    book.losses.append(loss_val)
                    book.lrs.append(lr_used)
                    book.grad_norms.append(grad_total)

                    # Validation (on the full graph for inductive
                    # protocols).
                    if inductive:
                        model.attach(graph)
                    predictions = model.predict()
                    val_acc = F.accuracy(
                        predictions[graph.val_mask],
                        graph.labels[graph.val_mask],
                    )
                    book.val_accs.append(val_acc)
                    if espan.is_recording:
                        espan.update(loss=loss_val, val_acc=val_acc)
                    if epoch_callback is not None:
                        epoch_callback(epoch, model)
                    if inductive:
                        model.attach(train_view)

                    if logger is not None:
                        logger.log_epoch(
                            epoch,
                            loss=loss_val,
                            val_acc=val_acc,
                            lr=lr_used,
                            grad_norm=grad_total,
                            epoch_time=book.times[-1],
                            **_gate_stats(model),
                        )

                    if val_acc > book.best_val:
                        book.best_val = val_acc
                        book.best_state = model.state_dict()
                        book.stale = 0
                    else:
                        book.stale += 1

                    if guard is not None or (
                        manager is not None
                        and (epoch + 1) % checkpoint_every == 0
                    ):
                        snapshot = capture_training_state(
                            model, optimizer, scheduler, rng, epoch,
                            extra=book.extra(checkpoint_metadata),
                        )
                        if guard is not None:
                            guard.record_good(epoch, snapshot)
                        if (
                            manager is not None
                            and (epoch + 1) % checkpoint_every == 0
                        ):
                            arrays, meta = state_to_arrays(snapshot)
                            path = manager.save(epoch, arrays, meta)
                            get_registry().counter("trainer.checkpoint").inc()
                            if logger is not None:
                                logger.log(
                                    "checkpoint", epoch=epoch, path=str(path)
                                )

                    if book.stale >= cfg.patience:
                        break
                    if cfg.verbose and epoch % 20 == 0:
                        _LOG.info(
                            "epoch %4d  loss %.4f  val %.4f",
                            epoch, loss_val, val_acc,
                        )
                    epoch += 1

            model.load_state_dict(book.best_state)
            if cfg.checkpoint_path:
                nn.save_module(
                    model, cfg.checkpoint_path,
                    metadata={
                        "best_val_acc": book.best_val,
                        "epochs_run": epochs_run,
                    },
                )
            if inductive:
                model.attach(graph)
            predictions = model.predict()
            test_acc = F.accuracy(
                predictions[graph.test_mask], graph.labels[graph.test_mask]
            )
        if logger is not None:
            logger.log(
                "fit_end",
                best_val_acc=book.best_val,
                test_acc=test_acc,
                epochs_run=epochs_run,
                mean_epoch_time=float(np.mean(book.times)) if book.times else 0.0,
                rollbacks=guard.retries_used if guard is not None else 0,
            )
        return TrainResult(
            best_val_acc=book.best_val,
            test_acc=test_acc,
            epochs_run=epochs_run,
            train_losses=book.losses,
            val_accuracies=book.val_accs,
            epoch_times=book.times,
            history={
                "loss": book.losses,
                "val_acc": book.val_accs,
                "lr": book.lrs,
                "grad_norm": book.grad_norms,
            },
            rollbacks=guard.retries_used if guard is not None else 0,
            resumed_from_epoch=resumed_from,
        )

    @staticmethod
    def _handle_divergence(
        guard: DivergenceGuard,
        reason: str,
        epoch: int,
        loss_val: float,
        grad_total: float,
        model: GNNModel,
        optimizer,
        scheduler,
        rng: np.random.Generator,
        book: _Bookkeeping,
        logger: Optional[RunLogger],
    ) -> int:
        """Roll back to the last good state; returns the epoch to retry.

        Raises :class:`TrainingDiverged` with a structured
        :class:`TrainFailure` once the retry budget (or LR floor) is
        exhausted.
        """
        guard.emit(
            "divergence", logger,
            epoch=epoch, reason=reason, loss=loss_val,
            grad_norm=grad_total, lr=optimizer.lr,
        )
        if not guard.can_retry(optimizer.lr):
            failure = guard.failure(
                reason, epoch, loss_val, grad_total, optimizer.lr
            )
            guard.emit("train_failure", logger, **failure.as_dict())
            raise TrainingDiverged(failure)

        snapshot = guard.snapshot
        extra = restore_training_state(
            snapshot, model, optimizer, scheduler, rng
        )
        book.restore(extra, snapshot.get("best_state"))
        # Backoff compounds across rollbacks even when the rollback
        # target (and its stored LR) has not advanced in between.
        guard.lr_scale *= guard.config.lr_backoff
        optimizer.lr *= guard.lr_scale
        if scheduler is not None:
            scheduler.base_lr *= guard.lr_scale
        optimizer.zero_grad()
        guard.retries_used += 1
        guard.lr_history.append(optimizer.lr)
        guard.emit(
            "rollback", logger,
            from_epoch=epoch, to_epoch=snapshot["epoch"],
            retries_used=guard.retries_used, lr=optimizer.lr,
        )
        return snapshot["epoch"] + 1

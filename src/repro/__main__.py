"""Unified command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``      print the Table 2 dataset overview (optionally scaled)
``train``         train one model on one dataset and report accuracy
                  (``--checkpoint-every``/``--guard`` make it crash-safe)
``resume``        continue an interrupted ``train --checkpoint-every`` run
                  from its newest valid checkpoint, bitwise-identically
``select``        run the aggregator bake-off on a dataset
``profile``       train a few epochs under the op profiler, print the
                  per-op cost table and write a JSONL run log
``experiments``   run the paper's tables/figures (delegates to run_all;
                  ``--resume``/``--keep-going``/``--retries`` for fault
                  tolerance)
``bench``         time micro-ops, training epochs and full-graph
                  inference in reference (float64) vs optimized
                  (float32 + fused + cached) mode; writes
                  ``BENCH_train.json`` / ``BENCH_infer.json``
``serve``         start the fault-tolerant JSON inference server
                  (``/predict``, ``/healthz``, ``/readyz``,
                  ``/metrics``, ``/traces``) from a checkpoint
                  directory, a module checkpoint, or a freshly
                  (quick-)trained model; ``--trace`` turns on request
                  tracing with sampling and slow-request capture
``trace``         render a trace JSONL file (``results/traces/...``)
                  as per-request waterfalls and a per-span-name
                  latency breakdown (inclusive and exclusive p50/95/99)
``metrics``       fetch ``/metrics`` from a running server (or read a
                  saved JSON snapshot) in JSON or Prometheus text form
"""

from __future__ import annotations

import argparse
import sys


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import dataset_summary

    print(dataset_summary(scale=args.scale))
    return 0


def _build_model(args: argparse.Namespace, graph, hp):
    """Build the model named by ``args.model`` (or None + error message)."""
    from repro.core import Lasagne
    from repro.models import build_model, model_names

    if args.model == "lasagne":
        return Lasagne(
            graph.num_features, hp.hidden, graph.num_classes,
            num_layers=args.layers, aggregator=args.aggregator,
            dropout=hp.dropout, fm_rank=hp.fm_rank, seed=args.seed,
        )
    if args.model in model_names():
        return build_model(
            args.model, graph.num_features, graph.num_classes,
            hidden=hp.hidden, num_layers=args.layers,
            dropout=hp.dropout, seed=args.seed,
        )
    print(
        f"unknown model {args.model!r}; options: lasagne, "
        + ", ".join(model_names()),
        file=sys.stderr,
    )
    return None


def _train_cli_metadata(args: argparse.Namespace, epochs: int) -> dict:
    """The invocation record stored in every checkpoint, so ``resume``
    can rebuild the graph/model/config without the original command."""
    return {
        "cli": {
            "dataset": args.dataset,
            "model": args.model,
            "aggregator": args.aggregator,
            "layers": args.layers,
            "epochs": epochs,
            "scale": args.scale,
            "seed": args.seed,
            "inductive": args.inductive,
            "checkpoint_every": args.checkpoint_every,
        }
    }


def _run_train(args: argparse.Namespace, resume_from=None) -> int:
    """Shared train/resume driver: build, fit (with resilience), report."""
    from repro.datasets import load_dataset
    from repro.resilience import GuardConfig, TrainingDiverged
    from repro.training import TrainConfig, Trainer, hyperparams_for

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    hp = hyperparams_for(args.dataset)
    print(graph)

    model = _build_model(args, graph, hp)
    if model is None:
        return 2

    epochs = args.epochs if args.epochs else hp.epochs
    guards = None
    if args.guard:
        guards = GuardConfig(max_retries=args.guard_retries)
    config = TrainConfig(
        lr=hp.lr, weight_decay=hp.weight_decay,
        epochs=epochs, patience=hp.patience, seed=args.seed,
        guards=guards,
    )
    checkpoint_dir = args.checkpoint_dir
    if args.checkpoint_every and not checkpoint_dir:
        checkpoint_dir = (
            f"results/checkpoints/{args.dataset}-{args.model}-seed{args.seed}"
        )
    try:
        result = Trainer(config).fit(
            model, graph, inductive=args.inductive,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
            checkpoint_metadata=_train_cli_metadata(args, epochs),
        )
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        print(f"failure record: {exc.failure.as_dict()}", file=sys.stderr)
        return 3
    resumed = (
        f", resumed from epoch {result.resumed_from_epoch}"
        if result.resumed_from_epoch is not None else ""
    )
    print(
        f"{args.model}: test {100 * result.test_acc:.1f}% "
        f"(val {100 * result.best_val_acc:.1f}%, "
        f"{result.epochs_run} epochs, "
        f"{1000 * result.mean_epoch_time:.1f} ms/epoch"
        f"{resumed})"
    )
    if checkpoint_dir and args.checkpoint_every:
        print(f"checkpoints under {checkpoint_dir}")
    if args.checkpoint:
        from repro import nn

        path = nn.save_module(
            model, args.checkpoint,
            metadata={"dataset": args.dataset, "test_acc": result.test_acc},
        )
        print(f"checkpoint written to {path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    return _run_train(args)


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.nn.serialization import CheckpointError
    from repro.resilience import CheckpointManager

    manager = CheckpointManager(args.run_dir)
    ckpt = manager.load_latest()
    if ckpt is None:
        print(f"no usable checkpoint under {args.run_dir}", file=sys.stderr)
        return 2
    cli = ckpt.meta.get("extra", {}).get("metadata", {}).get("cli")
    if not cli:
        print(
            f"checkpoint {ckpt.path} carries no CLI metadata; resume "
            f"programmatically via Trainer.fit(resume_from=...)",
            file=sys.stderr,
        )
        return 2
    print(
        f"resuming {cli['dataset']}/{cli['model']} from epoch "
        f"{ckpt.step} ({ckpt.path.name})"
    )
    resumed = argparse.Namespace(
        dataset=cli["dataset"],
        model=cli["model"],
        aggregator=cli.get("aggregator", "stochastic"),
        layers=cli.get("layers", 5),
        epochs=args.epochs if args.epochs else cli.get("epochs"),
        scale=cli.get("scale"),
        seed=cli.get("seed", 0),
        inductive=cli.get("inductive", False),
        checkpoint_every=cli.get("checkpoint_every"),
        checkpoint_dir=str(args.run_dir),
        guard=args.guard,
        guard_retries=args.guard_retries,
        checkpoint=None,
    )
    try:
        return _run_train(resumed, resume_from=manager)
    except CheckpointError as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return 2


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core import select_aggregator
    from repro.datasets import load_dataset
    from repro.training import hyperparams_for

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    hp = hyperparams_for(args.dataset)
    report = select_aggregator(
        graph, hp,
        num_layers=args.layers,
        budget_epochs=args.budget,
        seed=args.seed,
        inductive=args.inductive,
    )
    print(f"ranking (by validation accuracy, budget {report.budget_epochs} epochs):")
    for name in report.ranking():
        print(
            f"  {name:<11} val {100 * report.validation_accuracy[name]:5.1f}%  "
            f"test {100 * report.test_accuracy[name]:5.1f}%"
        )
    print(f"selected: {report.best}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.obs import DEFAULT_RUN_DIR, OpProfiler, RunLogger, new_run_id
    from repro.training import TrainConfig, Trainer, hyperparams_for

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    hp = hyperparams_for(args.dataset)
    print(graph)

    model = _build_model(args, graph, hp)
    if model is None:
        return 2

    # patience >= epochs: profile every requested epoch, no early stop.
    config = TrainConfig(
        lr=hp.lr, weight_decay=hp.weight_decay,
        epochs=args.epochs, patience=args.epochs, seed=args.seed,
    )
    logger = None
    if not args.no_log:
        logger = RunLogger(
            run_id=new_run_id(f"profile-{args.dataset}-{args.model}"),
            directory=args.run_dir or DEFAULT_RUN_DIR,
            metadata={
                "command": "profile",
                "dataset": args.dataset,
                "model": args.model,
                "layers": args.layers,
                "epochs": args.epochs,
                "seed": args.seed,
            },
        )
    profiler = OpProfiler()
    result = Trainer(config).fit(model, graph, logger=logger, profiler=profiler)

    print()
    print(profiler.report(top=args.top))
    print(
        f"\n{args.model}: {result.epochs_run} profiled epochs, "
        f"{1000 * result.mean_epoch_time:.1f} ms/epoch "
        f"(val {100 * result.best_val_acc:.1f}%)"
    )
    if logger is not None:
        logger.close()
        print(f"run log: {logger.path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        format_report,
        format_serve_report,
        run_bench,
        run_serve_bench,
    )

    if args.kernels:
        from repro.perf.bench import format_kernels_report, run_kernels_bench

        result = run_kernels_bench(
            dataset=args.dataset,
            k=max(args.k, 3),
            repeats=args.repeats,
            scale=args.scale,
            seed=args.seed,
            out_dir=args.out_dir,
            write=not args.no_write,
        )
        print(format_kernels_report(result))
        for path in result["paths"]:
            print(f"\nwrote {path}")
        return 0

    if args.mutate:
        from repro.perf.bench import format_mutate_report, run_mutate_bench

        model = args.models[0] if len(args.models) == 1 else "sgc"
        result = run_mutate_bench(
            dataset=args.dataset,
            model=model,
            batches=args.repeats,
            scale=args.scale,
            seed=args.seed,
            out_dir=args.out_dir,
            write=not args.no_write,
        )
        print(format_mutate_report(result))
        for path in result["paths"]:
            print(f"\nwrote {path}")
        return 0

    if args.serve:
        # --models usually lists several for the train bench; the serve
        # bench times one engine, defaulting to the paper's model.
        model = args.models[0] if len(args.models) == 1 else "lasagne"
        result = run_serve_bench(
            dataset=args.dataset,
            model=model,
            repeats=args.repeats,
            concurrency=args.concurrency,
            workers=args.workers,
            scale=args.scale,
            seed=args.seed,
            out_dir=args.out_dir,
            write=not args.no_write,
        )
        print(format_serve_report(result))
        for path in result["paths"]:
            print(f"\nwrote {path}")
        return 0

    result = run_bench(
        dataset=args.dataset,
        models=tuple(args.models),
        epochs=args.epochs,
        repeats=args.repeats,
        scale=args.scale,
        seed=args.seed,
        out_dir=args.out_dir,
        write=not args.no_write,
    )
    print(format_report(result))
    if result["paths"]:
        print()
        for path in result["paths"]:
            print(f"wrote {path}")
    return 0


def _serve_until_signal(serve_name: str, on_drain) -> int:
    """Park the main thread until SIGTERM/SIGINT, then drain gracefully.

    The server/fleet runs in background threads; signal handlers only
    set an event, so the drain sequence itself runs in normal thread
    context (handlers must not block).
    """
    import signal
    import threading

    stop = threading.Event()

    def _handle(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    stop.wait()
    print(f"draining {serve_name}")
    on_drain()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.serve import (
        CircuitBreaker,
        InferenceEngine,
        ModelServer,
        ShallowFallback,
        engine_from_checkpoint_dir,
    )
    from repro.training import TrainConfig, Trainer, hyperparams_for

    tracer = None
    if args.trace:
        from repro.obs import configure_tracer

        # Installed process-wide *before* the engine/server are built,
        # so their get_tracer() defaults pick it up.
        tracer = configure_tracer(
            sample_rate=args.trace_sample,
            slow_threshold_ms=args.trace_slow_ms,
            directory=args.trace_dir,
            capacity=args.trace_capacity,
        )

    breaker = CircuitBreaker(
        failure_threshold=args.breaker_threshold,
        window=args.breaker_window,
        cooldown_s=args.breaker_cooldown,
    )
    fallback_k = None if args.no_fallback else args.fallback_k
    fastpath_kwargs = dict(
        fastpath=not args.no_fastpath,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
    )
    if args.checkpoint_dir:
        engine = engine_from_checkpoint_dir(
            args.checkpoint_dir, fallback_k=fallback_k, breaker=breaker,
            **fastpath_kwargs,
        )
        if engine is None:
            print(
                f"no usable checkpoint under {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return 2
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        hp = hyperparams_for(args.dataset)
        model = _build_model(args, graph, hp)
        if model is None:
            return 2
        if args.checkpoint:
            from repro import nn

            model.setup(graph)
            nn.load_module(model, args.checkpoint)
        elif args.train_epochs:
            config = TrainConfig(
                lr=hp.lr, weight_decay=hp.weight_decay,
                epochs=args.train_epochs, patience=args.train_epochs,
                seed=args.seed,
            )
            result = Trainer(config).fit(model, graph)
            print(
                f"quick-trained {args.model}: "
                f"val {100 * result.best_val_acc:.1f}%"
            )
        fallback = (
            ShallowFallback(graph, k_hops=fallback_k)
            if fallback_k is not None else None
        )
        engine = InferenceEngine(
            model, graph, fallback=fallback, breaker=breaker,
            **fastpath_kwargs,
        )

    wal_dir = getattr(args, "wal_dir", None)

    if args.workers > 1:
        from repro.serve import FleetConfig, ServingFleet

        fleet = ServingFleet(engine, FleetConfig(
            workers=args.workers,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_body_bytes=args.max_body_bytes,
            max_nodes=args.max_nodes,
            default_deadline_ms=args.deadline_ms,
            checkpoint_source=args.checkpoint_dir or None,
            drain_timeout_s=args.drain_timeout,
            shared_store=not args.no_fastpath,
            wal_dir=wal_dir,
        ))
        fleet.start()
        print(
            f"fleet: {args.workers} x {engine.info()['model']} replicas "
            f"behind {fleet.url}"
        )
        if wal_dir:
            print(f"graph updates: per-replica WALs under {wal_dir}")
        print(
            "endpoints: POST /predict /graph/update /reload   "
            "GET /healthz /readyz /metrics /fleet"
        )
        if args.dry_run:
            ready = fleet.wait_ready(timeout_s=60.0)
            snap = fleet.snapshot()
            print(
                f"dry run: {snap['supervisor']['up']}/{args.workers} "
                "replicas came up; shutting down"
            )
            fleet.shutdown(args.drain_timeout)
            return 0 if ready else 1
        return _serve_until_signal(
            "fleet", lambda: fleet.shutdown(args.drain_timeout)
        )

    if wal_dir:
        import pathlib

        from repro.resilience.wal import GraphMutationLog

        wal_path = pathlib.Path(wal_dir)
        wal_path.mkdir(parents=True, exist_ok=True)
        replayed = engine.attach_wal(GraphMutationLog.in_dir(wal_path))
        if replayed:
            print(
                f"replayed {replayed} graph update(s); graph at "
                f"version {engine.graph_version}"
            )

    server = ModelServer(
        engine, host=args.host, port=args.port,
        max_inflight=args.max_inflight,
        max_body_bytes=args.max_body_bytes,
        max_nodes=args.max_nodes,
        default_deadline_ms=args.deadline_ms,
        checkpoint_source=args.checkpoint_dir or None,
    )
    print(f"serving {engine.info()['model']} on {server.url}")
    print(
        "endpoints: POST /predict /graph/update /reload   "
        "GET /healthz /readyz /metrics /traces"
    )
    if wal_dir:
        print(f"graph updates: WAL at {wal_path / 'graph.wal'}")
    if tracer is not None and tracer.sink is not None:
        print(
            f"tracing: sample {args.trace_sample:g}, slow >= "
            f"{args.trace_slow_ms or 0:g} ms -> {tracer.sink.path}"
        )
    if args.dry_run:
        server.stop()
        return 0

    def _drain_and_stop() -> None:
        server.begin_drain()
        if server.drain(args.drain_timeout):
            print("drained cleanly")
        else:
            print("drain timeout; stopping with requests in flight")
        server.stop()

    server.start()
    return _serve_until_signal("server", _drain_and_stop)


def _cmd_trace(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs import load_traces, render_aggregate, render_waterfall

    path = pathlib.Path(args.file)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"), key=lambda p: p.stat().st_mtime)
        if not files:
            print(f"no trace files under {path}", file=sys.stderr)
            return 2
        path = files[-1]
        print(f"reading {path}\n")
    try:
        traces = load_traces(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if not traces:
        print(f"{path}: no traces recorded", file=sys.stderr)
        return 2
    if not args.aggregate_only:
        chosen = list(traces)
        if args.slowest:
            chosen.sort(
                key=lambda t: (t.get("duration_s") or 0.0), reverse=True
            )
            chosen = chosen[: args.last]
        else:
            chosen = chosen[-args.last:]
        for trace in chosen:
            print(render_waterfall(trace, width=args.width))
            print()
    print(render_aggregate(traces))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import urllib.request

    from repro.obs import render_prometheus

    if args.from_json:
        try:
            payload = json.loads(
                pathlib.Path(args.from_json).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.from_json}: {exc}", file=sys.stderr)
            return 2
        # A saved GET /metrics body nests the registry under "metrics";
        # a bare MetricsRegistry.snapshot() dump is accepted as-is.
        snapshot = payload.get("metrics", payload)
        if args.format == "prometheus":
            print(render_prometheus(snapshot), end="")
        else:
            print(json.dumps(payload, indent=2))
        return 0

    url = args.url.rstrip("/") + "/metrics"
    if args.format == "prometheus":
        url += "?format=prometheus"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            body = resp.read().decode("utf-8")
    except OSError as exc:
        print(f"GET {url} failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "prometheus":
        print(body, end="")
    else:
        print(json.dumps(json.loads(body), indent=2))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_all

    summary = run_all(
        args.preset, only=args.only,
        resume=args.resume, keep_going=args.keep_going,
        retries=args.retries, retry_wait=args.retry_wait,
    )
    return 0 if summary.ok else 1


def main(argv=None) -> int:
    """Dispatch the `python -m repro` subcommands; returns the exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="print the Table 2 dataset overview")
    p.add_argument("--scale", type=float, default=None)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("train", help="train one model on one dataset")
    p.add_argument("dataset")
    p.add_argument("--model", default="lasagne")
    p.add_argument("--aggregator", default="stochastic")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inductive", action="store_true")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="write a crash-safe checkpoint every N epochs")
    p.add_argument("--checkpoint-dir", default=None,
                   help="checkpoint directory (default results/checkpoints/...)")
    p.add_argument("--guard", action="store_true",
                   help="enable NaN/divergence rollback with LR backoff")
    p.add_argument("--guard-retries", type=int, default=3,
                   help="rollback budget before aborting (with --guard)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "resume", help="continue an interrupted train run from its checkpoints"
    )
    p.add_argument("run_dir", help="checkpoint directory of the interrupted run")
    p.add_argument("--epochs", type=int, default=None,
                   help="override the total epoch budget of the resumed run")
    p.add_argument("--guard", action="store_true",
                   help="enable NaN/divergence rollback with LR backoff")
    p.add_argument("--guard-retries", type=int, default=3)
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("select", help="aggregator bake-off on a dataset")
    p.add_argument("dataset")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--budget", type=int, default=60)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inductive", action="store_true")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser(
        "profile", help="train a few epochs under the op-level profiler"
    )
    p.add_argument("dataset")
    p.add_argument("--model", default="lasagne")
    p.add_argument("--aggregator", default="stochastic")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=None,
                   help="show only the N most expensive ops")
    p.add_argument("--run-dir", default=None,
                   help="directory for the JSONL run log (default results/runs)")
    p.add_argument("--no-log", action="store_true",
                   help="skip writing the JSONL run log")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "bench", help="reference-vs-optimized performance benchmark"
    )
    p.add_argument("dataset", nargs="?", default="synthetic")
    p.add_argument("--models", nargs="+", default=["gcn", "sgc", "lasagne"])
    p.add_argument("--epochs", type=int, default=10,
                   help="train-step epochs per model per mode (no early stop)")
    p.add_argument("--repeats", type=int, default=20,
                   help="micro-op and inference repetitions")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".",
                   help="directory for BENCH_train.json / BENCH_infer.json")
    p.add_argument("--no-write", action="store_true",
                   help="print the report without touching the filesystem")
    p.add_argument("--k", type=int, default=2,
                   help="propagation power for --kernels (raised to at "
                        "least 3)")
    p.add_argument("--serve", action="store_true",
                   help="benchmark the serving fast path instead "
                        "(cold/warm latency, coalesced vs stampede "
                        "throughput) -> BENCH_serve.json")
    p.add_argument("--concurrency", type=int, default=8,
                   help="threads for the --serve concurrent phases")
    p.add_argument("--workers", type=int, default=0,
                   help="with --serve: also storm a real N-replica "
                        "fleet over HTTP vs a single no-fastpath "
                        "server (the fleet block of BENCH_serve.json)")
    p.add_argument("--mutate", action="store_true",
                   help="benchmark dynamic graph updates instead: "
                        "WAL-backed update-apply latency and the "
                        "incremental-vs-full maintenance speedup (the "
                        "mutate block of BENCH_serve.json)")
    p.add_argument("--kernels", action="store_true",
                   help="benchmark the raw kernels instead: the "
                        "propagation chain vs per-power recomputation, "
                        "union-restricted eval vs full predict, int8 "
                        "fallback head (the kernels block of "
                        "BENCH_infer.json)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve", help="start the fault-tolerant JSON inference server"
    )
    p.add_argument("dataset", nargs="?", default="synthetic")
    p.add_argument("--model", default="lasagne")
    p.add_argument("--aggregator", default="stochastic")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="load weights from an nn.save_module .npz file")
    p.add_argument("--checkpoint-dir", default=None,
                   help="serve the newest valid checkpoint of a "
                        "train --checkpoint-every run (corrupt files skipped)")
    p.add_argument("--train-epochs", type=int, default=0,
                   help="quick-train this many epochs when no checkpoint "
                        "is given (0 serves an untrained model)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--workers", type=int, default=1,
                   help="replica processes; >1 starts the supervised "
                        "fleet (health-aware router, restart-budget "
                        "quarantine, shared cross-process logit store)")
    p.add_argument("--wal-dir", default=None,
                   help="enable POST /graph/update backed by a durable "
                        "write-ahead log in this directory; restarts "
                        "replay it (per-replica WALs in fleet mode). "
                        "See docs/dynamic-graphs.md")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to let in-flight requests finish on "
                        "SIGTERM/SIGINT before stopping")
    p.add_argument("--deadline-ms", type=float, default=250.0,
                   help="default per-request deadline (requests may "
                        "override with deadline_ms)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="concurrent request ceiling; excess sheds with 429")
    p.add_argument("--max-nodes", type=int, default=4096,
                   help="max node ids per predict request")
    p.add_argument("--max-body-bytes", type=int, default=1 << 20,
                   help="max request body size (413 beyond)")
    p.add_argument("--fallback-k", type=int, default=2,
                   help="propagation depth of the degraded Â^k X path")
    p.add_argument("--no-fallback", action="store_true",
                   help="disable graceful degradation (503 instead)")
    p.add_argument("--breaker-threshold", type=float, default=0.5,
                   help="failure-rate threshold that opens the breaker")
    p.add_argument("--breaker-window", type=int, default=20,
                   help="sliding window of full-path outcomes")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds the breaker stays open before half-open")
    p.add_argument("--no-fastpath", action="store_true",
                   help="disable the version-keyed logit store and "
                        "single-flight coalescing (every request pays a "
                        "full forward)")
    p.add_argument("--batch-window-ms", type=float, default=0.0,
                   help="micro-batch admission window for non-memoized "
                        "paths; 0 disables batching")
    p.add_argument("--max-batch", type=int, default=256,
                   help="node-id ceiling per micro-batch (reaching it "
                        "flushes the window early)")
    p.add_argument("--trace", action="store_true",
                   help="enable request tracing (span trees via "
                        "GET /traces, JSONL under --trace-dir)")
    p.add_argument("--trace-sample", type=float, default=1.0,
                   help="head-sampling probability in [0, 1]; slow "
                        "requests are kept regardless (see "
                        "--trace-slow-ms)")
    p.add_argument("--trace-slow-ms", type=float, default=None,
                   help="always keep traces whose root span is at "
                        "least this long, even when not head-sampled")
    p.add_argument("--trace-dir", default="results/traces",
                   help="directory for the trace JSONL file")
    p.add_argument("--trace-capacity", type=int, default=256,
                   help="in-memory ring size backing GET /traces")
    p.add_argument("--dry-run", action="store_true",
                   help="build the engine and bind the port, then exit")
    p.set_defaults(func=_cmd_serve, epochs=None, inductive=False,
                   checkpoint_every=None)

    p = sub.add_parser(
        "trace", help="render a trace JSONL file as waterfalls + breakdown"
    )
    p.add_argument("file",
                   help="trace .jsonl file, or a directory (newest file wins)")
    p.add_argument("--last", type=int, default=5,
                   help="waterfalls to render (newest N, or slowest N "
                        "with --slowest)")
    p.add_argument("--slowest", action="store_true",
                   help="render the slowest traces instead of the newest")
    p.add_argument("--width", type=int, default=40,
                   help="width of the waterfall duration bars")
    p.add_argument("--aggregate-only", action="store_true",
                   help="skip waterfalls; print only the per-span table")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics", help="fetch /metrics from a running server"
    )
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="base URL of the server (default %(default)s)")
    p.add_argument("--format", choices=["json", "prometheus"],
                   default="json")
    p.add_argument("--from-json", default=None,
                   help="render a saved /metrics JSON body (or bare "
                        "registry snapshot) instead of fetching")
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("experiments", help="run the paper's tables/figures")
    p.add_argument("--preset", default="quick")
    p.add_argument("--only", nargs="+", default=None)
    p.add_argument("--resume", action="store_true",
                   help="skip experiments already recorded as completed")
    p.add_argument("--keep-going", action="store_true",
                   help="collect failures into a summary instead of aborting")
    p.add_argument("--retries", type=int, default=0,
                   help="retries per failing experiment (exponential backoff)")
    p.add_argument("--retry-wait", type=float, default=0.5,
                   help="initial backoff between retries, seconds")
    p.set_defaults(func=_cmd_experiments)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

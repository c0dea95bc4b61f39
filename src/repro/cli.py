"""Command-line interface for the ST-HSL reproduction.

Subcommands::

    python -m repro.cli generate --city nyc --out events.csv
    python -m repro.cli train --city nyc --epochs 5 --checkpoint model.npz
    python -m repro.cli train --model STGCN --checkpoint stgcn.npz
    python -m repro.cli evaluate --checkpoint model.npz
    python -m repro.cli compare --city chicago --models ARIMA STGCN
    python -m repro.cli forecast --checkpoint model.npz --horizon 7
    python -m repro.cli serve --checkpoint model.npz --concurrency 4
    python -m repro.cli migrate-artifact --checkpoint old.npz --out new.npz
    python -m repro.cli lint --format json

All commands operate on the synthetic datasets (deterministic by
``--seed``) at a geometry chosen via ``--rows/--cols/--days``.  Every
model name is resolved through the :data:`repro.api.REGISTRY` model
registry, so ``train``/``compare`` accept ST-HSL and the whole baseline
zoo uniformly.  Checkpoints are versioned artifacts (npz weights + JSON
manifest): ``evaluate``/``forecast``/``serve`` reconstruct the model
from the file alone, so no model flags need to match the training
invocation, and pre-v2 artifacts upgrade transparently
(``migrate-artifact`` rewrites them on disk).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from .analysis.visualization import format_table
from .api import REGISTRY, DataSpec, ExperimentBudget, Forecaster, RunSpec
from .data import SyntheticCrimeGenerator, load_city, write_events_csv
from .training.forecast import evaluate_horizon

__all__ = ["main", "build_parser"]


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--city", choices=("nyc", "chicago"), default="nyc")
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cols", type=int, default=8)
    parser.add_argument("--days", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=14)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--hyperedges", type=int, default=32)


def _data_spec(args) -> DataSpec:
    return DataSpec(
        city=args.city, rows=args.rows, cols=args.cols, num_days=args.days, seed=args.seed
    )


def _budget(args) -> ExperimentBudget:
    return ExperimentBudget(
        window=args.window,
        epochs=args.epochs,
        train_limit=args.train_limit,
        lr=getattr(args, "lr", 1e-3),
        patience=getattr(args, "patience", None),
        seed=args.seed,
    )


def _model_overrides(name: str, args) -> dict:
    # Only ST-HSL exposes extra structural knobs on the CLI.
    if name == "ST-HSL":
        return {"num_hyperedges": args.hyperedges, "num_global_temporal_layers": 2}
    return {}


def _run_spec(args, model: str) -> RunSpec:
    return RunSpec(
        model=model,
        data=_data_spec(args),
        budget=_budget(args),
        hidden=args.dim,
        overrides=_model_overrides(model, args),
    )


def _print_metrics(evaluation) -> None:
    rows = [
        [name, m["mae"], m["mape"]] for name, m in evaluation.per_category().items()
    ]
    overall = evaluation.overall()
    rows.append(["(overall)", overall["mae"], overall["mape"]])
    print(format_table(["category", "MAE", "MAPE"], rows))


def _cmd_generate(args) -> int:
    dataset = _data_spec(args).load()
    generator = SyntheticCrimeGenerator(dataset.config, seed=args.seed)
    events = generator.generate_events(dataset.tensor)
    count = write_events_csv(events, args.out)
    print(f"wrote {count:,} crime events to {args.out}")
    return 0


def _cmd_train(args) -> int:
    spec = _run_spec(args, args.model)
    dataset = spec.data.load()
    forecaster = spec.forecaster()
    forecaster.fit(dataset, verbose=True)
    training = forecaster.training_
    if training.get("best_epoch") is not None:
        print(
            f"best val MAE {training['best_val_mae']:.4f} at epoch {training['best_epoch']}"
        )
    if args.checkpoint:
        forecaster.save(args.checkpoint)
        print(f"artifact saved to {args.checkpoint} ({args.model})")
    _print_metrics(forecaster.evaluate(dataset))
    return 0


def _cmd_evaluate(args) -> int:
    forecaster = Forecaster.load(args.checkpoint)
    print(f"loaded {forecaster.model_name} artifact (window={forecaster.window})")
    dataset = _data_spec(args).load()
    _print_metrics(forecaster.evaluate(dataset))
    return 0


def _cmd_compare(args) -> int:
    dataset = _data_spec(args).load()
    names = list(dict.fromkeys(list(args.models) + ["ST-HSL"]))
    scores = {
        name: _run_spec(args, name).forecaster().fit(dataset).evaluate(dataset).overall()
        for name in names
    }
    ranked = sorted(scores.items(), key=lambda kv: kv[1]["mae"])
    rows = [[i + 1, n, s["mae"], s["mape"]] for i, (n, s) in enumerate(ranked)]
    print(format_table(["#", "model", "MAE", "MAPE"], rows))
    return 0


def _cmd_forecast(args) -> int:
    forecaster = Forecaster.load(args.checkpoint)
    dataset = _data_spec(args).load()
    per_step = evaluate_horizon(forecaster, dataset, horizon=args.horizon)
    rows = [[f"T+{k}", m["mae"], m["mape"]] for k, m in per_step.items()]
    print(format_table(["step", "MAE", "MAPE"], rows))
    return 0


def _parse_listen(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) for ``serve --listen``; 0 = ephemeral."""
    host, _, port = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"--listen expects HOST:PORT or PORT, got {value!r}")


def _print_service_stats(stats, edge=None) -> None:
    rows = [[key, value] for key, value in stats.to_dict().items()]
    if edge is not None:
        rows += [[f"edge.{key}", value] for key, value in edge.items()]
    print(format_table(["stat", "value"], rows))


def _drive_clients(service, windows, clients: int) -> float:
    """Issue each window once through ``service`` from concurrent clients.

    The windows are split round-robin across ``clients`` blocking client
    threads (every thread gets a non-empty share as long as
    ``clients <= len(windows)``), so the service really sees the stated
    concurrency.  Returns elapsed wall-clock seconds; the service's own
    counters (``service.stats()``) accumulate alongside.
    """
    chunks = [windows[i::clients] for i in range(clients)]
    threads = [
        threading.Thread(
            target=lambda chunk: [service.predict(w) for w in chunk],
            args=(chunk,),
        )
        for chunk in chunks
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _cmd_serve(args) -> int:
    """Demo serving session: concurrent clients against a ForecastService.

    Three network shapes share this command: in-process (default),
    ``--listen HOST:PORT`` (start a NetworkServer and drive the demo
    through the RemoteForecastService client SDK over loopback — or
    serve forever with ``--requests 0``), and ``--connect URL`` (drive
    an already-running server).  ``--process-workers N`` swaps the
    in-process model for a WorkerPool of forked worker processes.
    """
    from .serving import (
        ForecastService,
        ModelPool,
        NetworkServer,
        RemoteForecastService,
        WorkerPool,
        build_fallback_tier,
    )

    pool = ModelPool(capacity=args.pool_capacity, served_dtype=args.served_dtype)
    forecaster = pool.get(args.checkpoint)
    dataset = _data_spec(args).load()
    forecaster.check_compatible(dataset)
    window = forecaster.window
    days = range(window, dataset.num_days)
    windows = [dataset.tensor[:, day - window : day, :] for day in days]
    requests = [windows[i % len(windows)] for i in range(args.requests)]

    if args.connect:
        # Client mode: the checkpoint only shapes the request windows;
        # the model lives on the other side of the wire.
        client = RemoteForecastService(args.connect)
        try:
            health = client.health()
            print(
                f"driving {client.url} (model={health.get('model') or 'unnamed'}, "
                f"running={health.get('running')}) with {len(requests)} requests "
                f"x{args.concurrency} clients"
            )
            if not requests:
                return 0
            client.predict(requests[0])  # connection + model warm-up
            _drive_clients(client, requests, min(args.concurrency, len(requests)))
            _print_service_stats(client.stats(), edge=client.stats_raw().get("edge"))
        finally:
            client.stop()
        return 0

    dtype = forecaster.served_dtype or "native"
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    fallback = build_fallback_tier(forecaster, model=args.fallback) if args.fallback else None
    knobs = []
    if deadline is not None:
        knobs.append(f"deadline={args.deadline_ms}ms")
    if args.max_queue is not None:
        knobs.append(f"max_queue={args.max_queue}")
    if fallback is not None:
        knobs.append(f"fallback={args.fallback}")
    if args.process_workers:
        knobs.append(f"process_workers={args.process_workers}")
    if args.rate_limit:
        knobs.append(f"rate_limit={args.rate_limit}/s")
    print(
        f"serving {forecaster.model_name} (window={window}, "
        f"dtype={dtype}, workers={args.workers}"
        + (", " + ", ".join(knobs) if knobs else "")
        + f") from {args.checkpoint}"
    )

    worker_pool = None
    backend = forecaster
    if args.process_workers:
        worker_pool = WorkerPool(
            args.checkpoint, served_dtype=forecaster.served_dtype, workers=args.process_workers
        ).start()
        backend = worker_pool
    try:
        with ForecastService(
            backend,
            max_batch=args.max_batch,
            workers=args.workers,
            deadline=deadline,
            max_queue=args.max_queue,
            fallback=fallback,
        ) as service:
            # Warm-up burst sized so every worker thread builds its
            # per-thread arena before timing (a single request warms only
            # one worker).
            warm = requests[0] if requests else windows[0]
            service.predict_many([warm] * max(args.workers * args.max_batch, 1))
            service.reset_stats()

            if args.listen is None:
                _drive_clients(service, requests, min(args.concurrency, len(requests)))
                _print_service_stats(service.stats())
                return 0

            host, port = _parse_listen(args.listen)
            with NetworkServer(
                service,
                host=host,
                port=port,
                rate_limit=args.rate_limit,
                model=forecaster.model_name,
            ) as server:
                print(f"listening on {server.url} (repro.rpc/v1)")
                if not requests:
                    print("serving until interrupted (--requests 0); Ctrl-C to stop")
                    try:
                        while True:
                            time.sleep(1.0)
                    except KeyboardInterrupt:
                        print("interrupted; shutting down")
                        return 0
                client = RemoteForecastService(server.url)
                try:
                    client.predict(requests[0])  # edge warm-up
                    service.reset_stats()
                    _drive_clients(client, requests, min(args.concurrency, len(requests)))
                    _print_service_stats(service.stats(), edge=server.stats())
                finally:
                    client.stop()
    finally:
        if worker_pool is not None:
            worker_pool.stop()
    return 0


def _cmd_migrate_artifact(args) -> int:
    """Rewrite an artifact at the current schema version."""
    from . import nn
    from .api.artifacts import migrate, validate_manifest

    manifest, state = nn.load_archive(args.checkpoint)
    before = (manifest or {}).get("schema")
    manifest = validate_manifest(migrate(manifest))
    if args.served_dtype:
        manifest["served_dtype"] = args.served_dtype
        validate_manifest(manifest)
    out = args.out or args.checkpoint
    nn.save_archive(out, state, manifest)
    print(f"{args.checkpoint}: {before} -> {manifest['schema']} at {out}")
    return 0


def _cmd_lint(args) -> int:
    """Run the repo-invariant linter; exit 1 on unsuppressed findings."""
    from .devtools import all_passes, all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.description}")
        for pass_ in all_passes():
            print(f"{pass_.id} (pass): {pass_.description}")
            for rule_id, description in sorted(pass_.emits.items()):
                print(f"  {rule_id}: {description}")
        return 0
    checks = None
    if args.check:
        checks = [part.strip() for part in args.check.split(",") if part.strip()]
    try:
        report = run_lint(root=args.root, checks=checks)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    registered = list(REGISTRY.names())

    p = sub.add_parser("generate", help="write a synthetic crime event CSV")
    _add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a registered model and report test metrics")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--model", default="ST-HSL", choices=registered)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--train-limit", type=int, default=40)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved artifact (model comes from the file)")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="train registered models + ST-HSL and rank them")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--train-limit", type=int, default=24)
    p.add_argument(
        "--models", nargs="+", default=["ARIMA", "STGCN", "DeepCrime"], choices=registered,
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("forecast", help="multi-step recursive forecast from a saved artifact")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--horizon", type=int, default=7)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser(
        "serve", help="run a micro-batching forecast service demo and report throughput"
    )
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--concurrency", type=int, default=4, help="concurrent client threads")
    p.add_argument("--requests", type=int, default=256, help="total predict requests")
    p.add_argument("--max-batch", type=int, default=8, help="micro-batch size cap")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="service worker threads (parallel inference on multi-core hosts)",
    )
    p.add_argument("--pool-capacity", type=int, default=4)
    p.add_argument(
        "--served-dtype",
        choices=("float32", "float64"),
        default="float32",
        help="pool-wide serving dtype (best-effort per model)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in ms (expired requests shed before compute)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission-queue bound (excess submits rejected as overloaded)",
    )
    p.add_argument(
        "--fallback",
        default=None,
        metavar="MODEL",
        help="degraded-fallback tier built from the checkpoint geometry "
        "(an untrained-servable model, e.g. HA)",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="expose the service over HTTP (repro.rpc/v1) and drive the demo "
        "through the client SDK; port 0 picks an ephemeral port; "
        "--requests 0 serves forever",
    )
    p.add_argument(
        "--connect",
        default=None,
        metavar="URL",
        help="drive an already-running server instead of starting one "
        "(the checkpoint only shapes the request windows)",
    )
    p.add_argument(
        "--process-workers",
        type=int,
        default=None,
        metavar="N",
        help="back the service with N forked worker processes instead of "
        "the in-process model",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-tenant token-bucket rate limit at the network edge "
        "(requires --listen)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "migrate-artifact", help="rewrite a checkpoint artifact at the current schema"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="output path (default: rewrite in place)")
    p.add_argument(
        "--served-dtype",
        choices=("float32", "float64"),
        default=None,
        help="also set the manifest's served_dtype while migrating",
    )
    p.set_defaults(func=_cmd_migrate_artifact)

    p = sub.add_parser(
        "lint", help="run the repo-invariant linter over the repro package"
    )
    p.add_argument(
        "--root", default=None, help="directory to lint (default: the repro package)"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings (with their reasons) in text output",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    p.add_argument(
        "--check",
        default=None,
        metavar="PASS[,PASS]",
        help="also run semantic passes (e.g. shapes,contracts)",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.seterr(all="ignore")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""ST-HSL repository benchmark: one workload per run, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 12 --trace 0

Workloads are ``train``, ``forecast`` and ``serve`` (see perfbench/README.md
for why each exists and what it measures).  The seed
fixes every input: dataset, windows, arrival times and request mix.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload in alternating untraced and traced passes
on the same inputs, checks they produce the same outputs, and reports the
per-layer metrics plus the tracing overhead.

Standard output is a readable report whose last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, phases, checks, every named number) is written to
``.perfbench/results/``.  Exits non-zero without a result when the
repository's ``src/repro`` package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "forecast", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _line(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(result, env: dict, args, metrics: dict) -> None:
    print(
        f"perfbench workload={result.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} computes_in={result.dtype}"
    )
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    for phase in result.phases:
        extra = ", ".join(f"{k}={_line(v)}" for k, v in phase.items() if k not in ("phase", "attempted", "succeeded", "failed"))
        print(
            f"phase {phase['phase']}: attempted={phase['attempted']} succeeded={phase['succeeded']} "
            f"failed={phase['failed']}" + (f" ({extra})" if extra else "")
        )
    for check in result.checks:
        print(f"check {'ok' if check['ok'] else 'FAILED'}: {check['check']} {check['detail']}".rstrip())
    for name, (value, unit) in result.reported.items():
        print(f"{name} = {_line(value)} {unit}")
    for name, entry in metrics.items():
        print(f"{'layer' if args.trace else 'metric'} {name} = {_line(entry['value'])} {entry['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops the servers it started (their finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import common
    import layers

    if args.workload in ("train", "forecast"):
        import offline

        run = offline.run_train if args.workload == "train" else offline.run_forecast
    else:
        import online

        run = online.run_serve

    env = common.environment()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
        values = result.layers
    else:
        names, values = common.END_TO_END, result.metrics
    metrics = {}
    for name, unit in names.items():
        value = float(values.get(name, float("nan")))
        if not math.isfinite(value):
            result.check(f"{name} is a finite number", False, repr(value))
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    _report(result, env, args, metrics)
    record = {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "computes_in": result.dtype,
        "environment": env,
        "phases": result.phases,
        "checks": result.checks,
        "reported": {name: {"value": v, "unit": u} for name, (v, u) in result.reported.items()},
        "metrics": metrics,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

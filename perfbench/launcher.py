"""Traced ``repro serve``: the CLI itself, with span wrappers installed on
the classes and modules its serving stack is built from.

    python3 perfbench/launcher.py SPANS_JSON serve --checkpoint A --rows 6 --cols 6 \\
        --listen 127.0.0.1:0 --requests 0 [--process-workers 2 --workers 2]

The wrappers go on at class or module level before ``repro.cli.main``
runs with the given flags, so the traced stack is the one the CLI builds,
in its own start-up sequence:

- ``Forecaster.load`` and the dataset synthesis (``load_city``);
- ``ModelPool.get``; the forecaster it returns gets the model and API seams;
- ``ForecastService``: the backend it is handed is wrapped in a timer of
  each micro-batch, and every ``submit`` handle is kept;
- ``WorkerPool.predict``, when the CLI starts process workers;
- the ``rpc`` codec functions as ``repro.serving.net`` calls them.

The CLI serves until SIGINT and shuts down its own way; when ``main``
returns, the spans and the counters of the captured instances are
written to SPANS_JSON.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from repro import cli  # noqa: E402
from repro.api import Forecaster  # noqa: E402
from repro.serving import ForecastService, ModelPool, NetworkServer, WorkerPool, rpc  # noqa: E402
from spans import Tracer  # noqa: E402


class TimedBackend:
    """The backend handed to ``ForecastService``, timing each micro-batch."""

    def __init__(self, tracer: Tracer, backend):
        self._tracer = tracer
        self._backend = backend

    def predict(self, stacked):
        return self._tracer.call("service.compute", self._backend.predict, (stacked,), note=_batch_size)


def _batch_size(args, _kwargs) -> int:
    return len(args[-1])


def _install_edge(tracer: Tracer, kind: threading.local) -> None:
    """Server-side codec seams: the ``rpc`` functions as ``net`` calls them.

    The decoders also tag the loop thread with the request's kind, which
    the ``submit`` wrapper reads: decode and submit run back to back on
    the event-loop thread.
    """
    tracer.wrap(rpc, "loads", "net.codec.loads")
    tracer.wrap(rpc, "encode_predict_response", "net.codec.predict_encode")
    tracer.wrap(rpc, "encode_batch_response", "net.codec.batch_encode")
    for fn_name, span, tag in (
        ("decode_predict_request", "net.codec.predict_decode", "predict"),
        ("decode_batch_request", "net.codec.batch_decode", "batch"),
    ):
        target = getattr(rpc, fn_name)

        def decode(*args, _target=target, _span=span, _tag=tag, **kwargs):
            kind.value = _tag
            return tracer.call(_span, _target, args, kwargs)

        tracer.replace(rpc, fn_name, decode)


def _install_serving(tracer: Tracer, kind: threading.local, seen: dict) -> None:
    """Pool, service and worker seams; ``seen`` collects the instances."""
    get = ModelPool.get

    def pool_get(pool, path):
        forecaster = tracer.call("pool.load", get, (pool, path))
        if "forecaster" not in seen:
            seen["forecaster"] = forecaster
            layers.install_model(tracer, forecaster.model)
            layers.install_forecaster(tracer, forecaster)
        return forecaster

    tracer.replace(ModelPool, "get", pool_get)

    init, submit = ForecastService.__init__, ForecastService.submit
    handles = seen["handles"] = []

    def service_init(service, backend, **kwargs):
        init(service, TimedBackend(tracer, backend), **kwargs)
        seen["service"] = service

    def service_submit(service, window, **kwargs):
        handle = submit(service, window, **kwargs)
        handles.append((handle, getattr(kind, "value", "other")))
        return handle

    tracer.replace(ForecastService, "__init__", service_init)
    tracer.replace(ForecastService, "submit", service_submit)

    server_init, workers_init = NetworkServer.__init__, WorkerPool.__init__

    def capture(key, real):
        def wrapper(instance, *args, **kwargs):
            real(instance, *args, **kwargs)
            seen[key] = instance

        return wrapper

    tracer.replace(NetworkServer, "__init__", capture("server", server_init))
    tracer.replace(WorkerPool, "__init__", capture("workers", workers_init))
    tracer.wrap(WorkerPool, "predict", "workers.roundtrip", note=_batch_size)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    kind = threading.local()
    seen: dict = {}
    tracer.wrap(Forecaster, "load", "api.load")
    tracer.wrap(importlib.import_module("repro.api.runspec"), "load_city", "data.synth")
    _install_edge(tracer, kind)
    _install_serving(tracer, kind, seen)

    code = cli.main(argv[1:])

    service, workers = seen["service"], seen.get("workers")
    arena = seen["forecaster"].model.release_arena()
    payload = {
        "max_batch": service.max_batch,
        "edge": seen["server"].stats(),
        "service": service.stats().to_dict(),
        "deaths": workers.deaths if workers is not None else 0,
        "arena": arena.stats() if arena is not None else None,
        "handles": [[h.enqueued_at, h.done_at, k] for h, k in seen["handles"] if h.done_at is not None],
        "spans": tracer.export(),
    }
    out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

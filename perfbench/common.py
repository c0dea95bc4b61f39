"""Shared pieces of the benchmark: result record, statistics, memory, environment."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

#: The checkout the benchmark measures: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The end-to-end metrics every workload reports, as ``name -> unit``.  Each
#: workload defines them on its own unit of work (see perfbench/README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str, dtype: str):
        self.workload = workload
        #: The dtype the program computed in (measured for the serving workloads).
        self.dtype = dtype
        self.phases: list[dict] = []
        self.checks: list[dict] = []
        #: End-to-end metrics, ``name -> value`` (units in END_TO_END).
        self.metrics: dict[str, float] = {}
        #: The workload's own named numbers, ``name -> (value, unit)``.
        self.reported: dict[str, tuple] = {}
        #: Per-layer metrics of a traced run, ``name -> value``.
        self.layers: dict[str, float] = {}

    def phase(self, name: str, attempted: int, failed: int, **info) -> dict:
        entry = {
            "phase": name,
            "attempted": int(attempted),
            "succeeded": int(attempted) - int(failed),
            "failed": int(failed),
            **info,
        }
        self.phases.append(entry)
        return entry

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def report(self, name: str, value, unit: str) -> None:
        self.reported[name] = (value, unit)

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank (failures sort last as inf)."""
    if not sorted_values:
        return float("nan")
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_quantile(n: int) -> int | None:
    """The highest of p99/p95/p90 with at least ten of ``n`` samples beyond it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux clear_refs)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of one process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid: int) -> list[int]:
    """Direct child processes of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """What a result was measured on; results from different ones never compare."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }

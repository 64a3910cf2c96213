"""Shared pieces of the benchmark: timing, resources, provenance, results."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout for temporary files of one run.
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters started to time set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Per-route latency limits for ``goodput_rps`` (seconds), set well above
#: the latencies measured on a quiet 2-vCPU host (serve: predict p99
#: 62-107 ms, warm select p50 40-110 ms) so that the metric falls when a
#: route slows, not whenever the shared host has a slow moment.
LATENCY_LIMIT_S = {"predict": 0.250, "select_warm": 1.0, "select_cold": 10.0}


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS, max over this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A helper that a child starts can outlive the child; as a child
    subreaper this process inherits such helpers and :func:`stop_children`
    waits for them.  A no-op where ``prctl`` is unavailable.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_children(timeout: float = 30.0) -> bool:
    """Stop multiprocessing's resource tracker and reap every child.

    The blocked-shm backend's shared memory starts the tracker, a child
    process that otherwise outlives this one.  Returns False when a child
    is still running after ``timeout`` seconds.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import repro; "
    "print('ready', time.perf_counter() - t0, flush=True)"
)


def time_import(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Start fresh interpreters that import ``repro``.

    Returns ``(wall, import_s)``: wall time from spawn to the child's
    ready line, and the child's own timing of ``import repro``.
    """
    walls, imports = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _IMPORT_PROBE],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline() if proc.stdout else ""
            walls.append(time.perf_counter() - started)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError("import probe failed: could not import repro")
        imports.append(float(line.split()[1]))
    return walls, imports


def stream_peak_bytes_per_s(mib: int = 128, repeats: int = 5) -> dict[str, Any]:
    """Host memory bandwidth: best-of-``repeats`` STREAM copy and scale.

    Arrays are ``mib`` MiB each.  The benchmark reads no system files, so
    it cannot size them against the last-level cache; on hosts whose LLC
    is larger than a quarter of ``mib`` the figure is cache-assisted.
    """
    count = mib * 1024 * 1024 // 8
    a = np.full(count, 1.0, dtype=np.float64)
    b = np.empty_like(a)
    best = {"copy": 0.0, "scale": 0.0}
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(b, a)
        t1 = time.perf_counter()
        np.multiply(a, 3.0, out=b)
        t2 = time.perf_counter()
        best["copy"] = max(best["copy"], 2 * a.nbytes / (t1 - t0))
        best["scale"] = max(best["scale"], 2 * a.nbytes / (t2 - t1))
    return {
        "array_mib": mib,
        "copy_bytes_per_s": best["copy"],
        "scale_bytes_per_s": best["scale"],
        "peak_bytes_per_s": max(best.values()),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout read from ``.git`` (no git process; None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, stream: dict[str, Any]) -> dict[str, Any]:
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "stream": stream,
    }


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Reasons for failed operations (first few are printed).
    failures: list[str] = field(default_factory=list)
    #: Extra figures printed before the result line (not part of it).
    report: dict[str, Any] = field(default_factory=dict)
    #: False when the run could not measure what it claims (see serve).
    valid: bool = True

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

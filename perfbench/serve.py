"""The ``serve`` workload: ``repro serve`` over HTTP, open loop.

The server runs as a subprocess on port 0 with a fresh cache directory,
so no entry survives from an earlier run.  One asyncio client drives two
open-loop streams through at most two concurrent requests (and at most
``nproc``), each on a connection of its own, which both streams share:

* stream A: ``/predict`` with 8-64 points, spread over two registered
  models of different n;
* stream B: ``/select``, mostly warm repeats of a working set that fits
  the server's 64 MiB memory tier, plus a fixed share of never-seen
  samples (n 500-2,000) that also ``register`` a model, so sweeps run in
  the server's executor while predictions are being served.

Stream A arrives as a Poisson process with a fixed count (sorted uniform
times over the window); stream B at a fixed rate with a seeded phase.
A request's latency runs from its due time, so a stall delays the
requests behind it too.  The generator's own lateness (how late its timer
woke for a request) is reported; above ``LATENESS_LIMIT_MS`` at p99 the
run is marked invalid rather than slow.  ``/metrics`` is scraped just
before and just after the window, never during it; answers are checked
after it.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    LATENCY_LIMIT_S,
    ROOT,
    SCRATCH,
    SETUP_REPEATS,
    Outcome,
    child_env,
    median,
    peak_rss_mib,
    percentile,
    stream_peak_bytes_per_s,
    time_import,
)
from layers import PER_LAYER, parse_metrics_text, serving_layers
from reference import (
    CURVE_RTOL,
    check_selection,
    cv_curves,
    grid_argmin,
    nw_predict,
    same_estimates,
)

#: Predict models: the CLI fits "default" from a CSV at boot; "small" is
#: registered through /select before the server counts as ready.
MODEL_N = {"default": 2000, "small": 500}
#: Offered rates, about half the server's capacity in all: each route at
#: 13-20 % of its saturation rate as ``capacity.py`` measures it on a
#: 2-vCPU host (see README.md).
PREDICT_RATE = 50.0  # requests per second on stream A
SELECT_RATE = 2.0  # requests per second on stream B
COLD_SHARE = 0.25  # of stream B, on never-seen samples
COLD_SIZES = (500, 1250, 2000)
WORKING_SET_SIZES = (500, 800, 1100, 1400, 1700, 2000)
LATENESS_LIMIT_MS = 25.0  # p99 lateness of the client's timer; above it, invalid
KERNEL = "epanechnikov"
#: Connections the client may hold open at once: at most ``nproc``.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    route: str  # "predict" | "select_warm" | "select_cold"
    due: float
    body: bytes
    key: str  # model name (predict) or sample name (select)
    at: np.ndarray | None = None
    status: int = 0
    reply: bytes = b""
    sent: float = 0.0
    done: float = 0.0
    lateness: float = 0.0


def _sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.data import generate

    sample = generate("paper", n, seed=int(rng.integers(2**32)))
    return sample.x, sample.y


def _select_body(x: np.ndarray, y: np.ndarray, register: str | None = None) -> bytes:
    body: dict[str, Any] = {"x": x.tolist(), "y": y.tolist(), "kernel": KERNEL}
    if register is not None:
        body["register"] = register
    return json.dumps(body).encode()


class Server:
    """One ``repro serve`` subprocess and a thread draining its output."""

    def __init__(self, data_csv: Path, cache_dir: Path) -> None:
        self.lines: queue.Queue[str] = queue.Queue()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("serve_host.py")),
                "--port", "0", "--data", str(data_csv), "--k", "50",
                "--kernel", KERNEL, "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.base = self._wait_for("repro serving on ", BOOT_TIMEOUT_S).split()[-1]
        host_port = self.base.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))

    def _wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        seen = []
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.1)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            seen.append(line)
            if line.startswith(prefix):
                return line
        tail = "\n".join(seen[-20:])
        raise RuntimeError(f"server never printed {prefix!r}:\n{tail}")

    def cpu(self) -> float:
        self.proc.send_signal(signal.SIGUSR1)
        return float(self._wait_for("cpu ", 30.0).split()[1])

    def request(self, method: str, path: str, body: bytes | None = None) -> bytes:
        req = urllib.request.Request(self.base + path, data=body, method=method)
        with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT_S) as resp:
            return resp.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


async def _http(host: str, port: int, path: str, body: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


async def _drive(server: Server, streams: list[list[Request]]) -> float:
    """Send every request at its due time; returns the window's start.

    Requests of both streams share ``CONNECTIONS`` slots: at most that many
    are in flight, each on a connection of its own (``Connection: close``),
    so a request waits for a slot when all are taken (the wait counts in
    its latency, which runs from its due time).
    """
    slots = asyncio.Semaphore(CONNECTIONS)
    start = time.perf_counter() + 0.05

    async def send(req: Request) -> None:
        wait = start + req.due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        req.lateness = time.perf_counter() - (start + req.due)
        path = "/predict" if req.route == "predict" else "/select"
        async with slots:
            req.sent = time.perf_counter()
            call = asyncio.wait_for(
                _http(server.host, server.port, path, req.body), REQUEST_TIMEOUT_S
            )
            try:
                req.status, req.reply = await call
            except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
                req.status, req.reply = 0, repr(exc).encode()
            req.done = time.perf_counter()

    await asyncio.gather(*(send(req) for requests in streams for req in requests))
    return start


def _balanced(rng: np.random.Generator, kinds: int, count: int) -> list[int]:
    """``count`` picks from ``range(kinds)``, each as often as possible, shuffled."""
    picks = [i % kinds for i in range(count - count % kinds)]
    picks += rng.choice(kinds, count % kinds, replace=False).tolist()
    return [picks[i] for i in rng.permutation(len(picks))]


def _schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    return np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))


def run(rng: np.random.Generator, seconds: float, trace: bool) -> Outcome:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=SCRATCH))
    try:
        return _run(Outcome(), rng, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(
    out: Outcome, rng: np.random.Generator, seconds: float, trace: bool, tmp: Path
) -> Outcome:
    models = {name: _sample(rng, n) for name, n in MODEL_N.items()}
    data_csv = tmp / "default.csv"
    x0, y0 = models["default"]
    data_csv.write_text(
        "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x0.tolist(), y0.tolist()))
    )
    small_body = _select_body(*models["small"], register="small")

    # Set-up: boot, fit "default", register "small"; the last boot stays up.
    boots = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = Server(data_csv, tmp / f"cache-{attempt}")
            server.request("POST", "/select", small_body)
            boots.append(time.perf_counter() - t0)

        # Inputs of the window, encoded before it starts.
        warm_set = {f"w{i}": _sample(rng, n) for i, n in enumerate(WORKING_SET_SIZES)}
        warm_bodies = {name: _select_body(x, y) for name, (x, y) in warm_set.items()}
        first_replies = {
            name: json.loads(server.request("POST", "/select", body))
            for name, body in warm_bodies.items()
        }
        # Balanced mixes, so every run of a given length carries the same
        # work: models alternate in a seeded order, the working set is
        # visited round-robin, and cold samples take each size equally
        # often at evenly spaced positions of the stream.
        predict_due = _schedule(rng, PREDICT_RATE, seconds)
        names = list(MODEL_N)
        predicts = []
        for due, pick in zip(predict_due, _balanced(rng, len(names), len(predict_due))):
            at = rng.uniform(0.0, 1.0, int(rng.integers(8, 65)))
            body = json.dumps({"model": names[pick], "at": at.tolist()}).encode()
            predicts.append(Request("predict", float(due), body, names[pick], at))
        # Stream B is evenly spaced (seeded phase), so cold sweeps never
        # bunch up by chance: how they overlap predictions is the same
        # in every run.
        n_selects = int(round(SELECT_RATE * seconds))
        select_due = (np.arange(n_selects) + rng.random()) / SELECT_RATE
        every = round(1 / COLD_SHARE)
        slots = len(select_due) // every
        sizes = _balanced(rng, len(COLD_SIZES), slots - slots % len(COLD_SIZES))
        warm_picks = iter(_balanced(rng, len(warm_set), len(select_due)))
        cold_set: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        selects = []
        for i, due in enumerate(select_due):
            if i % every == every - 1 and len(cold_set) < len(sizes):
                name = f"c{len(cold_set)}"
                cold_set[name] = _sample(rng, COLD_SIZES[sizes[len(cold_set)]])
                body = _select_body(*cold_set[name], register=name)
                selects.append(Request("select_cold", float(due), body, name))
            else:
                name = f"w{next(warm_picks)}"
                body = warm_bodies[name]
                selects.append(Request("select_warm", float(due), body, name))

        before = parse_metrics_text(server.request("GET", "/metrics").decode())
        server_cpu0 = server.cpu()
        start = asyncio.run(_drive(server, [predicts, selects]))
        end = max(r.done for r in predicts + selects)
        server_cpu1 = server.cpu()
        after = parse_metrics_text(server.request("GET", "/metrics").decode())
        described = json.loads(server.request("GET", "/models"))["models"]
    finally:
        if server is not None:
            server.stop()
    rss = peak_rss_mib()
    bandwidths = {m["name"]: float(m["bandwidth"]) for m in described}

    # Checking, after the window and with the server gone.
    ok: list[Request] = []
    answered = [r for r in predicts if r.status == 200]
    for req in predicts:
        if req.status != 200:
            out.attempted += 1
            out.fail(f"predict {req.key}: HTTP {req.status}")
    for model, (x, y) in models.items():
        mine = [r for r in answered if r.key == model]
        if not mine:
            continue
        expected = nw_predict(
            x, y, np.concatenate([r.at for r in mine]), bandwidths[model], KERNEL
        )
        offset = 0
        for req in mine:
            out.attempted += 1
            estimates = json.loads(req.reply)["estimates"]
            got = np.array([np.nan if v is None else v for v in estimates], dtype=float)
            if same_estimates(got, expected[offset : offset + req.at.shape[0]]):
                ok.append(req)
            else:
                out.fail(f"predict {req.key}: estimates differ from the reference")
            offset += req.at.shape[0]
    samples = {**models, **warm_set, **cold_set}
    refs = {}
    for name, (x, y) in samples.items():
        domain = float(x.max() - x.min())
        grid = np.linspace(domain / 50, domain, 50)
        refs[name] = (grid, cv_curves(x, y, [(KERNEL, grid)])[0])
    # The two predict models: their bandwidth must be the reference optimum.
    for name in models:
        grid, (curve, slack) = refs[name]
        best = grid_argmin(curve)
        hits = np.flatnonzero(grid == bandwidths[name])
        tolerance = CURVE_RTOL * curve + slack
        if hits.size == 0 or abs(curve[hits[0]] - curve[best]) > (
            tolerance[hits[0]] + tolerance[best]
        ):
            out.attempted += 1
            h = bandwidths[name]
            out.fail(f"model {name}: bandwidth {h!r} is not the CV optimum")
    for req in selects:
        out.attempted += 1
        if req.status != 200:
            out.fail(f"select {req.key}: HTTP {req.status}")
            continue
        reply = json.loads(req.reply)
        result = reply["result"]
        warm = req.route == "select_warm"
        if reply["cache_hit"] != warm:
            hit = reply["cache_hit"]
            out.fail(f"select {req.key}: cache_hit={hit} on a {req.route}")
            continue
        first = first_replies[req.key]["result"] if warm else result
        if any(result[f] != first[f] for f in ("bandwidth", "bandwidths", "scores")):
            out.fail(f"select {req.key}: warm result differs from the first one")
            continue
        grid, ref = refs[req.key]
        verdict = check_selection(
            np.asarray(result["bandwidths"]), np.asarray(result["scores"]),
            float(result["bandwidth"]), grid, ref,
        )
        if verdict.ok:
            ok.append(req)
        else:
            out.fail(f"select {req.key}: {verdict.reason}")

    def latencies_ms(route: str) -> list[float]:
        return [(r.done - start - r.due) * 1e3 for r in ok if r.route == route]

    all_requests = predicts + selects
    lateness_ms = [r.lateness * 1e3 for r in all_requests]
    out.report["generator_lateness_ms"] = {
        "p50": median(lateness_ms), "p99": percentile(lateness_ms, 99),
        "limit_p99": LATENESS_LIMIT_MS,
    }
    out.report["requests"] = {
        "predict": len(predicts),
        "select_warm": len(selects) - len(cold_set),
        "select_cold": len(cold_set),
    }
    out.report["non_2xx"] = sum(r.status != 200 for r in all_requests)
    dropped = after.get("repro_trace_spans_dropped", 0.0)
    out.report["spans_dropped"] = dropped
    # Spans held in the server's ring after the window (it keeps 8,192).
    out.report["spans_in_ring"] = sum(
        value for name, value in after.items()
        if name.startswith("repro_trace_span_") and name.endswith("_count")
    )
    if percentile(lateness_ms, 99) > LATENESS_LIMIT_MS:
        out.valid = False
        out.report["invalid"] = "the client could not keep to its schedule"

    window = end - start
    server_cpu = server_cpu1 - server_cpu0
    out.report["cpu_s"] = {"server": server_cpu, "window_s": window}
    selects_ok = [r for r in ok if r.route != "predict"]
    if trace:
        # The per-layer figures are differences of the server's span
        # totals; once its span ring has wrapped they under-count.
        if dropped > 0:
            out.valid = False
            out.report["invalid"] = f"the server's span ring dropped {dropped:g} spans"
        rtt = [(r.done - r.sent) * 1e3 for r in all_requests if r.status == 200]
        _, imports = time_import()
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(serving_layers(before, after, median(rtt)))
        metrics["repro.import_s"] = median(imports)
        # `repro serve` always traces and has no switch to turn it off, so
        # there is no untraced server to compare with: reads 0.
        out.report["not_measured"] = ["obs.overhead_frac"]
        for name, unit in PER_LAYER.items():
            out.put(name, metrics[name], unit)
        out.report["stream"] = stream_peak_bytes_per_s()
        return out

    within = sum(
        (r.done - start - r.due) <= LATENCY_LIMIT_S[r.route] for r in ok
    )
    predict_ms = latencies_ms("predict")
    out.put("setup_s", median(boots), "s")
    out.put("select_per_s", len(selects_ok) / window, "1/s")
    out.put("cpu_per_select_s", server_cpu / max(len(selects_ok), 1), "s")
    out.put("peak_rss_mib", rss, "MiB")
    out.put("select_cold_p50_ms", median(latencies_ms("select_cold")), "ms")
    out.put("select_warm_p50_ms", median(latencies_ms("select_warm")), "ms")
    out.put("predict_p50_ms", median(predict_ms), "ms")
    out.put("predict_p99_ms", percentile(predict_ms, 99), "ms")
    out.put("goodput_rps", within / window, "1/s")
    out.report["stream"] = stream_peak_bytes_per_s()
    return out

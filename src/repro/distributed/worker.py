"""The fleet worker: stage a dataset once, then serve block computes.

One worker is a tiny two-endpoint service over the serving stack's
JSON-over-HTTP dialect.  The dataset (x, y, grid, kernel) is staged
*once* per sweep — per-block traffic is then just ``(start, stop)``
bounds, mirroring the shared-memory pool's O(1)-per-block IPC — and
every ``/compute`` answer is the exact
:func:`~repro.core.fastgrid.fastgrid_row_contributions` matrix for the
leased rows, checksummed over the worker's own output.

Routes
------
``GET  /healthz``   liveness + staged datasets + blocks served
                    (the coordinator's heartbeat target)
``GET  /metrics``   text metrics dump (blocks served, rows computed)
``POST /dataset``   stage ``{dataset_id, x, y, grid, kernel, dtype}``
``POST /compute``   ``{dataset_id, block_id, epoch, start, stop}`` →
                    checksummed contribution rows
``POST /shutdown``  drain and exit 0

:class:`WorkerApp.handle` is synchronous and socket-free — the chaos
suite drives it in-process through
:class:`~repro.distributed.transport.InProcessTransport`; the asyncio
wrapper here serves the *same* object over TCP for
``python -m repro.distributed.worker``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
from typing import Any, Sequence

from repro.core.fastgrid import (
    fastgrid_row_contributions,
    require_fast_grid_kernel,
)
from repro.distributed.protocol import (
    decode_compute_request,
    decode_dataset,
    encode_compute_response,
)
from repro.exceptions import (
    DistributedProtocolError,
    ReproError,
    ValidationError,
    error_code,
)
from repro.serving.metrics import MetricsRegistry

__all__ = ["WorkerApp", "run_worker_server", "main"]


class WorkerApp:
    """Route table + staged-dataset store for one fleet worker."""

    def __init__(self, worker_id: str | None = None) -> None:
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.metrics = MetricsRegistry()
        self._datasets: dict[str, dict[str, Any]] = {}
        self._m_blocks = self.metrics.counter(
            "dist_worker_blocks_total", "block computes served"
        )
        self._m_rows = self.metrics.counter(
            "dist_worker_rows_total", "contribution rows computed"
        )
        self._m_datasets = self.metrics.gauge(
            "dist_worker_datasets", "datasets currently staged"
        )

    # -- routes ------------------------------------------------------------

    def handle(
        self, method: str, path: str, body: dict[str, Any] | None
    ) -> tuple[int, dict[str, Any] | str]:
        """Dispatch one request; returns ``(status, payload)``."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if method == "GET" and path == "/healthz":
                return 200, self._healthz()
            if method == "GET" and path == "/metrics":
                return 200, self.metrics.render_text()
            if method == "POST" and path == "/dataset":
                return 200, self._stage(body or {})
            if method == "POST" and path == "/compute":
                return 200, self._compute(body or {})
            if method == "POST" and path == "/shutdown":
                return 200, {"status": "stopping", "worker_id": self.worker_id}
            raise ValidationError(
                f"no route for {method} {path}; available: GET /healthz, "
                "GET /metrics, POST /dataset, POST /compute, POST /shutdown"
            )
        except ReproError as exc:
            bad_input = (ValidationError, DistributedProtocolError)
            status = 400 if isinstance(exc, bad_input) else 422
            return status, {
                "error": str(exc),
                "code": error_code(exc) or "REPRO_DIST",
            }

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "worker_id": self.worker_id,
            "datasets": sorted(self._datasets),
            "blocks_served": int(self._m_blocks.value),
        }

    def _stage(self, body: dict[str, Any]) -> dict[str, Any]:
        staged = decode_dataset(body)
        require_fast_grid_kernel(staged["kernel"])
        self._datasets[staged["dataset_id"]] = staged
        self._m_datasets.set(len(self._datasets))
        return {
            "staged": staged["dataset_id"],
            "worker_id": self.worker_id,
            "n": int(staged["x"].shape[0]),
            "k": int(staged["grid"].shape[0]),
        }

    def _compute(self, body: dict[str, Any]) -> dict[str, Any]:
        request = decode_compute_request(body)
        staged = self._datasets.get(request["dataset_id"])
        if staged is None:
            raise DistributedProtocolError(
                f"dataset {request['dataset_id']!r} is not staged on "
                f"worker {self.worker_id}; staged: {sorted(self._datasets)}"
            )
        n = int(staged["x"].shape[0])
        if request["stop"] > n:
            raise DistributedProtocolError(
                f"block rows[{request['start']}:{request['stop']}) exceed "
                f"the staged dataset (n={n})"
            )
        rows = fastgrid_row_contributions(
            staged["x"],
            staged["y"],
            staged["grid"],
            staged["kernel"],
            request["start"],
            request["stop"],
            staged["dtype"],
        )
        self._m_blocks.inc()
        self._m_rows.inc(rows.shape[0])
        return encode_compute_response(request, rows, self.worker_id)


# -- the TCP wrapper ---------------------------------------------------------


async def run_worker_server(
    app: WorkerApp,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "asyncio.Future[tuple[str, int]] | None" = None,
    shutdown_trigger: "asyncio.Event | None" = None,
) -> None:
    """Serve ``app`` over TCP until shutdown (POST /shutdown or signal).

    Reuses the serving stack's wire helpers so coordinator and worker
    speak byte-identical HTTP.  Block computes run on executor threads;
    the event loop only parses, routes, and serialises.
    """
    from repro.serving.server import _read_request, _write_response

    loop = asyncio.get_running_loop()
    stop = shutdown_trigger or asyncio.Event()

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
            except ValidationError as exc:
                await _write_response(
                    writer, 400, {"error": str(exc), "code": exc.code}
                )
                return
            if request is None:
                return
            method, path, body = request
            status, payload = await loop.run_in_executor(
                None, app.handle, method, path, body
            )
            await _write_response(writer, status, payload)
            if method == "POST" and path.rstrip("/") == "/shutdown":
                stop.set()
        except (ConnectionResetError, BrokenPipeError):
            pass  # coordinator went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    server = await asyncio.start_server(handle_connection, host, port)
    sockets = server.sockets or ()
    bound = sockets[0].getsockname()[:2] if sockets else (host, 0)
    if ready is not None and not ready.done():
        ready.set_result((bound[0], int(bound[1])))
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without loop signal handlers
    try:
        async with server:
            await stop.wait()
    finally:
        server.close()


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.distributed.worker`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-worker", description="repro fleet worker process"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 = let the OS pick"
    )
    parser.add_argument("--worker-id", default=None)
    args = parser.parse_args(argv)
    app = WorkerApp(worker_id=args.worker_id)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future[tuple[str, int]] = loop.create_future()
        task = loop.create_task(
            run_worker_server(app, host=args.host, port=args.port, ready=ready)
        )
        host, port = await ready
        # The fleet spawner parses this exact line to learn the endpoint.
        print(f"repro-worker {app.worker_id} on http://{host}:{port}", flush=True)
        await task

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

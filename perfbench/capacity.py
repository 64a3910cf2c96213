"""Saturation rate of each ``repro serve`` route, measured closed loop.

Usage (from the root of a checkout):

    python3 perfbench/capacity.py [--seconds 10] [--seed 1]

Boots the server as the ``serve`` workload does and keeps ``CONNECTIONS``
requests of one route in flight for ``--seconds``, one route at a time:
``/predict`` (8-64 points over the two models), warm ``/select`` (the
six-sample working set) and cold ``/select`` (never-seen samples that
``register`` a model).  It prints each route's completed requests per
second, the share of it the ``serve`` workload offers, and their sum: the
server's utilisation under that workload's traffic, as a first-order
estimate that ignores interference between the routes.  Not part of a
benchmark run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SCRATCH, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import serve  # noqa: E402

#: Requests per second the ``serve`` workload offers on each route.
OFFERED = {
    "predict": serve.PREDICT_RATE,
    "select_warm": serve.SELECT_RATE * (1 - serve.COLD_SHARE),
    "select_cold": serve.SELECT_RATE * serve.COLD_SHARE,
}


async def _saturate(server: serve.Server, path: str, bodies, seconds: float):
    """Completed requests per second with ``CONNECTIONS`` always in flight."""
    done, failed = [], 0
    deadline = time.perf_counter() + seconds

    async def worker() -> None:
        nonlocal failed
        while time.perf_counter() < deadline:
            body = next(bodies, None)
            if body is None:
                raise RuntimeError("ran out of request bodies; lower --seconds")
            t0 = time.perf_counter()
            status, _ = await serve._http(server.host, server.port, path, body)
            if status == 200:
                done.append(time.perf_counter() - t0)
            else:
                failed += 1

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(serve.CONNECTIONS)))
    elapsed = time.perf_counter() - started
    return len(done) / elapsed, float(np.median(done)), failed


def measure(seconds: float, seed: int, tmp: Path) -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(seed)
    models = {name: serve._sample(rng, n) for name, n in serve.MODEL_N.items()}
    data_csv = tmp / "default.csv"
    x0, y0 = models["default"]
    data_csv.write_text(
        "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x0.tolist(), y0.tolist()))
    )
    server = serve.Server(data_csv, tmp / "cache")
    try:
        server.request("POST", "/select", serve._select_body(*models["small"], "small"))
        names = list(serve.MODEL_N)

        def predicts():
            while True:
                at = rng.uniform(0.0, 1.0, int(rng.integers(8, 65)))
                pick = names[int(rng.integers(len(names)))]
                yield json.dumps({"model": pick, "at": at.tolist()}).encode()

        warm_bodies = [
            serve._select_body(*serve._sample(rng, n))
            for n in serve.WORKING_SET_SIZES
        ]
        for body in warm_bodies:
            server.request("POST", "/select", body)

        def warm():
            while True:
                yield from warm_bodies

        # Never-seen samples, made before the clock starts (enough for a
        # server up to about eight cold selections per second).
        cold_bodies = iter([
            serve._select_body(
                *serve._sample(rng, serve.COLD_SIZES[i % len(serve.COLD_SIZES)]),
                register=f"cap{i}",
            )
            for i in range(int(8 * seconds) + serve.CONNECTIONS)
        ])
        routes = {
            "predict": ("/predict", predicts()),
            "select_warm": ("/select", warm()),
            "select_cold": ("/select", cold_bodies),
        }
        result = {}
        for route, (path, bodies) in routes.items():
            rate, p50, failed = asyncio.run(_saturate(server, path, bodies, seconds))
            result[route] = {
                "saturation_per_s": rate,
                "service_p50_ms": p50 * 1e3,
                "failed": failed,
                "offered_per_s": OFFERED[route],
                "offered_share": OFFERED[route] / rate,
            }
        return result
    finally:
        server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="capacity-", dir=SCRATCH))
    try:
        result = measure(args.seconds, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{serve.CONNECTIONS} requests in flight, {args.seconds:g} s per route")
    for route, row in result.items():
        print(f"  {route:12s} saturation {row['saturation_per_s']:8.2f}/s"
              f"  service p50 {row['service_p50_ms']:8.2f} ms"
              f"  offered {row['offered_per_s']:6.2f}/s"
              f" = {row['offered_share']:6.1%}  failed {row['failed']}")
    total = sum(row["offered_share"] for row in result.values())
    print(f"  utilisation under the serve workload's traffic: {total:.1%}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

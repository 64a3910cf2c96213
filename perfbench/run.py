"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact|serve \\
        --seed N --seconds S --trace 0|1

The seed makes the inputs; the program only ever sees the generated
arrays.  With ``--trace 0`` the result line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The
lines before it are a readable report: provenance, every metric with its
unit, the checks that failed and other figures of the run.  The last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit code 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    SRC,
    Outcome,
    adopt_orphans,
    provenance,
    stop_children,
)

WORKLOADS = ("exact", "serve")


def _run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import numpy as np

    rng = np.random.default_rng(seed)
    if workload == "serve":
        import serve

        return serve.run(rng, seconds, trace)
    import library
    import workloads

    return library.run(workloads.exact_cases(rng), seconds, trace, rng)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated runs unwind through the workloads' cleanup (the serve
    # workload stops its server there).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Every process the run starts, and every helper those start, is
    # stopped and reaped before the result is printed.
    adopt_orphans()
    try:
        outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        reaped = stop_children()
    if not reaped:
        print("perfbench: a child process did not exit", file=sys.stderr)
        return 1
    info = provenance(args.seed, outcome.report.pop("stream"))
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} trace={args.trace} seconds={args.seconds:g}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':40s} {rate:14.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for reason in outcome.failures[:10]:
        print(f"  FAILED {reason}")
    print("report " + json.dumps(outcome.report, sort_keys=True, default=float))
    # The result line carries the metrics BENCHMARK.json declares for this
    # mode; any others are printed above only.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    complete = set(names) <= set(outcome.metrics)
    if not complete:
        print("  FAILED a metric BENCHMARK.json declares was not measured")
    finite = all(
        math.isfinite(value) for name, (value, _) in outcome.metrics.items()
        if name in names
    )
    if not finite:
        print("  FAILED a metric has no value (no successful sample)")
    result = {
        "correct": complete
        and finite
        and outcome.valid
        and outcome.failed == 0
        and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
            if name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

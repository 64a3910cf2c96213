"""Spread of a set of runs, and the regression check between two sets.

Each input file holds result lines of ``run.py`` (its last output line),
one JSON object per line, all of one workload.

    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py check BASE.jsonl NEW.jsonl

``spread`` prints each end-to-end metric's median and the distance
between its first and third quartiles as a share of the median.
``check`` fails (exit 1) when a run was not correct, when a metric's
spread in either set exceeds its bound (``setup_s`` excepted), or when
NEW's median is worse than BASE's by more than the bound fixed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` with ``statistics.quantiles`` quartiles."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid


def check(base: list[dict], new: list[dict], metrics: list[dict]) -> list[str]:
    """Problems that make NEW a regression of BASE (empty when it passes)."""
    problems = []
    for label, runs in (("base", base), ("new", new)):
        if not all(r["correct"] for r in runs):
            problems.append(f"{label}: a run was not correct")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        stats = {}
        for label, runs in (("base", base), ("new", new)):
            stats[label] = spread([r["metrics"][name]["value"] for r in runs])
            if name != "setup_s" and stats[label][1] > bound:
                problems.append(
                    f"{label}: {name} spread {stats[label][1]:.3f} > bound {bound}"
                )
        (b, _), (n, _) = stats["base"], stats["new"]
        worse = (n - b) / b if metric["better"] == "lower" else (b - n) / b
        if worse > bound:
            problems.append(f"{name}: {worse:+.1%} worse than base (bound {bound:.0%})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("runs", type=Path)
    ck = sub.add_parser("check")
    ck.add_argument("base", type=Path)
    ck.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if args.command == "spread":
        runs = load_runs(args.runs)
        print(f"{len(runs)} runs, correct: {sum(r['correct'] for r in runs)}")
        for metric in metrics:
            mid, share = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            high = share > metric["bound"] / 3
            flag = "  (above a third of the bound)" if high else ""
            print(f"  {metric['name']:22s} median {mid:12.6g} {metric['unit']:5s}"
                  f" spread {share:6.3f} bound {metric['bound']}{flag}")
        return 0
    problems = check(load_runs(args.base), load_runs(args.new), metrics)
    for problem in problems:
        print(problem)
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: its regression check and its correctness gate.

Run with ``python3 -m pytest -q perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from compare import check  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from reference import (  # noqa: E402
    KERNELS,
    check_selection,
    cv_curves,
    nw_predict,
    same_estimates,
)
from workloads import _variant  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = BENCH["end_to_end"]


def _runs(rng, slow_metric=None, factor=1.0):
    """Ten result lines; ``slow_metric`` made ``factor`` times worse.

    Each metric jitters with a standard deviation of a quarter of its
    bound: a quartile spread of about a third of the bound, the noise
    level the benchmark is tuned to stay under.
    """
    runs = []
    for _ in range(10):
        values = {}
        for m in METRICS:
            value = 100.0 * (1.0 + m["bound"] / 4 * rng.standard_normal())
            if m["name"] == slow_metric:
                value = value * factor if m["better"] == "lower" else value / factor
            values[m["name"]] = {"value": value, "unit": m["unit"]}
        runs.append({"correct": True, "attempted": 10, "failed": 0, "metrics": values})
    return runs


@pytest.mark.parametrize("metric", [m["name"] for m in METRICS])
def test_a_regression_beyond_the_bound_fails(metric):
    rng = np.random.default_rng(1)
    bound = next(m["bound"] for m in METRICS if m["name"] == metric)
    problems = check(_runs(rng), _runs(rng, metric, 1.0 + 1.5 * bound), METRICS)
    assert problems and all(metric in p for p in problems)


def test_twenty_percent_worse_fails_where_the_bound_is_tighter():
    tight = [m["name"] for m in METRICS if m["bound"] < 0.15]
    assert tight
    rng = np.random.default_rng(2)
    for metric in tight:
        assert check(_runs(rng), _runs(rng, metric, 1.2), METRICS)


def test_noise_level_jitter_passes():
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert check(_runs(rng), _runs(rng), METRICS) == []


def test_an_incorrect_run_fails():
    rng = np.random.default_rng(4)
    new = _runs(rng)
    new[3]["correct"] = False
    assert check(_runs(rng), new, METRICS)


def _sample(n, variant, seed=0):
    from repro.data import generate

    sample = generate("sine", n, seed=seed)
    return _variant(sample.x, variant), sample.y


def _grids():
    from repro import BandwidthGrid

    return [None, BandwidthGrid.evenly_spaced(0.002, 0.2, 500)]


@pytest.mark.parametrize("variant", ["plain", "offset", "ties"])
def test_reference_agrees_with_the_program(variant):
    from repro import select_bandwidth

    x, y = _sample(400, variant)
    for kernel in KERNELS:
        for grid in _grids():
            result = select_bandwidth(x, y, kernel=kernel, grid=grid)
            (ref,) = cv_curves(x, y, [(kernel, result.bandwidths)])
            grid_values = result.bandwidths
            verdict = check_selection(
                grid_values, result.scores, result.bandwidth, grid_values, ref
            )
            assert verdict.ok, (kernel, verdict)


def test_a_corrupted_curve_fails_the_gate():
    from repro import select_bandwidth

    x, y = _sample(400, "plain")
    grid = _grids()[1]
    result = select_bandwidth(x, y, kernel="biweight", grid=grid)
    (ref,) = cv_curves(x, y, [("biweight", grid.values)])
    j = int(np.flatnonzero(grid.values == result.bandwidth)[0])
    assert 0 < j < len(grid) - 1, "the test needs an interior optimum"

    def gate(scores=result.scores, h=result.bandwidth, bandwidths=grid.values):
        return check_selection(bandwidths, scores, h, grid.values, ref).ok

    assert gate()
    one_point = result.scores.copy()
    one_point[-1] *= 1 + 1e-6
    assert not gate(scores=one_point)
    assert not gate(h=float(grid.values[j + 1]))
    assert not gate(bandwidths=grid.values * (1 + 1e-12))
    nan_curve = result.scores.copy()
    nan_curve[0] = np.nan
    assert not gate(scores=nan_curve)


@pytest.mark.parametrize("variant", ["plain", "offset"])
def test_predict_reference_agrees_with_the_program(variant):
    from repro import NadarayaWatson

    x, y = _sample(500, variant)
    at = np.linspace(x.min(), x.max(), 97)
    for kernel in KERNELS:
        for h in (0.002, 0.05):
            got = NadarayaWatson(kernel, bandwidth=h).fit(x, y).predict(at)
            expected = nw_predict(x, y, at, h, kernel)
            assert same_estimates(got, expected), (kernel, h)
            wrong = got.copy()
            wrong[np.flatnonzero(np.isfinite(wrong))[0]] *= 1 + 1e-6
            assert not same_estimates(wrong, expected)


def test_benchmark_json_names_every_per_layer_metric():
    assert [m["name"] for m in BENCH["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == ["exact", "serve"]


def test_refuses_to_run_without_the_program(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_faster_selection_does_not_lower_goodput(monkeypatch):
    """``goodput_rps`` rises with selection speed, across the cycle rule.

    Each selection that runs the sweep is made slower by a sleep: with a
    2 s loop, 0.9 s stops it after one cycle over the two cases, 0.4 s
    lets it run a second cycle (a cycle's other work takes about 0.2 s).
    """
    import library
    from library import Case

    x, y = _sample(300, "plain")
    cases = [Case("a", x, y, "epanechnikov", None),
             Case("b", x, y, "biweight", None, group=1)]
    real_select = library._select

    def goodput(delay):
        def slowed(case, cache, tracer=None):
            result = real_select(case, cache, tracer)
            if result.diagnostics.get("cache") != "hit":
                time.sleep(delay)
            return result

        monkeypatch.setattr(library, "_select", slowed)
        out = library.run(cases, 2.0, False, np.random.default_rng(5))
        assert out.failed == 0, out.failures
        return out.report["cycles"], out.metrics["goodput_rps"][0]

    slow_cycles, slow = goodput(0.9)
    fast_cycles, fast = goodput(0.4)
    assert (slow_cycles, fast_cycles) == (1, 2)
    assert fast > slow


_TRACKER_PROBE = """
import os, sys
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
from common import adopt_orphans, stop_children
adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
assert tracker is not None
assert stop_children(timeout=10.0)
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("gone")
"""


def test_shared_memory_leaves_no_process_behind():
    """The resource tracker that shared memory starts is stopped and reaped."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACKER_PROBE, str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "gone"

"""The in-process library workload, ``exact``.

One closed-loop client does what a user of the library does: select a
bandwidth with ``select_bandwidth`` (through an in-memory
``ArtifactCache``), select again on the same data (a cache hit), then fit
a Nadaraya-Watson model with the chosen bandwidth and predict with it.
Every output is checked against ``reference.py`` after the loop, so
checking never overlaps timing.

A traced run replaces each cold selection by a pair on the same input:
untraced, then traced into a fresh ``repro.obs.Tracer``.  The pairs give
``obs.overhead_frac``; the traced halves give the per-layer figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import (
    LATENCY_LIMIT_S,
    Outcome,
    children_peak_rss_mib,
    cpu_seconds,
    median,
    peak_rss_mib,
    percentile,
    stream_peak_bytes_per_s,
    time_import,
)
from layers import PER_LAYER, SelectionLayers
from reference import check_selection, cv_curves, nw_predict, same_estimates

#: Warm (cache-hit) repeats and timed predictions after each cold selection.
WARM_REPEATS = 10
PREDICTS_PER_SELECTION = 180


@dataclass
class Case:
    """One selection the loop repeats: a sample, a kernel and a grid."""

    label: str
    x: np.ndarray
    y: np.ndarray
    kernel: str
    grid: Any  # a repro BandwidthGrid, or None for the paper's default
    options: dict[str, Any] = field(default_factory=dict)
    group: int = 0  # cases of one group share one sample

    @property
    def grid_values(self) -> np.ndarray:
        """The grid requested, built here for the paper default (k = 50)."""
        if self.grid is not None:
            return self.grid.values
        domain = float(self.x.max() - self.x.min())
        return np.linspace(domain / 50, domain, 50)


@dataclass
class Selection:
    case: int
    seconds: float
    result: Any  # the SelectionResult


def _select(case: Case, cache: Any, tracer: Any = None) -> Any:
    from repro import select_bandwidth

    return select_bandwidth(
        case.x,
        case.y,
        kernel=case.kernel,
        grid=case.grid,
        cache=cache,
        trace=tracer if tracer is not None else False,
        **case.options,
    )


def _traffic_bytes(case: Case, k: int) -> float:
    """Bytes the membudget traffic model charges one selection (computed)."""
    from repro.kernels import get_kernel
    from repro.utils.membudget import plan_blocks

    terms = len(get_kernel(case.kernel).poly_terms)
    return float(plan_blocks(case.x.shape[0], k, n_terms=terms).predicted_traffic_bytes)


def _ops(case: Case, h: float, count: int, rng: np.random.Generator) -> list[Any]:
    """A case's warm repeats and predictions, shuffled: ``None`` = warm."""
    from repro import NadarayaWatson

    model = NadarayaWatson(case.kernel, bandwidth=h).fit(case.x, case.y)
    lo, hi = float(case.x.min()), float(case.x.max())
    ops: list[Any] = [None] * WARM_REPEATS
    for _ in range(count):
        ops.append((model, rng.uniform(lo, hi, int(rng.integers(8, 65)))))
    return [ops[i] for i in rng.permutation(len(ops))]


def run(
    cases: list[Case],
    seconds: float,
    trace: bool,
    rng: np.random.Generator,
) -> Outcome:
    """One run over ``cases``."""
    out = Outcome()
    walls, imports = time_import(1)
    from repro.obs import Tracer
    from repro.serving.cache import ArtifactCache

    caches: dict[int, Any] = {}  # the cache of each case's latest cold call
    layers = SelectionLayers()
    base_rss = peak_rss_mib()

    # The closed loop runs the cold selections in whole cycles over the
    # cases, so every run has the same mix, and stops at the cycle
    # boundary nearest to ``seconds`` of loop time (selections, follow-ups
    # and traced pairs alike, so a faster program cannot stretch the run).
    # Every untraced cold selection is followed by the same fixed set of
    # warm repeats and predictions, so the operation count grows with the
    # cycles and ``goodput_rps`` follows the program's speed, not the stop
    # rule.
    cold: list[Selection] = []
    warm: list[tuple[int, float, Any]] = []
    predicts: list[tuple[int, np.ndarray, float, np.ndarray, float]] = []
    select_s = select_cpu = untraced_s = traced_s = 0.0

    def follow_up(index: int, h: float) -> None:
        for op in _ops(cases[index], h, PREDICTS_PER_SELECTION, rng):
            if op is None:
                t0 = time.perf_counter()
                result = _select(cases[index], caches[index])
                warm.append((index, time.perf_counter() - t0, result))
            else:
                model, at = op
                t0 = time.perf_counter()
                estimates = model.predict(at)
                predicts.append((index, at, h, estimates, time.perf_counter() - t0))

    started = time.perf_counter()
    cycles = 0
    while cycles == 0 or (
        (time.perf_counter() - started) * (1 + 0.5 / cycles) < seconds
    ):
        cycles += 1
        for index, case in enumerate(cases):
            caches[index] = ArtifactCache(None)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = _select(case, caches[index])
            dt = time.perf_counter() - t0
            select_cpu += cpu_seconds() - cpu0
            select_s += dt
            cold.append(Selection(index, dt, result))
            if not trace:
                follow_up(index, result.bandwidth)
                continue
            tracer = Tracer(max_events=1_000_000)
            t0 = time.perf_counter()
            with tracer.span("bench:select_bandwidth"):
                result = _select(case, ArtifactCache(None), tracer)
            traced_dt = time.perf_counter() - t0
            untraced_s += dt
            traced_s += traced_dt
            cold.append(Selection(index, traced_dt, result))
            layers.add(tracer, _traffic_bytes(case, len(result.bandwidths)))
    loop_s = time.perf_counter() - started
    workers_peak = children_peak_rss_mib()
    rss = peak_rss_mib()
    # Set-up is timed three times, spread over the run: before the loop,
    # after it and after checking.
    for wall, imported in zip(*time_import(1)):
        walls.append(wall)
        imports.append(imported)

    # Checking, after all timing.
    t_check = time.perf_counter()
    ok_cold = _check_cold(cases, cold, out)
    ok_warm = []
    for index, dt, result in warm:
        ref = next(sel for sel in cold if sel.case == index)
        out.attempted += 1
        if result.diagnostics.get("cache") != "hit":
            out.fail(f"{cases[index].label}: warm repeat missed the cache")
        elif not (
            np.array_equal(result.scores, ref.result.scores)
            and result.bandwidth == ref.result.bandwidth
        ):
            out.fail(f"{cases[index].label}: warm result differs from the cold one")
        else:
            ok_warm.append(dt)
    ok_predict = []
    for index in sorted({p[0] for p in predicts}):
        case = cases[index]
        mine = [p for p in predicts if p[0] == index]
        points = np.concatenate([p[1] for p in mine])
        expected = nw_predict(case.x, case.y, points, mine[0][2], case.kernel)
        offset = 0
        for _, at, _, estimates, dt in mine:
            out.attempted += 1
            if same_estimates(estimates, expected[offset : offset + at.shape[0]]):
                ok_predict.append(dt)
            else:
                out.fail(f"{case.label}: predict differs from the reference")
            offset += at.shape[0]

    out.report["check_s"] = time.perf_counter() - t_check
    for wall, imported in zip(*time_import(1)):
        walls.append(wall)
        imports.append(imported)
    stream = stream_peak_bytes_per_s()
    out.report["stream"] = stream
    out.report["loop_s"] = loop_s
    out.report["selections"] = len(cold)
    out.report["cycles"] = cycles
    out.report["case_s"] = {
        case.label: [round(sel.seconds, 4) for sel in cold if sel.case == i]
        for i, case in enumerate(cases)
    }
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layers.metrics(stream["peak_bytes_per_s"]))
        metrics["repro.import_s"] = median(imports)
        metrics["obs.overhead_frac"] = traced_s / untraced_s - 1.0
        if layers.predicted_peak_bytes:
            measured = max(0.0, workers_peak - base_rss) * 1024 * 1024
            predicted = layers.predicted_peak_bytes
            metrics["utils.membudget.peak_ratio"] = measured / predicted
        for name, unit in PER_LAYER.items():
            out.put(name, metrics[name], unit)
        return out

    cold_s = [sel.seconds for sel in cold]
    within = sum(dt <= LATENCY_LIMIT_S["select_cold"] for dt in ok_cold)
    within += sum(dt <= LATENCY_LIMIT_S["select_warm"] for dt in ok_warm)
    within += sum(dt <= LATENCY_LIMIT_S["predict"] for dt in ok_predict)
    predict_ms = [dt * 1e3 for *_, dt in predicts]
    out.put("setup_s", median(walls), "s")
    out.put("select_per_s", len(ok_cold) / select_s, "1/s")
    out.put("cpu_per_select_s", select_cpu / len(cold), "s")
    out.put("peak_rss_mib", rss, "MiB")
    out.put("select_cold_p50_ms", median(cold_s) * 1e3, "ms")
    out.put("select_warm_p50_ms", median([dt for _, dt, _ in warm]) * 1e3, "ms")
    out.put("predict_p50_ms", median(predict_ms), "ms")
    out.put("predict_p99_ms", percentile(predict_ms, 99), "ms")
    out.put("goodput_rps", within / loop_s, "1/s")
    out.report["samples"] = {
        "cold": len(cold), "warm": len(warm), "predict": len(predicts)
    }
    return out


def _check_cold(cases: list[Case], cold: list[Selection], out: Outcome) -> list[float]:
    """Gate every cold selection against the reference curve; return ok times."""
    refs: dict[int, np.ndarray] = {}
    for group in sorted({c.group for c in cases}):
        members = [i for i, c in enumerate(cases) if c.group == group]
        sample = cases[members[0]]
        requests = [(cases[i].kernel, cases[i].grid_values) for i in members]
        curves = cv_curves(sample.x, sample.y, requests)
        refs.update(zip(members, curves))
    ok = []
    for sel in cold:
        out.attempted += 1
        case = cases[sel.case]
        result = sel.result
        verdict = check_selection(
            result.bandwidths,
            result.scores,
            result.bandwidth,
            case.grid_values,
            refs[sel.case],
        )
        if result.diagnostics.get("cache") == "hit":
            out.fail(f"{case.label}: cold selection did not run the sweep")
        elif verdict.ok:
            ok.append(sel.seconds)
        else:
            out.fail(f"{case.label}: {verdict.reason}")
    return ok

"""Per-layer metrics from a traced run.

Two sources, both read after the timed work is done:

* span trees recorded in-process by a ``repro.obs.Tracer``: the spans the
  program already emits under ``trace=`` (``select_bandwidth``,
  ``fastgrid``, ``block``, ``sort``, ``sweep``, ``reduction``,
  ``blocked-shm-sweep``, ``plan``, ``block-sweep``, ``reduce``, worker
  spans adopted by the pool) plus one ``bench:`` span the benchmark opens
  around each call it makes into ``repro``;
* the serving process's ``/metrics`` text (scheduler and cache counters,
  the request-latency histogram, and per-span totals of its tracer).

A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

#: Every per-layer metric, with its unit.  A traced run reports all of
#: them; a layer that a workload leaves idle reads 0.
PER_LAYER: dict[str, str] = {
    "core.fastgrid.sort_s": "s",
    "core.fastgrid.sweep_s": "s",
    "core.fastgrid.reduction_s": "s",
    "core.fastgrid.fold_s": "s",
    "core.fastgrid.modelled_gbps": "GB/s",
    "core.fastgrid.roofline_frac": "ratio",
    "utils.numeric.kahan_compensation_max": "abs",
    "core.fastgrid.empty_windows": "count",
    "core.api.self_s": "s",
    "core.blockwise.plan_s": "s",
    "core.blockwise.blocks": "count",
    "core.blockwise.reduce_s": "s",
    "utils.membudget.peak_ratio": "ratio",
    "parallel.setup_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.utilisation": "ratio",
    "serving.predict.occupancy_mean": "count",
    "serving.predict.queue_wait_p50_ms": "ms",
    "serving.predict.run_s": "s",
    "serving.select.queue_wait_p50_ms": "ms",
    "serving.select.run_s": "s",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.lookups": "count",
    "serving.handle_p50_ms": "ms",
    "serving.wire_p50_ms": "ms",
    "serving.rejected": "count",
    "serving.errors_5xx": "count",
    "repro.import_s": "s",
    "obs.overhead_frac": "ratio",
}

#: Spans of ``core.api`` / ``core.selectors`` (validation, grid, argmin).
_API_SPANS = {"select_bandwidth", "grid-search", "evaluate-grid", "argmin"}


def _self_times(spans: list[Any]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] += span.duration
    return {s.span_id: max(0.0, s.duration - child_total[s.span_id]) for s in spans}


class SelectionLayers:
    """Accumulates per-layer figures over traced in-process selections."""

    def __init__(self) -> None:
        self.selections = 0
        #: Selections that ran the blocked-shm path (they have a ``plan``).
        self.blocked = 0
        self.sums: dict[str, float] = defaultdict(float)
        self.kahan_max = 0.0
        self.traffic_bytes = 0.0
        self.blocks = 0
        self.predicted_peak_bytes = 0

    def add(self, tracer: Any, traffic_bytes: float) -> None:
        """Fold one traced selection (its tracer) into the totals."""
        spans = tracer.spans()
        own = _self_times(spans)
        names = {s.span_id: s.name for s in spans}
        self.selections += 1
        self.blocked += any(span.name == "plan" for span in spans)
        self.traffic_bytes += traffic_bytes
        add = self.sums
        for span in spans:
            name, duration, attrs = span.name, span.duration, span.attributes
            if name in ("sort", "sweep", "reduction"):
                add[f"core.fastgrid.{name}_s"] += duration
            elif name == "fastgrid":
                add["core.fastgrid.fold_s"] += own[span.span_id]
            elif name in _API_SPANS or name.startswith(("backend:", "bench:")):
                add["core.api.self_s"] += own[span.span_id]
            elif name == "plan":
                add["core.blockwise.plan_s"] += duration
                self.blocks += int(attrs.get("n_blocks", 0))
                self.predicted_peak_bytes = max(
                    self.predicted_peak_bytes, int(attrs.get("predicted_peak_bytes", 0))
                )
            elif name == "reduce":
                add["core.blockwise.reduce_s"] += duration
            elif name == "blocked-shm-sweep":
                add["parallel.setup_s"] += own[span.span_id]
            elif name == "block-sweep" and "workers" in attrs:
                add["parallel.pool_wall_s"] += duration * attrs["workers"]
            elif name == "block" and names.get(span.parent_id) == "block-sweep":
                add["parallel.worker_busy_s"] += duration
        self.kahan_max = max(
            self.kahan_max, tracer.maxima().get("numeric.kahan_compensation", 0.0)
        )
        add["core.fastgrid.empty_windows"] += tracer.counters().get(
            "numeric.empty_windows", 0.0
        )

    def metrics(self, stream_peak: float) -> dict[str, float]:
        # Engine and API figures are per selection; blockwise and pool
        # figures per selection that ran the blocked-shm path.
        n = max(self.selections, 1)
        blocked = max(self.blocked, 1)
        s = self.sums
        out = {
            name: s[name] / n
            for name in (
                "core.fastgrid.sort_s",
                "core.fastgrid.sweep_s",
                "core.fastgrid.reduction_s",
                "core.fastgrid.fold_s",
                "core.fastgrid.empty_windows",
                "core.api.self_s",
            )
        }
        for name in (
            "core.blockwise.plan_s",
            "core.blockwise.reduce_s",
            "parallel.setup_s",
            "parallel.worker_busy_s",
        ):
            out[name] = s[name] / blocked
        kernel_s = s["core.fastgrid.sort_s"] + s["core.fastgrid.sweep_s"]
        gbps = self.traffic_bytes / kernel_s / 1e9 if kernel_s > 0 else 0.0
        out["core.fastgrid.modelled_gbps"] = gbps
        out["core.fastgrid.roofline_frac"] = gbps * 1e9 / stream_peak
        out["utils.numeric.kahan_compensation_max"] = self.kahan_max
        out["core.blockwise.blocks"] = self.blocks / blocked
        pool = s["parallel.pool_wall_s"]
        busy = s["parallel.worker_busy_s"]
        out["parallel.utilisation"] = busy / pool if pool else 0.0
        return out


def parse_metrics_text(text: str) -> dict[str, float]:
    """``name value`` lines of a ``/metrics`` dump (comments skipped)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def serving_layers(
    before: dict[str, float], after: dict[str, float], client_rtt_p50_ms: float
) -> dict[str, float]:
    """Per-layer figures of the serving process over the timed window.

    Counters and span totals are differenced across the window; the p50
    figures come from the server's histograms, which keep the most recent
    1,024 observations (all from the window when it has that many).
    """

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def mean(series: str) -> float:
        count = delta(f"repro_{series}_count")
        return delta(f"repro_{series}_sum") / count if count else 0.0

    span = "repro_trace_span_{}_seconds_total".format
    sweeps = delta("repro_select_cache_misses_total")
    selects = delta("repro_trace_span_select_bandwidth_count")
    hits, misses = delta("repro_cache_hits_total"), delta("repro_cache_misses_total")
    handle_ms = after.get("repro_http_request_seconds_p50", 0.0) * 1e3

    def per_sweep(name: str) -> float:
        return delta(name) / sweeps if sweeps else 0.0

    # select_bandwidth, grid-search, evaluate-grid and argmin, minus the
    # resilient engine that runs the sweep beneath them.
    api_s = delta(span("select_bandwidth")) - delta(span("resilient_sweep"))
    return {
        "core.fastgrid.sort_s": per_sweep(span("sort")),
        "core.fastgrid.sweep_s": per_sweep(span("sweep")),
        "core.fastgrid.reduction_s": per_sweep(span("reduction")),
        "core.fastgrid.empty_windows": per_sweep(
            "repro_trace_counter_numeric_empty_windows"
        ),
        "core.api.self_s": api_s / selects if selects else 0.0,
        "serving.predict.occupancy_mean": mean("predict_batch_occupancy"),
        "serving.predict.queue_wait_p50_ms": after.get(
            "repro_predict_queue_wait_seconds_p50", 0.0
        )
        * 1e3,
        "serving.predict.run_s": mean("predict_batch_run_seconds"),
        "serving.select.queue_wait_p50_ms": after.get(
            "repro_select_queue_wait_seconds_p50", 0.0
        )
        * 1e3,
        "serving.select.run_s": mean("select_batch_run_seconds"),
        "serving.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.cache.lookups": hits + misses,
        "serving.handle_p50_ms": handle_ms,
        "serving.wire_p50_ms": client_rtt_p50_ms - handle_ms,
        "serving.rejected": delta("repro_predict_rejected_total")
        + delta("repro_select_rejected_total"),
        "serving.errors_5xx": delta("repro_http_errors_total"),
    }

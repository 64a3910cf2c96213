"""The resilient execution engine for the CV grid search.

The engine turns the paper's per-observation decomposition into a fault
boundary: ``CV_lc`` over a bandwidth grid is the row-order fold of
per-observation k-vectors, divided by n, so the engine runs the sweep
*block by block* and places the full resilience stack around every block:

1. **retry** — transient faults (worker crash, timeout, kernel-launch
   failure, corrupt result) recompute the block under the
   :class:`~repro.resilience.policy.RetryPolicy`, rebuilding a crashed
   pool transparently;
2. **checkpoint** — completed blocks stream to a
   :class:`~repro.resilience.checkpoint.SweepCheckpoint`, so a killed run
   resumes without recomputing them;
3. **degrade** — structural faults (device OOM, constant-memory
   exhaustion) walk the :func:`~repro.resilience.degrade.fallback_chain`
   to the next backend;
4. **verify** — every block's rows pass a finiteness check, so NaN/Inf
   corruption is recomputed instead of poisoning the whole CV curve.

Blocks run on the backend's own block executor
(:func:`repro.core.backends.get_block_executor`), and the checkpoint
folds what they return in global row order.  So a resilient host curve
(``numpy``, ``blocked``, ``multicore``, ``blocked-shm``) *is* the plain
backend's curve, bit for bit, at any block size, budget or worker count,
through faults, resumes and host degradations.  A ``gpusim-tiled`` block
is one simulated launch's 1×k float32-arithmetic sum, so only the gpusim
family changes bits when it degrades.  Backends without an executor
(``gpusim``, ``python``, ``distributed``, dense kernels) run as one
atomic call under retry/degrade, with no resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.exceptions import (
    DataCorruptionError,
    ValidationError,
    error_code,
)
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool
from repro.utils.validation import check_paired_samples, ensure_bandwidths
from repro.resilience import faults
from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.resilience.degrade import (
    ResilienceReport,
    fallback_chain,
    is_degradable,
    is_retryable,
)
from repro.resilience.policy import (
    RetryBudgetExceeded,
    RetryPolicy,
    run_with_retry,
)

if TYPE_CHECKING:
    from repro.core.blockwise import BlockExecutor

__all__ = [
    "ResilienceConfig",
    "ResilientEngine",
    "default_block_rows",
    "resilient_cv_scores",
]

#: Codes after which a pool must be reforked before retrying.
_POOL_FATAL_CODES = frozenset({"REPRO_WORKER_CRASH", "REPRO_BLOCK_TIMEOUT"})


def default_block_rows(n: int) -> int:
    """Deterministic checkpoint granularity: ≤16 blocks, ≥64 rows each.

    A function of ``n`` alone — NOT of the worker count or machine — so a
    checkpoint written on one host resumes on any other.
    """
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    return max(64, -(-n // 16))


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning for one resilient selection.

    Parameters
    ----------
    policy:
        Retry/backoff/deadline policy (see :class:`RetryPolicy`).
    fallback:
        Walk the backend degradation chain on structural faults; when
        False the requested backend is the only one tried.
    checkpoint:
        Path for the resumable sweep checkpoint (``None`` = in-memory
        only).  The same path works for writing and resuming.
    keep_checkpoint:
        Keep the checkpoint file after a successful sweep (default:
        deleted, so stale sums can never leak into a later run).
    block_rows:
        Row-block size (default :func:`default_block_rows`).
    flush_every:
        Checkpoint write frequency, in completed blocks.
    sleep:
        Injectable sleeper for the backoff (tests pass a no-op).
    """

    policy: RetryPolicy = RetryPolicy()
    fallback: bool = True
    checkpoint: str | Path | None = None
    keep_checkpoint: bool = False
    block_rows: int | None = None
    flush_every: int = 1
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.block_rows is not None and self.block_rows <= 0:
            raise ValidationError(
                f"block_rows must be positive, got {self.block_rows}"
            )

    @classmethod
    def coerce(
        cls,
        value: "ResilienceConfig | bool | None",
        *,
        resume: str | Path | None = None,
    ) -> "ResilienceConfig | None":
        """Normalise the public ``resilience=`` argument.

        ``True`` means defaults; ``None``/``False`` means disabled —
        unless ``resume`` is given, which enables resilience on its own.
        """
        if isinstance(value, cls):
            cfg: ResilienceConfig | None = value
        elif value is True:
            cfg = cls()
        elif value is None or value is False:
            cfg = None
        else:
            raise ValidationError(
                f"resilience must be a ResilienceConfig, True, or None; "
                f"got {value!r}"
            )
        if resume is not None:
            cfg = replace(cfg if cfg is not None else cls(), checkpoint=resume)
        return cfg


class ResilientEngine:
    """Drives one (or more) grid sweeps under the resilience stack.

    One engine accumulates one :class:`ResilienceReport` across every
    sweep it runs — a selector with refinement rounds reuses the engine so
    the report covers the whole selection.
    """

    def __init__(self, config: ResilienceConfig | None = None):
        self.config = config if config is not None else ResilienceConfig()
        self.report = ResilienceReport()
        self._jitter_rng = self.config.policy.jitter_rng()

    # -- public ------------------------------------------------------------

    def cv_scores(
        self,
        x: np.ndarray,
        y: np.ndarray,
        bandwidths: np.ndarray,
        kernel: str | Kernel,
        *,
        backend: str = "numpy",
        backend_options: dict[str, Any] | None = None,
        checkpoint_enabled: bool = True,
    ) -> np.ndarray:
        """CV scores for the grid, surviving whatever faults it can.

        Walks the fallback chain from ``backend``; within each candidate,
        block faults are retried per the policy.  Raises only when every
        eligible backend failed structurally or a fault was not absorbable
        (validation errors, retry budget exhausted on the terminal
        backend).
        """
        kern = get_kernel(kernel)
        x, y = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        options = dict(backend_options or {})
        if not self.report.backend_requested:
            self.report.backend_requested = backend
        chain = fallback_chain(backend) if self.config.fallback else (backend,)
        tracer = current_tracer()

        with tracer.span(
            "resilient-sweep",
            backend=backend,
            fallback=self.config.fallback,
            chain=len(chain),
        ):
            last_exc: BaseException | None = None
            for position, candidate in enumerate(chain):
                try:
                    with tracer.span(
                        "candidate", backend=candidate, position=position
                    ):
                        scores = self._run_candidate(
                            candidate,
                            x,
                            y,
                            grid,
                            kern,
                            options,
                            checkpoint_enabled=checkpoint_enabled,
                            degraded=position > 0,
                        )
                except Exception as exc:
                    self.report.record_attempt(
                        candidate, error_code(exc) or type(exc).__name__
                    )
                    self.report.record_fault(f"backend:{candidate}", exc)
                    if is_degradable(exc) and position < len(chain) - 1:
                        tracer.counter("resilience.degraded")
                        last_exc = exc
                        continue
                    raise
                self.report.record_attempt(candidate, "ok")
                self.report.backend_used = candidate
                return scores
        raise last_exc if last_exc is not None else AssertionError("empty chain")

    # -- candidate dispatch ------------------------------------------------

    def _run_candidate(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        *,
        checkpoint_enabled: bool,
        degraded: bool,
    ) -> np.ndarray:
        from repro.core.backends import get_backend, get_block_executor

        executor = get_block_executor(candidate)
        if executor is not None and kern.supports_fast_grid:
            return self._block_sweep(
                candidate,
                executor(x, y, grid, kern, **options),
                checkpoint_enabled=checkpoint_enabled,
                degraded=degraded,
            )
        backend_fn = get_backend(candidate)

        def attempt() -> np.ndarray:
            raw = np.asarray(
                backend_fn(x, y, grid, kern, **options), dtype=np.float64
            )
            checked = faults.corrupt("data.block", raw, f"{candidate}:scores")
            if not np.all(np.isfinite(checked)):
                raise DataCorruptionError(
                    f"non-finite CV scores from backend {candidate!r}"
                )
            return checked

        def on_retry(exc: BaseException, attempt_no: int) -> None:
            self.report.record_fault(f"{candidate}:whole-call", exc)
            self.report.retries += 1

        return run_with_retry(
            attempt,
            policy=self.config.policy,
            retryable=is_retryable,
            on_retry=on_retry,
            sleep=self._sleep,
            rng=self._jitter_rng,
            label=f"backend {candidate!r}",
        )

    # -- the block sweep ---------------------------------------------------

    def _block_sweep(
        self,
        candidate: str,
        executor: BlockExecutor,
        *,
        checkpoint_enabled: bool,
        degraded: bool,
    ) -> np.ndarray:
        n, k = len(executor.x), len(executor.grid)
        block_rows = self.config.block_rows
        if block_rows is None:
            # Capped by the backend's memory plan, never coarser than the
            # checkpoint default, so a roomy budget keeps resumability.
            block_rows = default_block_rows(n)
            if executor.plan is not None:
                block_rows = min(block_rows, executor.plan.block_rows)
        blocks = [(s, min(s + block_rows, n)) for s in range(0, n, block_rows)]
        self.report.blocks_total += len(blocks)

        ckpt = SweepCheckpoint.open(
            self.config.checkpoint if checkpoint_enabled else None,
            fingerprint=sweep_fingerprint(
                executor.x, executor.y, executor.grid, executor.kern.name,
                executor.dtype, block_rows,
            ),
            n=n,
            k=k,
            block_rows=block_rows,
            flush_every=self.config.flush_every,
            # A user-pointed checkpoint for *this* configuration must match
            # or fail loudly; once degraded, the old backend's checkpoint
            # is simply a different sweep — restart it.
            on_mismatch="restart" if degraded else "raise",
        )
        if ckpt.path is not None:
            self.report.checkpoint_path = str(ckpt.path)

        executor.open()
        try:
            self._sweep_blocks(candidate, executor, blocks, ckpt)
        except BaseException:
            ckpt.flush()  # persist whatever completed before the failure
            executor.close(abort=True)
            raise
        executor.close()
        ckpt.flush()
        total = ckpt.sums()
        if not self.config.keep_checkpoint:
            ckpt.discard()
        return total / n

    def _sweep_blocks(
        self,
        candidate: str,
        executor: BlockExecutor,
        blocks: list[tuple[int, int]],
        ckpt: SweepCheckpoint,
    ) -> None:
        """Wave-based block loop: submit pending, collect, retry failures."""
        policy = self.config.policy
        tracer = current_tracer()
        pending = [(a, b) for a, b in blocks if not ckpt.has_block(a)]
        resumed = len(blocks) - len(pending)
        if resumed:
            self.report.blocks_resumed += resumed
            tracer.counter(
                "resilience.blocks_resumed", float(self.report.blocks_resumed)
            )

        attempts: dict[int, int] = {start: 0 for start, _ in pending}
        wave_no = 0
        while pending:
            with tracer.span(
                "wave", index=wave_no, backend=candidate, blocks=len(pending)
            ):
                wave = [
                    (start, stop, executor.submit(start, stop))
                    for start, stop in pending
                ]
                failed: list[tuple[int, int]] = []
                needs_rebuild = False
                for start, stop, collect in wave:
                    label = f"{candidate}:rows[{start}:{stop})"
                    try:
                        with tracer.span("block-collect", start=start, stop=stop):
                            rows = collect(policy.block_timeout)
                        rows = faults.corrupt("data.block", rows, label)
                        if not np.all(np.isfinite(rows)):
                            raise DataCorruptionError(
                                f"non-finite partial sums in {label}"
                            )
                    except Exception as exc:
                        if not is_retryable(exc):
                            raise
                        attempts[start] += 1
                        self.report.record_fault(label, exc)
                        self.report.blocks_recomputed += 1
                        if attempts[start] > policy.max_retries:
                            raise RetryBudgetExceeded(
                                f"block {label} failed {attempts[start]} "
                                f"time(s); last error: {exc}"
                            ) from exc
                        needs_rebuild |= error_code(exc) in _POOL_FATAL_CODES
                        failed.append((start, stop))
                    else:
                        ckpt.record_block(start, rows)
                if failed:
                    self.report.retries += len(failed)
                    tracer.counter("resilience.retries", float(len(failed)))
                    if needs_rebuild and executor.rebuild():
                        self.report.pool_rebuilds += 1
                        tracer.counter("resilience.pool_rebuilds")
                    round_no = max(attempts[start] for start, _ in failed)
                    pause = policy.delay(round_no, self._jitter_rng)
                    if pause > 0.0:
                        self._sleep(pause)
                pending = failed
            wave_no += 1

    # -- plumbing ----------------------------------------------------------

    def _sleep(self, seconds: float) -> None:
        self.report.sleeps.append(float(seconds))
        sleeper = self.config.sleep if self.config.sleep is not None else time.sleep
        sleeper(seconds)


def resilient_cv_scores(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    backend: str = "numpy",
    config: ResilienceConfig | None = None,
    backend_options: dict[str, Any] | None = None,
) -> tuple[np.ndarray, ResilienceReport]:
    """One-shot resilient sweep; returns ``(scores, report)``."""
    engine = ResilientEngine(config)
    scores = engine.cv_scores(
        x, y, bandwidths, kernel, backend=backend, backend_options=backend_options
    )
    return scores, engine.report


def resilient_parallel_sum(
    pool: WorkerPool,
    func: Callable[..., Any],
    total: int,
    *,
    shared_args: tuple = (),
    policy: RetryPolicy,
    report: ResilienceReport,
    sleep: Callable[[float], None] | None = None,
    rng: np.random.Generator | None = None,
) -> Any:
    """:func:`WorkerPool.sum_over_blocks` under retry + pool rebuild.

    The numerical optimiser's objective calls this instead of the bare
    pool method, so a crashed or hung worker costs one retry rather than
    the whole optimisation.
    """

    def attempt() -> Any:
        return pool.sum_over_blocks(func, total, shared_args=shared_args)

    def on_retry(exc: BaseException, attempt_no: int) -> None:
        report.record_fault("objective", exc)
        report.retries += 1
        if error_code(exc) in _POOL_FATAL_CODES:
            pool.rebuild()
            report.pool_rebuilds += 1

    return run_with_retry(
        attempt,
        policy=policy,
        retryable=is_retryable,
        on_retry=on_retry,
        sleep=sleep,
        rng=rng,
        label="parallel objective evaluation",
    )

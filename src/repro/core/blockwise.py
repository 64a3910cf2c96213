"""Blockwise out-of-core CV sweep: past the paper's n = 20,000 wall.

The paper's CUDA program stores two n×n float32 matrices in device
memory and therefore "cannot exceed n = 20,000" on its 4 GB Tesla.  The
same wall exists on the host: the vectorised fast grid search
materialises an m×n distance slab per chunk, and an unplanned chunk size
at n = 100,000 is a multi-gigabyte allocation.  This module makes the
memory ceiling an explicit *budget* instead of an accident:

1. a :func:`~repro.utils.membudget.plan_blocks` plan picks the row-block
   size B so that one block's sorted-sweep working set — distances,
   bin indices, per-term prefix sums — fits the byte budget
   (O(n·B + n·k) peak, never O(n²));
2. the sweep walks the blocks in index order, folding each block's
   per-observation contribution rows into the running k-vector with the
   canonical strict fold (:func:`~repro.utils.numeric.fold_rows`), so
   the CV curve is **bit-for-bit identical** to the ``numpy`` backend at
   *any* block size;
3. the shared-memory variant fans the blocks out over a
   :class:`~repro.parallel.WorkerPool` whose workers attach X, Y, the
   grid and the n×k contribution matrix by segment name
   (:mod:`repro.parallel.shm`) — per-block IPC is a ``(start, stop)``
   pair, and the parent performs the same global fold over the shared
   matrix, preserving the bit-exactness guarantee across worker counts.

Its block executors (:class:`BlockExecutor`) are the one place a
backend's row blocks run: both the plain ``blocked-shm`` sweep and the
resilient engine drive them.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable

import numpy as np

from repro.core.fastgrid import (
    fastgrid_row_contributions,
    require_fast_grid_kernel,
)
from repro.exceptions import BlockTimeoutError
from repro.kernels import Kernel
from repro.obs.tracer import current_span_id, current_tracer
from repro.parallel.pool import WorkerPool, traced_work_unit
from repro.parallel.shm import ShmWorkspace, attach_workspace, current_workspace
from repro.resilience import faults
from repro.utils.membudget import BlockPlan, plan_blocks
from repro.utils.numeric import fold_rows
from repro.core.grid import ensure_bandwidth_grid
from repro.utils.validation import check_paired_samples

__all__ = [
    "BlockExecutor",
    "PoolExecutor",
    "ShmExecutor",
    "cv_scores_blocked",
    "cv_scores_blocked_shm",
    "plan_for",
    "shm_block_rows",
]


def plan_for(
    n: int,
    k: int,
    kernel_name: str,
    *,
    dtype: str = "float64",
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    output_matrix: bool = False,
) -> BlockPlan:
    """The block plan both blocked backends (and the engine) agree on."""
    kern = require_fast_grid_kernel(kernel_name)
    return plan_blocks(
        n,
        k,
        n_terms=len(kern.poly_terms or ()) or 1,
        itemsize=np.dtype(dtype).itemsize,
        budget=memory_budget,
        output_matrix=output_matrix,
        max_rows=block_rows,
    )


def cv_scores_blocked(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Out-of-core CV scores: one budget-sized row block at a time.

    Peak memory is the plan's ``predicted_peak_bytes`` (asserted against
    tracemalloc in the test suite); the result is bit-for-bit the
    ``numpy`` backend's at every block size, including B = 1 and B >= n.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = int(x.shape[0])
    k = int(grid.shape[0])
    tracer = current_tracer()
    total = np.zeros(k, dtype=np.float64)
    with tracer.span("blocked-sweep", n=n, k=k, kernel=kern.name, dtype=dtype):
        with tracer.span("plan") as pspan:
            plan = plan_for(
                n,
                k,
                kern.name,
                dtype=dtype,
                memory_budget=memory_budget,
                block_rows=block_rows,
            )
            pspan.set(**plan.to_dict())
        for index, (bstart, bstop) in enumerate(plan.blocks()):
            with tracer.span(
                "block-sweep", index=index, start=bstart, stop=bstop
            ):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, bstart, bstop, dtype
                )
                with tracer.span("reduce", rows=bstop - bstart):
                    fold_rows(contrib, total)
    return total / n


# -- shared-memory workers (top-level, hence picklable) ----------------------


def shm_block_rows(
    kernel_name: str,
    start: int,
    stop: int,
    dtype: str = "float64",
) -> tuple[int, int]:
    """Fill rows ``[start, stop)`` of the workspace's ``out`` matrix.

    The blocked-shm work unit: inputs come from the attached workspace
    (zero-copy), the contribution rows land in the shared n×k matrix,
    and only the row range crosses the pipe.
    """
    workspace = current_workspace()
    contrib = fastgrid_row_contributions(
        workspace["x"], workspace["y"], workspace["grid"],
        kernel_name, start, stop, dtype,
    )
    workspace["out"][start:stop, :] = contrib
    return start, stop


# -- block executors ---------------------------------------------------------


class BlockExecutor:
    """Runs the row blocks of one fast-grid sweep on one backend.

    A block-capable backend registers its executor class, built as
    ``cls(x, y, grid, kern, **backend_options)``.  The owner of the row
    loop :meth:`open`-s it, :meth:`submit`-s blocks, folds the rows their
    collectors return (``collect(timeout)``) in global row order, and
    :meth:`close`-s it (``abort=True`` on an error path).  ``plan`` is
    the memory plan that caps the block size (``None``: uncapped).

    This class is the ``numpy`` and ``blocked`` executor: in process,
    each block's :func:`fastgrid_row_contributions` computed when it is
    collected.
    """

    #: Whether the plan budgets the n×k output matrix.
    output_matrix = False

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        *,
        dtype: str = "float64",
        **options: Any,
    ):
        self.x, self.y, self.grid, self.kern = x, y, grid, kern
        self.dtype = dtype
        self.plan: BlockPlan | None = plan_for(
            len(x), len(grid), kern.name, dtype=dtype,
            memory_budget=options.get("memory_budget"),
            block_rows=options.get("block_rows"),
            output_matrix=self.output_matrix,
        )

    def open(self) -> None:
        """Acquire the backend's resources."""

    def submit(self, start: int, stop: int) -> Callable[..., np.ndarray]:
        """Start rows ``[start, stop)``; returns the block's collector."""
        return lambda timeout=None: fastgrid_row_contributions(
            self.x, self.y, self.grid, self.kern.name, start, stop, self.dtype
        )

    def rebuild(self) -> bool:
        """Replace crashed workers; False when there are none."""
        return False

    def close(self, *, abort: bool = False) -> None:
        """Release the resources; ``abort`` abandons in-flight blocks."""


class PoolExecutor(BlockExecutor):
    """The ``multicore`` executor: blocks run on a :class:`WorkerPool`.

    A caller's ``pool`` is used and rebuilt but never retired; otherwise
    the executor owns one of ``workers`` processes.
    """

    def __init__(
        self,
        *args: Any,
        workers: int | None = None,
        pool: WorkerPool | None = None,
        **options: Any,
    ):
        super().__init__(*args, **options)
        self.workers = workers
        self.pool = pool
        self.owns_pool = pool is None

    def open(self) -> None:
        if self.owns_pool:
            self.pool = WorkerPool(self.workers)

    def submit(self, start: int, stop: int) -> Callable[..., np.ndarray]:
        args = (self.x, self.y, self.grid, self.kern.name, start, stop, self.dtype)
        return self._submit(fastgrid_row_contributions, args, start, stop)

    def _submit(
        self,
        func: Callable[..., Any],
        args: tuple,
        start: int,
        stop: int,
        fault_kind: str | None = None,
    ) -> Callable[..., Any]:
        """Submit one unit now (a wave runs in parallel); its collector
        grafts a traced worker's spans under the span open at collection."""
        assert self.pool is not None
        traced = current_tracer().enabled
        unit, unit_args = func, args
        if traced:
            unit, unit_args = traced_work_unit, (func,) + args
        if fault_kind is not None:
            unit, unit_args = faults.faulty_call, (fault_kind, unit) + unit_args
        future = self.pool.apply_async(unit, unit_args)

        def collect(timeout: float | None = None) -> Any:
            try:
                value = future.get(timeout)
            except multiprocessing.TimeoutError:
                raise BlockTimeoutError(
                    f"rows[{start}:{stop}) missed its {timeout}s deadline"
                ) from None
            if traced:
                value, spans, counters, maxima = value
                tracer = current_tracer()
                if tracer.enabled:
                    tracer.adopt(spans, parent_id=current_span_id())
                    tracer.merge_counters(counters, maxima)
            return value

        return collect

    def rebuild(self) -> bool:
        assert self.pool is not None
        self.pool.rebuild()
        return True

    def close(self, *, abort: bool = False) -> None:
        if self.owns_pool and self.pool is not None:
            if abort:
                self.pool.terminate()
            else:
                self.pool.close()


class ShmExecutor(PoolExecutor):
    """The ``blocked-shm`` executor: a shared-memory workspace and its pool.

    Workers attach X, Y, the grid and the n×k contribution matrix by
    segment name, and a collector returns its block's rows as a view of
    that matrix, valid until :meth:`close`.  The pool's initializer
    carries the manifest, so a rebuild re-attaches the same segments.
    """

    output_matrix = True

    def open(self) -> None:
        n, k = len(self.x), len(self.grid)
        # A purged segment surfaces here as a structural REPRO_SHM_SEGMENT.
        faults.fire("shm.segment", f"workspace[n={n},k={k}]")
        self.workspace = ShmWorkspace.create(
            inputs={"x": self.x, "y": self.y, "grid": self.grid},
            outputs={"out": ((n, k), "float64")},
        )
        self.owns_pool = True
        try:
            self.pool = WorkerPool(
                self.workers,
                initializer=attach_workspace,
                initargs=(self.workspace.manifest(),),
            )
        except BaseException:
            self.workspace.close()
            raise

    def submit(self, start: int, stop: int) -> Callable[..., np.ndarray]:
        # Parent-drawn worker-death directive: the injected crash/timeout
        # is raised inside the child, like a real dead worker's.
        kind = faults.draw("shm.worker", f"rows[{start}:{stop})")
        args = (self.kern.name, start, stop, self.dtype)
        collect = self._submit(shm_block_rows, args, start, stop, kind)

        def rows(timeout: float | None = None) -> np.ndarray:
            collect(timeout)
            return self.workspace["out"][start:stop]

        return rows

    def close(self, *, abort: bool = False) -> None:
        try:
            super().close(abort=abort)
        finally:
            self.workspace.close()


def cv_scores_blocked_shm(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Blockwise sweep fanned over a shared-memory worker pool.

    Runs the blocks on a :class:`ShmExecutor`, whose workers fill the
    shared n×k contribution matrix; the parent folds it in global row
    order, so the scores are bit-for-bit :func:`cv_scores_blocked`'s —
    and hence the ``numpy`` backend's — for any block size *and* any
    worker count.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = int(x.shape[0])
    k = int(grid.shape[0])
    tracer = current_tracer()
    with tracer.span("blocked-shm-sweep", n=n, k=k, kernel=kern.name, dtype=dtype):
        with tracer.span("plan") as pspan:
            executor = ShmExecutor(
                x, y, grid, kern, memory_budget=memory_budget,
                block_rows=block_rows, workers=workers, dtype=dtype,
            )
            assert executor.plan is not None
            pspan.set(**executor.plan.to_dict())
        blocks = executor.plan.blocks()
        executor.open()
        try:
            assert executor.pool is not None
            with tracer.span(
                "block-sweep", blocks=len(blocks), workers=executor.pool.workers
            ):
                for collect in [executor.submit(*block) for block in blocks]:
                    collect()
            with tracer.span("reduce", rows=n):
                total = fold_rows(executor.workspace["out"])
        except BaseException:
            executor.close(abort=True)
            raise
        executor.close()
    return total / n

"""The paper's primary contribution: the fast sorted grid search.

Standard grid search evaluates ``CV_lc(h)`` independently for each of the
``k`` grid bandwidths — O(k·n²).  Paper §III observes that for compactly
supported polynomial kernels, the per-observation summations *nest*: every
pair (i, l) inside the window of bandwidth ``h₁`` is also inside the window
of every ``h₂ > h₁``, and the kernel weight decomposes into terms
``c_p · d^p / h^p`` whose distance part ``d^p`` does not depend on ``h``.
So, per observation i:

1. sort the distances ``d = |X_i − X_l|``  (O(n log n)),
2. sweep the sorted array once, rolling the running sums
   ``Σ d^p`` and ``Σ Y_l·d^p`` forward from each grid bandwidth to the
   next (O(n + k)),
3. recombine per bandwidth: ``ĝ₋ᵢ = (Σ_p c_p·T_p/h^p) / (Σ_p c_p·S_p/h^p)``.

Total: O(n² log n) for the whole grid instead of O(k·n²).

Two interchangeable implementations live here:

* :func:`cv_scores_fastgrid_python` — the paper's per-thread algorithm,
  written literally (per-observation sort + pointer sweep).  It is what
  each simulated GPU thread executes in :mod:`repro.cuda_port`, and the
  testing ground truth for the vectorised path.
* :func:`cv_scores_fastgrid` — a vectorised formulation of the *same
  summations*: instead of walking each sorted row with a pointer, each
  distance is binned against the (already sorted) bandwidth grid with
  ``searchsorted`` and the per-power window sums are built with weighted
  ``bincount`` + ``cumsum`` over bins.  Algebraically identical output —
  the property tests assert agreement with the dense path for every
  polynomial kernel — but it replaces the per-row python loop with
  whole-chunk array ops (the "vectorise the inner loop" guide idiom).

That binned window sum, :func:`window_sums`, takes caller-supplied
per-pair weights, so the multivariate sweep
(:mod:`repro.multivariate.fastgrid`) and KDE LSCV (:mod:`repro.kde.lscv`)
run on it too and keep only their own leave-one-out corrections.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.grid import ensure_bandwidth_grid
from repro.exceptions import ValidationError
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.membudget import plan_blocks
from repro.utils.numeric import fold_rows, int_power
from repro.utils.validation import check_paired_samples, ensure_bandwidths

if TYPE_CHECKING:
    from repro.kde.convolution import ConvolutionKernel

__all__ = [
    "cv_scores_fastgrid",
    "cv_scores_fastgrid_python",
    "fastgrid_block_sums",
    "fastgrid_row_contributions",
    "require_fast_grid_kernel",
    "window_sums",
]


def require_fast_grid_kernel(kernel: str | Kernel) -> Kernel:
    """Resolve ``kernel`` and check it is eligible for the fast grid search.

    Eligibility = compact support **and** a polynomial weight (paper
    footnote 1: Epanechnikov, Uniform, Triangular — plus the other
    polynomial kernels in :mod:`repro.kernels.polynomial`).
    """
    kern = get_kernel(kernel)
    if not kern.supports_fast_grid:
        raise ValidationError(
            f"kernel {kern.name!r} does not support the sorted fast grid "
            "search (needs compact support and a polynomial weight); use "
            "the dense grid path instead"
        )
    return kern


def cv_scores_fastgrid_python(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
) -> np.ndarray:
    """Paper-literal fast grid search (per-observation sort + sweep).

    This mirrors the CUDA main kernel of §IV-B one-to-one — including
    keeping observation i itself in the sorted array and excluding it only
    when the final sums are combined (its distance is 0, so it affects
    exactly the power-0 running sums at every bandwidth).

    Pure python loops: use for testing and as the simulated-GPU thread
    body; for production sizes call :func:`cv_scores_fastgrid`.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidths(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    terms = kern.poly_terms
    radius = kern.support_radius
    n = x.shape[0]
    k = grid.shape[0]
    sq_sums = np.zeros(k, dtype=float)

    with current_tracer().span("fastgrid-python", n=n, k=k, kernel=kern.name):
        for i in range(n):
            dist = np.abs(x[i] - x)
            order = np.argsort(dist, kind="stable")
            d_sorted = dist[order]
            y_sorted = y[order]

            # Running window sums per polynomial power, swept once over the
            # sorted distances while the bandwidth pointer advances.
            sum_d = {t.power: 0.0 for t in terms}
            sum_yd = {t.power: 0.0 for t in terms}
            ptr = 0
            for j in range(k):
                cutoff = radius * grid[j]
                while ptr < n and d_sorted[ptr] <= cutoff:
                    d = float(d_sorted[ptr])
                    yv = float(y_sorted[ptr])
                    for t in terms:
                        dp = d**t.power if t.power else 1.0
                        sum_d[t.power] += dp
                        sum_yd[t.power] += yv * dp
                    ptr += 1
                # Combine: exclude self (d = 0 contributes only to power 0).
                num = 0.0
                den = 0.0
                h = float(grid[j])
                for t in terms:
                    hp = h**t.power if t.power else 1.0
                    s_d = sum_d[t.power] - (1.0 if t.power == 0 else 0.0)
                    s_yd = sum_yd[t.power] - (
                        float(y[i]) if t.power == 0 else 0.0
                    )
                    num += t.coefficient * s_yd / hp
                    den += t.coefficient * s_d / hp
                if den > 0.0:
                    resid = float(y[i]) - num / den
                    sq_sums[j] += resid * resid
    return sq_sums / n


def window_sums(
    x_rows: np.ndarray,
    x: np.ndarray,
    weights: Sequence[np.ndarray | None],
    grid: np.ndarray,
    kern: Kernel | ConvolutionKernel,
    dtype: str | np.dtype = "float64",
) -> list[np.ndarray]:
    """Binned window sums of per-pair weights at every grid bandwidth.

    For each evaluation point ``x_rows[i]``, each weight ``w`` in
    ``weights`` and each grid bandwidth ``h_j``, returns

        Σ_{l: |x_rows[i] − x_l| <= R·h_j} w_il · Σ_p c_p · d_il^p / h_j^p

    as one ``(m, k)`` float64 array per weight, where ``c_p``, ``p`` and
    ``R`` are ``kern``'s polynomial terms and support radius.  A weight is
    an ``(m, n)`` array (``np.broadcast_to`` a per-column vector) or
    ``None`` for the unit weight.  The pair ``(i, i)`` is not excluded:
    leave-one-out corrections are the caller's.

    This is the one implementation of the paper's sorted sweep (§III) on
    the vectorised paths: the regression sweep passes ``(None, y)``, the
    multivariate sweep ``(W, W·y)`` and KDE LSCV ``(None,)``.  Each
    pairwise distance is assigned, via one ``searchsorted`` against the
    sorted grid, the index of the *first* bandwidth whose window contains
    it; per-power weighted histograms over those indices, cumulated along
    the grid axis, are exactly the sorted sweep's running sums.
    ``dtype`` is the precision of the distances (``float32`` mirrors the
    paper's GPU arithmetic); sums accumulate in float64.
    """
    m = x_rows.shape[0]
    n = x.shape[0]
    k = grid.shape[0]
    tracer = current_tracer()
    # "sort" phase: binning each distance against the sorted grid is the
    # vectorised counterpart of the paper's per-observation sort.
    with tracer.span("sort", rows=m):
        dist = np.abs(x_rows[:, None] - x[None, :]).astype(dtype, copy=False)
        # First grid index whose window d <= radius*h contains this
        # distance; k means "outside every window".
        first_j = np.searchsorted(
            grid * kern.support_radius, dist.ravel(), side="left"
        )
        row_offsets = np.repeat(np.arange(m, dtype=np.int64) * (k + 1), n)
        flat_bins = row_offsets + np.minimum(first_j, k)

    sums = [np.zeros((m, k), dtype=np.float64) for _ in weights]
    h_cols = grid[None, :]
    # "sweep" phase: per-power weighted histograms + cumsum along the grid
    # axis are exactly the sorted sweep's running sums.
    with tracer.span("sweep", rows=m, terms=len(kern.poly_terms)):
        for term in kern.poly_terms:
            # int_power, not dist**p: see utils.numeric.int_power.
            d_pow = int_power(dist, term.power) if term.power else None
            scale = term.coefficient / (
                int_power(h_cols, term.power) if term.power else 1.0
            )
            for weight, total in zip(weights, sums):
                if d_pow is not None:
                    weight = d_pow if weight is None else weight * d_pow
                hist = np.bincount(
                    flat_bins,
                    weights=None if weight is None else weight.ravel(),
                    minlength=m * (k + 1),
                ).reshape(m, k + 1)[:, :k]
                total += scale * np.cumsum(hist, axis=1)
    return sums


def fastgrid_row_contributions(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    start: int,
    stop: int,
    dtype: str = "float64",
) -> np.ndarray:
    """Per-observation squared-residual k-vectors for rows ``[start, stop)``.

    Returns a float64 ``(stop - start, k)`` matrix whose row ``i`` is
    observation ``start + i``'s contribution to ``n · CV_lc(h)`` at every
    grid bandwidth.  Each row depends only on its own observation and the
    *whole* sample — never on which other rows share the block — so the
    matrix is **partition-invariant**: any batching of ``range(n)``
    produces the identical bits row by row.  Folding the rows in global
    index order (:func:`repro.utils.numeric.fold_rows`) therefore yields
    a CV curve that is bit-for-bit independent of block size, chunk size,
    and worker count — the invariant the blockwise/shared-memory backends
    are tested against.

    This is the unit of work for the out-of-core blockwise engine: the
    block's working set is O(B·n + B·k) while the full sweep never
    materialises anything n×n.
    """
    kern = require_fast_grid_kernel(kernel_name)
    grid = np.asarray(bandwidths, dtype=float)
    np_dtype = np.dtype(dtype)
    x = np.asarray(x)
    y = np.asarray(y)
    if not 0 <= start < stop <= x.shape[0]:
        raise ValidationError(
            f"invalid row block [{start}, {stop}) for n={x.shape[0]}"
        )
    x_block = x[start:stop]
    y_block = y[start:stop]
    tracer = current_tracer()
    with tracer.span("block", start=start, stop=stop):
        # The kernel-weighted denominator and numerator of the (not yet
        # leave-one-out-corrected) Nadaraya–Watson estimator.
        y_cols = np.broadcast_to(y, (stop - start, y.shape[0]))
        den, num = window_sums(x_block, x, (None, y_cols), grid, kern, np_dtype)

        # Leave-one-out correction: observation i appears in its own window
        # at every bandwidth with distance 0, touching only the power-0 term.
        with tracer.span("reduction", rows=stop - start):
            zero_terms = [t for t in kern.poly_terms if t.power == 0]
            if zero_terms:
                c0 = sum(t.coefficient for t in zero_terms)
                num -= c0 * y_block[:, None]
                den -= c0

            valid = den > 0.0
            if tracer.enabled:
                tracer.counter(
                    "numeric.empty_windows",
                    float(num.size - int(np.count_nonzero(valid))),
                )
            g_loo = np.where(valid, num / np.where(valid, den, 1.0), 0.0)
            resid = np.where(valid, y_block[:, None] - g_loo, 0.0)
            out: np.ndarray = resid * resid
    return out


def fastgrid_block_sums(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    start: int,
    stop: int,
    dtype: str = "float64",
) -> np.ndarray:
    """Squared-residual sums over observations ``[start, stop)``.

    The strict row-order fold of :func:`fastgrid_row_contributions`, with
    the rows streamed through host memory in chunks sized by the
    byte-budget planner (:func:`~repro.utils.membudget.plan_blocks`), so
    a range of thousands of rows — a simulated device launch — never
    materialises all of its temporaries at once.  The fold carried across
    chunks gives the bits of one fold over the whole range; bit-exactness
    across *different* partitions needs the rows folded globally.
    """
    kern = require_fast_grid_kernel(kernel_name)
    if not 0 <= start < stop <= len(x):
        raise ValidationError(f"invalid row block [{start}, {stop}) for n={len(x)}")
    rows = plan_blocks(
        len(x), len(bandwidths), n_terms=len(kern.poly_terms),
        itemsize=np.dtype(dtype).itemsize,
    ).block_rows
    total = np.zeros(len(bandwidths), dtype=np.float64)
    for lo in range(start, stop, rows):
        fold_rows(
            fastgrid_row_contributions(
                x, y, bandwidths, kern.name, lo, min(lo + rows, stop), dtype
            ),
            total,
        )
    return total


def cv_scores_fastgrid(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Vectorised fast grid search over a whole bandwidth grid.

    Computes ``CV_lc(h)`` for every ``h`` in ``bandwidths`` in
    O(n² log k + n·k) — the vectorised counterpart of the paper's
    O(n² log n) sorted sweep (the grid, already sorted, plays the role of
    the sorted distance array).  Memory is bounded by processing row
    chunks; pass ``dtype="float32"`` to mirror the paper's
    single-precision GPU arithmetic.

    Accumulation is the canonical strict row-order fold carried across
    chunk boundaries, so the returned curve is bit-for-bit independent of
    ``chunk_rows`` — and bit-identical to the ``blocked``/``blocked-shm``
    out-of-core backends at any block size.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = x.shape[0]
    rows = chunk_rows or suggest_chunk_rows(
        n, working_arrays=4 + len(kern.poly_terms)
    )
    tracer = current_tracer()
    sq_sums = np.zeros(grid.shape[0], dtype=np.float64)
    with tracer.span(
        "fastgrid", n=n, k=grid.shape[0], kernel=kern.name, dtype=dtype,
        chunk_rows=rows,
    ):
        if not tracer.enabled:
            for sl in chunk_slices(n, rows):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, sl.start, sl.stop, dtype
                )
                fold_rows(contrib, sq_sums)
        else:
            # Traced path: the identical fold (``a = a + row`` is the
            # in-place add, bit for bit) plus a Neumaier compensation term
            # that *measures* per-row summation drift without touching
            # the returned values (Langrené & Warin motivate tracking it).
            comp = np.zeros_like(sq_sums)
            for sl in chunk_slices(n, rows):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, sl.start, sl.stop, dtype
                )
                for row in contrib:
                    acc = sq_sums + row
                    comp += np.where(
                        np.abs(sq_sums) >= np.abs(row),
                        (sq_sums - acc) + row,
                        (row - acc) + sq_sums,
                    )
                    sq_sums = acc
            tracer.record_max(
                "numeric.kahan_compensation", float(np.max(np.abs(comp)))
            )
    return sq_sums / n

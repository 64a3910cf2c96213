"""Independent reference for the LOO-CV curve, and the correctness gate.

The program bins every pairwise distance against the bandwidth grid and
cumulates weighted histograms (``repro.core.fastgrid``).  This module
computes the same ``CV_lc(h)`` another way, sharing no code with it:

* the kernels are written out here as ``c * (1 - |u|**a)**b`` and
  expanded binomially into powers of ``|u|``;
* ``x`` is sorted once, so every leave-one-out window
  ``{l : |x_l - x_i| <= h}`` is a contiguous index range.  Its ends come
  from ``searchsorted`` and are then corrected against the exact
  floating-point predicate ``abs(x_l - x_i) <= h`` the paper uses, which
  matters for tied and offset ``x``;
* window sums are running sums that start at ``i`` and walk outwards, so
  each partial sum holds only elements inside the window (no
  cancellation against elements outside it).

It is O(n^2) like the program, but needs no per-row sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

#: Relative tolerance on every point of the CV curve, on top of the
#: rounding slack ``cv_curves`` reports.  The reference sums in another
#: order than the program, so the curves agree to rounding (measured worst
#: case about 1e-14 relative at n = 4,000 over all six kernels, both grids
#: and the offset and tied inputs); 1e-9 leaves orders of margin and still
#: catches a change to a single window's contents.
CURVE_RTOL = 1e-9

#: ``(c, a, b)`` with ``K(u) = c * (1 - |u|**a)**b`` on ``|u| <= 1``.
KERNELS: dict[str, tuple[float, int, int]] = {
    "uniform": (0.5, 1, 0),
    "epanechnikov": (0.75, 2, 1),
    "triangular": (1.0, 1, 1),
    "biweight": (15.0 / 16.0, 2, 2),
    "triweight": (35.0 / 32.0, 2, 3),
    "tricube": (70.0 / 81.0, 3, 3),
}


def kernel_terms(kernel: str) -> list[tuple[float, int]]:
    """``[(coefficient, power), ...]`` of the kernel as a polynomial in |u|."""
    c, a, b = KERNELS[kernel]
    return [(c * comb(b, j) * (-1.0) ** j, a * j) for j in range(b + 1)]


def _power(base: np.ndarray, q: int) -> np.ndarray:
    out = np.ones_like(base)
    for _ in range(q):
        out = out * base
    return out


def _right_ends(xs: np.ndarray, rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Last index ``l >= i`` with ``xs[l] - xs[i] <= cut`` (``i`` if none)."""
    n = xs.shape[0]
    xi = xs[rows][:, None]
    lo = rows[:, None]
    end = np.searchsorted(xs, xi + cut, side="right") - 1
    end = np.clip(end, lo, n - 1)
    while True:
        nxt = np.minimum(end + 1, n - 1)
        grow = (end + 1 < n) & (xs[nxt] - xi <= cut)
        shrink = (end > lo) & (xs[end] - xi > cut)
        if not (grow.any() or shrink.any()):
            return end
        # Step over whole groups of equal values: they share one distance.
        end = np.where(grow, np.searchsorted(xs, xs[nxt], side="right") - 1, end)
        end = np.where(
            shrink, np.maximum(lo, np.searchsorted(xs, xs[end], side="left") - 1), end
        )


def _left_ends(xs: np.ndarray, rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """First index ``l <= i`` with ``xs[i] - xs[l] <= cut`` (``i`` if none)."""
    xi = xs[rows][:, None]
    hi = rows[:, None]
    start = np.searchsorted(xs, xi - cut, side="left")
    start = np.clip(start, 0, hi)
    while True:
        prv = np.maximum(start - 1, 0)
        grow = (start > 0) & (xi - xs[prv] <= cut)
        shrink = (start < hi) & (xi - xs[start] > cut)
        if not (grow.any() or shrink.any()):
            return start
        start = np.where(grow, np.searchsorted(xs, xs[prv], side="left"), start)
        start = np.where(
            shrink, np.minimum(hi, np.searchsorted(xs, xs[start], side="right")), start
        )


def _key(grid: np.ndarray) -> bytes:
    return np.asarray(grid, dtype=np.float64).tobytes()


def cv_curves(
    x: np.ndarray,
    y: np.ndarray,
    requests: list[tuple[str, np.ndarray]],
    chunk_rows: int = 128,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``CV_lc(h)`` over each requested ``(kernel, grid)`` for one sample.

    Returns ``(curve, slack)`` per request.  Empty windows contribute 0,
    as in the paper.  ``slack`` bounds, per grid point, how far any
    correct evaluation of the expanded kernel sums may stray by rounding:
    a window whose members all sit near its edge has kernel weights far
    smaller than the terms of their expansion, so its estimate is only
    known to a few digits.  Requests on the same sample share the distance
    powers and window ends, so checking several kernels and grids costs
    little more than checking the largest one.
    """
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=np.float64)[order]
    ys = np.asarray(y, dtype=np.float64)[order]
    n = xs.shape[0]
    grids = {_key(g): np.asarray(g, dtype=np.float64) for _, g in requests}
    terms = [kernel_terms(kernel) for kernel, _ in requests]
    powers = sorted({q for kernel_terms_ in terms for _, q in kernel_terms_})
    totals = [np.zeros(np.asarray(g).shape[0], dtype=np.float64) for _, g in requests]
    slacks = [np.zeros_like(total) for total in totals]
    eps = np.finfo(np.float64).eps
    y_max = float(np.max(np.abs(ys)))
    cols = np.arange(n)
    for a in range(0, n, chunk_rows):
        b = min(a + chunk_rows, n)
        rows = np.arange(a, b)
        take = np.arange(rows.shape[0])[:, None]
        ends = {
            key: (_right_ends(xs, rows, g[None, :]), _left_ends(xs, rows, g[None, :]))
            for key, g in grids.items()
        }
        # Elements right of row i sit in columns [a, n), left of it in
        # [0, b); masking the distances masks every power >= 1 and the
        # mask itself is power 0.  The self term is in neither half.
        after = (cols[None, a:] > rows[:, None]).astype(np.float64)
        before = (cols[None, :b] < rows[:, None]).astype(np.float64)
        d_after = (xs[None, a:] - xs[rows][:, None]) * after
        d_before = (xs[rows][:, None] - xs[None, :b]) * before
        y_after, y_before = ys[None, a:], ys[None, :b]
        p_after, p_before = after, before
        sums: dict[tuple[int, bytes], tuple[np.ndarray, np.ndarray]] = {}
        q_done = 0
        for q in powers:
            for _ in range(q - q_done):
                p_after, p_before = p_after * d_after, p_before * d_before
            q_done = q
            runs = [
                (
                    np.cumsum(v_after, axis=1),
                    np.cumsum(v_before[:, ::-1], axis=1)[:, ::-1],
                )
                for v_after, v_before in (
                    (p_after, p_before),
                    (p_after * y_after, p_before * y_before),
                )
            ]
            for key, (right, left) in ends.items():
                sums[(q, key)] = tuple(
                    run_after[take, right - a] + run_before[take, left]
                    for run_after, run_before in runs
                )
        for (kernel, g), kterms, total, slack in zip(requests, terms, totals, slacks):
            grid = grids[_key(g)]
            num = np.zeros((rows.shape[0], grid.shape[0]), dtype=np.float64)
            den = np.zeros_like(num)
            size = np.zeros_like(num)  # sum of the expansion's term magnitudes
            for coef, q in kterms:
                s_d, s_yd = sums[(q, _key(g))]
                scale = coef / _power(grid, q)[None, :]
                den += scale * s_d
                num += scale * s_yd
                size += np.abs(scale) * s_d
            valid = den > 0.0
            fit = np.where(valid, num / np.where(valid, den, 1.0), 0.0)
            y_rows = ys[rows][:, None]
            resid = np.where(valid, y_rows - fit, 0.0)
            total += (resid * resid).sum(axis=0)
            # Worst-case rounding of running sums of ``count`` positive
            # terms, in either order, relative to the terms' magnitudes.
            count = sums[(0, _key(g))][0]
            err = 4 * (count + 1) * eps * size
            known = np.abs(den) > err  # otherwise validity itself is unsure
            with np.errstate(divide="ignore", invalid="ignore"):
                d_fit = np.where(known, err * (y_max + np.abs(fit)) / np.abs(den), 0.0)
            unsure = np.where(~known & (size > 0.0), (np.abs(y_rows) + y_max) ** 2, 0.0)
            spread = np.where(valid, 2 * np.abs(resid) * d_fit + d_fit**2, 0.0)
            slack += (spread + unsure).sum(axis=0)
    return [(total / n, slack / n) for total, slack in zip(totals, slacks)]


def nw_predict(
    x: np.ndarray,
    y: np.ndarray,
    at: np.ndarray,
    h: float,
    kernel: str,
    chunk: int = 256,
) -> np.ndarray:
    """Nadaraya-Watson estimates at ``at``, NaN where the window is empty.

    Kernel weights are evaluated directly (no expansion).  Points are
    handled in sorted chunks, each against the slice of sorted ``x`` that
    can reach it, so the cost follows the window size rather than ``n``.
    """
    c, a, b = KERNELS[kernel]
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=np.float64)[order]
    ys = np.asarray(y, dtype=np.float64)[order]
    at = np.asarray(at, dtype=np.float64)
    pos = np.argsort(at, kind="stable")
    ats = at[pos]
    out = np.full(at.shape, np.nan, dtype=np.float64)
    # Slightly wider than h: the slice must hold every point with |u| <= 1
    # after rounding, also for x far from 0.
    reach = 1.001 * h + 8 * float(np.spacing(np.max(np.abs(xs))))
    for s in range(0, ats.shape[0], chunk):
        block = ats[s : s + chunk]
        lo = int(np.searchsorted(xs, block[0] - reach, side="left"))
        hi = int(np.searchsorted(xs, block[-1] + reach, side="right"))
        u = np.abs((block[:, None] - xs[None, lo:hi]) / h)
        w = np.where(u <= 1.0, c * (1.0 - u**a) ** b, 0.0)
        den = w.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[pos[s : s + chunk]] = np.where(den > 0.0, (w @ ys[lo:hi]) / den, np.nan)
    return out


def same_estimates(
    got: np.ndarray, expected: np.ndarray, rtol: float = CURVE_RTOL
) -> bool:
    """Equal NaN pattern and every finite estimate within ``rtol``."""
    return bool(
        np.array_equal(np.isnan(got), np.isnan(expected))
        and np.allclose(got, expected, rtol=rtol, atol=0.0, equal_nan=True)
    )


def grid_argmin(scores: np.ndarray) -> int:
    """The paper's argmin over a CV curve, skipping the all-empty prefix."""
    positive = np.flatnonzero(scores > 0.0)
    if positive.size == 0:
        return int(scores.shape[0] - 1)
    first = int(positive[0])
    return first + int(np.argmin(scores[first:]))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    max_rel_err: float


def check_selection(
    bandwidths: np.ndarray,
    scores: np.ndarray,
    bandwidth: float,
    reference_grid: np.ndarray,
    reference: tuple[np.ndarray, np.ndarray],
    rtol: float = CURVE_RTOL,
) -> Verdict:
    """The gate: same grid, every curve point within tolerance, same argmin.

    The tolerance at each point is ``rtol`` relative plus the reference's
    rounding slack.  A different argmin is accepted only as a near tie:
    when the reference values at both indices agree within tolerance.
    """
    curve, slack = reference
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if bandwidths.shape != reference_grid.shape or not np.array_equal(
        bandwidths, reference_grid
    ):
        return Verdict(False, "grid differs from the requested grid", float("inf"))
    if scores.shape != curve.shape or not np.all(np.isfinite(scores)):
        reason = "curve has the wrong shape or non-finite values"
        return Verdict(False, reason, float("inf"))
    tolerance = rtol * np.abs(curve) + slack
    error = np.abs(scores - curve)
    rel = float(np.max(error / np.maximum(np.abs(curve), 1e-300)))
    if np.any(error > tolerance):
        worst = int(np.argmax(error - tolerance))
        return Verdict(
            False,
            f"curve differs by {error[worst]:.3g} (tolerance {tolerance[worst]:.3g}) "
            f"at index {worst}",
            rel,
        )
    j_ref = grid_argmin(curve)
    hits = np.flatnonzero(reference_grid == bandwidth)
    if hits.size == 0:
        return Verdict(False, f"h_opt {bandwidth!r} is not a grid point", rel)
    j = int(hits[0])
    if j != j_ref and abs(curve[j] - curve[j_ref]) > tolerance[j] + tolerance[j_ref]:
        return Verdict(False, f"argmin index {j} != reference {j_ref}", rel)
    return Verdict(True, "ok", rel)

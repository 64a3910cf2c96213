"""Checkpoint/resume for the O(n² log n) grid search.

The CV curve is the strict row-order fold of per-observation rows
(:func:`~repro.utils.numeric.fold_rows`) divided by n, so the resilient
engine folds its row blocks through a :class:`SweepCheckpoint`, which
holds the **folded prefix** — every row before the first block not yet
completed (the *frontier*) — plus the **rows** of the blocks completed
after that gap, folded in turn once it closes.  A fault-free sweep keeps
it O(k); a faulted one never holds more than the sweep's n×k rows.  A
re-run with ``resume=`` replays the finished blocks instead of
recomputing them, bit-for-bit identical to an unfaulted run: the values
are exact float64 and the fold order is the global row order.

Integrity is fingerprint-based: the checkpoint stores a SHA-256 over the
inputs that determine the rows — ``x``, ``y``, the grid, the kernel
name, the arithmetic dtype, and the block size.  A resume against
different inputs raises :class:`~repro.exceptions.CheckpointError` rather
than silently splicing incompatible sums; so does a file in the
version-1 format, which held per-block k-vector sums.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write
leaves the previous checkpoint intact — which is the whole point.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError, ValidationError
from repro.utils.numeric import fold_rows

__all__ = ["SweepCheckpoint", "sweep_fingerprint"]

_FORMAT_VERSION = 2

#: Tag of the input digest.  The serving cache builds its keys on
#: :func:`sweep_fingerprint` too, so the tag stays put when the file
#: format changes: a new tag would re-key every cached artifact.
_DIGEST_TAG = "v1"


def sweep_fingerprint(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    dtype: str,
    block_rows: int,
) -> str:
    """SHA-256 hex digest of everything that determines the block rows."""
    digest = hashlib.sha256()
    digest.update(f"{_DIGEST_TAG}|{kernel_name}|{dtype}|{block_rows}|".encode())
    for arr in (x, y, bandwidths):
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        digest.update(str(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


class SweepCheckpoint:
    """Resumable, ordered fold of one sweep's row blocks (one fingerprint).

    Blocks are ``[s, min(s + block_rows, n))`` for ``s`` a multiple of
    ``block_rows``; ``record_block`` takes each one's k-wide rows (one
    row for a backend whose unit is coarser) and ``sums`` returns the
    fold once all are in.  ``path=None`` keeps it in memory, no I/O.
    """

    def __init__(
        self,
        path: str | Path | None,
        *,
        fingerprint: str,
        n: int,
        k: int,
        block_rows: int,
        flush_every: int = 1,
    ):
        if flush_every < 1:
            raise ValidationError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path) if path is not None else None
        self.fingerprint = fingerprint
        self.n = int(n)
        self.k = int(k)
        self.block_rows = int(block_rows)
        self.flush_every = int(flush_every)
        self._prefix = np.zeros(self.k, dtype=np.float64)
        self._frontier = 0
        self._rows: dict[int, np.ndarray] = {}
        self._resumed_starts: frozenset[int] = frozenset()
        self._dirty = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path | None,
        *,
        fingerprint: str,
        n: int,
        k: int,
        block_rows: int,
        flush_every: int = 1,
        on_mismatch: str = "raise",
    ) -> "SweepCheckpoint":
        """Load a matching checkpoint from ``path``, or start a fresh one.

        A file that exists but was written for different inputs (or in
        another format version) raises :class:`CheckpointError` —
        resuming across datasets would corrupt the CV sums undetectably.
        ``on_mismatch="restart"`` instead starts a fresh (empty)
        checkpoint that will overwrite the stale file on the next flush —
        the engine uses this after a backend degradation, where the
        previous backend's checkpoint is simply a different sweep, not
        user error.
        """
        if on_mismatch not in ("raise", "restart"):
            raise ValidationError(
                f"on_mismatch must be 'raise' or 'restart', got {on_mismatch!r}"
            )
        ckpt = cls(
            path,
            fingerprint=fingerprint,
            n=n,
            k=k,
            block_rows=block_rows,
            flush_every=flush_every,
        )
        if path is not None and Path(path).exists():
            try:
                ckpt._load()  # all or nothing: state is set only on success
            except CheckpointError:
                if on_mismatch == "raise":
                    raise
        return ckpt

    def _load(self) -> None:
        assert self.path is not None
        try:
            with np.load(self.path, allow_pickle=False) as payload:
                version = int(payload.get("version", 1))
                if version != _FORMAT_VERSION:
                    raise CheckpointError(
                        f"checkpoint {self.path} has format version {version}; "
                        f"this version reads only version {_FORMAT_VERSION} — "
                        "delete it and rerun"
                    )
                stored_fp = str(payload["fingerprint"])
                prefix = np.asarray(payload["prefix"], dtype=np.float64)
                frontier = int(payload["frontier"])
                starts = np.asarray(payload["starts"], dtype=np.int64)
                counts = np.asarray(payload["counts"], dtype=np.int64)
                rows = np.asarray(payload["rows"], dtype=np.float64)
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: {exc}"
            ) from exc
        if stored_fp != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different sweep "
                f"(stored fingerprint {stored_fp[:12]}..., expected "
                f"{self.fingerprint[:12]}...); delete it or point --resume "
                "elsewhere"
            )
        if rows.shape[1:] != prefix.shape or int(counts.sum()) != len(rows):
            raise CheckpointError(
                f"checkpoint {self.path} has malformed rows {rows.shape} "
                f"for k={self.k}"
            )
        blocks = np.split(rows, np.cumsum(counts)[:-1]) if counts.size else []
        self._rows = {int(s): b.copy() for s, b in zip(starts, blocks)}
        self._prefix, self._frontier = prefix.copy(), frontier
        self._resumed_starts = frozenset(self.completed_starts)

    # -- queries -----------------------------------------------------------

    @property
    def completed_starts(self) -> list[int]:
        """Sorted start indices of blocks already recorded."""
        folded = range(0, self._frontier, self.block_rows)
        return list(folded) + sorted(self._rows)

    @property
    def resumed_starts(self) -> frozenset[int]:
        """Blocks that were replayed from disk (vs recorded this run)."""
        return self._resumed_starts

    def has_block(self, start: int) -> bool:
        """Whether block ``start`` is already complete."""
        return int(start) < self._frontier or int(start) in self._rows

    def sums(self) -> np.ndarray:
        """The fold of every row of the sweep (float64 copy).

        Raises :class:`CheckpointError` while any block is missing.
        """
        if self._frontier < self.n:
            raise CheckpointError(
                f"rows from {self._frontier} on are not checkpointed"
            )
        return self._prefix.copy()

    # -- recording ---------------------------------------------------------

    def record_block(self, start: int, rows: np.ndarray) -> None:
        """Fold a completed block at the frontier — and every kept block
        the fold then reaches — or keep it; flushes per ``flush_every``."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != self.k:
            raise ValidationError(
                f"block rows must have shape (r, {self.k}), got {arr.shape}"
            )
        start = int(start)
        if start != self._frontier:
            self._rows[start] = arr.copy()
        else:
            while True:
                fold_rows(arr, self._prefix)
                self._frontier = min(start + self.block_rows, self.n)
                start = self._frontier
                if start not in self._rows:
                    break
                arr = self._rows.pop(start)
        self._dirty += 1
        if self.path is not None and self._dirty >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Atomically write the checkpoint file (temp file + rename)."""
        if self.path is None:
            self._dirty = 0
            return
        starts = np.array(sorted(self._rows), dtype=np.int64)
        blocks = [self._rows[int(s)] for s in starts]
        rows = np.concatenate([np.empty((0, self.k), dtype=np.float64), *blocks])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    version=np.int64(_FORMAT_VERSION),
                    fingerprint=np.array(self.fingerprint),
                    prefix=self._prefix,
                    frontier=np.int64(self._frontier),
                    starts=starts,
                    counts=np.array([b.shape[0] for b in blocks], dtype=np.int64),
                    rows=rows,
                )
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._dirty = 0

    def discard(self) -> None:
        """Delete the on-disk checkpoint (after a completed sweep)."""
        self._prefix[:] = 0.0
        self._frontier = 0
        self._rows.clear()
        self._dirty = 0
        if self.path is not None and self.path.exists():
            self.path.unlink()

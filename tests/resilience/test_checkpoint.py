"""Unit tests for the resumable sweep checkpoint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ValidationError
from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.utils.numeric import fold_rows


def _inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 5.0, 40)
    y = np.cos(x)
    grid = np.linspace(0.3, 2.0, 5)
    return x, y, grid


class TestFingerprint:
    def test_stable_across_calls(self) -> None:
        x, y, grid = _inputs()
        fp_a = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        fp_b = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        assert fp_a == fp_b

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda x, y, g: (x + 1e-12, y, g, "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y * 2, g, "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y, g[:-1], "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y, g, "gaussian", "float64", 16),
            lambda x, y, g: (x, y, g, "epanechnikov", "float32", 16),
            lambda x, y, g: (x, y, g, "epanechnikov", "float64", 8),
        ],
        ids=["x", "y", "grid", "kernel", "dtype", "block_rows"],
    )
    def test_sensitive_to_every_input(self, mutate) -> None:
        x, y, grid = _inputs()
        base = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        assert sweep_fingerprint(*mutate(x, y, grid)) != base


def _rows(start: int, stop: int, k: int) -> np.ndarray:
    """Deterministic, awkward float64 rows standing in for block rows."""
    rng = np.random.default_rng(start)
    return rng.normal(size=(stop - start, k)) * np.array([1.0, np.pi, 1e-17])[:k]


class TestRoundtrip:
    def test_record_flush_load_exact(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        # Blocks 0 and 32 complete, 16 is the gap: 0 is folded into the
        # prefix, 32's rows are kept until the gap closes.
        rows = {s: _rows(s, min(s + 16, 40), 3) for s in (0, 16, 32)}
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=3, block_rows=16
        )
        for start in (0, 32):
            ckpt.record_block(start, rows[start])

        again = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=3, block_rows=16
        )
        assert again.completed_starts == [0, 32]
        assert again.resumed_starts == frozenset({0, 32})
        for reopened in (ckpt, again):
            reopened.record_block(16, rows[16])
        expected = fold_rows(np.concatenate([rows[0], rows[16], rows[32]]))
        np.testing.assert_array_equal(again.sums(), expected)
        np.testing.assert_array_equal(again.sums(), ckpt.sums())

    def test_fault_free_file_holds_only_the_prefix(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=3, block_rows=16
        )
        for start in (0, 16, 32):
            ckpt.record_block(start, _rows(start, min(start + 16, 40), 3))
        with np.load(path) as payload:
            assert payload["rows"].shape == (0, 3)
            assert payload["prefix"].shape == (3,)
            assert int(payload["frontier"]) == 40

    def test_in_memory_checkpoint(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=2, block_rows=5
        )
        ckpt.record_block(0, np.array([[1.0, 2.0]]))
        ckpt.flush()  # no-op, must not fail
        assert ckpt.has_block(0)
        assert ckpt.path is None

    def test_flush_every_batches_writes(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=1, block_rows=16, flush_every=3
        )
        ckpt.record_block(0, np.array([[1.0]]))
        ckpt.record_block(16, np.array([[2.0]]))
        assert not path.exists(), "should not flush before the batch fills"
        ckpt.record_block(32, np.array([[3.0]]))
        assert path.exists()

    def test_bad_shape_rejected(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=3, block_rows=5
        )
        with pytest.raises(ValidationError, match="shape"):
            ckpt.record_block(0, np.zeros((5, 4)))
        with pytest.raises(ValidationError, match="shape"):
            ckpt.record_block(0, np.zeros(3))

    def test_missing_block_raises(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=3, block_rows=5
        )
        ckpt.record_block(0, np.zeros((5, 3)))
        with pytest.raises(CheckpointError, match="not checkpointed"):
            ckpt.sums()


class TestMismatch:
    def _seeded(self, path) -> None:
        ckpt = SweepCheckpoint.open(
            path, fingerprint="old-sweep", n=40, k=2, block_rows=16
        )
        ckpt.record_block(0, np.array([[1.0, 2.0]]))

    def test_mismatch_raises_by_default(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        self._seeded(path)
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint.open(
                path, fingerprint="new-sweep", n=40, k=2, block_rows=16
            )

    def test_restart_resets_instead(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        self._seeded(path)
        ckpt = SweepCheckpoint.open(
            path,
            fingerprint="new-sweep",
            n=40,
            k=2,
            block_rows=16,
            on_mismatch="restart",
        )
        assert ckpt.completed_starts == []
        assert ckpt.resumed_starts == frozenset()
        # the stale file is replaced on the next flush
        ckpt.record_block(16, np.array([[9.0, 9.0]]))
        reread = SweepCheckpoint.open(
            path, fingerprint="new-sweep", n=40, k=2, block_rows=16
        )
        assert reread.completed_starts == [16]

    def test_corrupt_file_is_a_checkpoint_error(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            SweepCheckpoint.open(
                path, fingerprint="fp", n=40, k=2, block_rows=16
            )

    def test_version_1_file_is_refused(self, tmp_path) -> None:
        # The version-1 layout: one k-vector of block sums per block.
        path = tmp_path / "sweep.ckpt.npz"
        np.savez(
            path,
            fingerprint=np.array("fp"),
            starts=np.array([0], dtype=np.int64),
            sums=np.array([[1.0, 2.0]]),
            n=np.int64(40),
            k=np.int64(2),
            block_rows=np.int64(16),
        )
        with pytest.raises(CheckpointError, match="format version 1"):
            SweepCheckpoint.open(
                path, fingerprint="fp", n=40, k=2, block_rows=16
            )

    def test_invalid_on_mismatch_value(self, tmp_path) -> None:
        with pytest.raises(ValidationError, match="on_mismatch"):
            SweepCheckpoint.open(
                tmp_path / "c.npz",
                fingerprint="fp",
                n=4,
                k=1,
                block_rows=2,
                on_mismatch="ignore",
            )


class TestDiscard:
    def test_discard_removes_file_and_state(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=1, block_rows=16
        )
        ckpt.record_block(0, np.array([[4.0]]))
        assert path.exists()
        ckpt.discard()
        assert not path.exists()
        assert ckpt.completed_starts == []

    def test_discard_without_file_is_safe(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=4, k=1, block_rows=2
        )
        ckpt.discard()  # must not raise

"""Dual-GPU variant: using both halves of the paper's Tesla S1070.

§IV-C: the test machine carried "two Tesla S10 GPUs, each with 240
streaming cores and 4 GB of device-specific GPU memory" — the paper's
program uses one.  Because the leave-one-out work is independent per
observation (the same SPMD property the paper exploits within one GPU),
the observation rows split cleanly across devices:

* each device holds its own copy of ``x``, ``y`` and the bandwidth grid
  (constant memory) plus the §IV-A intermediates sized to *its share* of
  the rows — so per-device memory halves and the n = 20,000 OOM wall
  moves to n ≈ √2·20,000 ≈ 28,000 with the monolithic allocation, or
  combines with the tiled layout for no wall at all;
* each device reduces its share to a k-vector of partial
  squared-residual sums;
* the host adds the k-vectors (a k-sized transfer per device — trivial)
  and one device runs the final argmin reduction.

Modelled time: the main-kernel phases halve (perfect row split); the
reductions and overheads do not — Amdahl keeps the end-to-end speedup
just under 2×.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import Kernel
from repro.core.fastgrid import fastgrid_block_sums, require_fast_grid_kernel
from repro.cuda_port.host import CudaProgramResult
from repro.cuda_port.timing_model import estimate_program_runtime
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.kernel import LaunchStats
from repro.gpusim.memory import ConstantMemory, GlobalMemory
from repro.gpusim.reduction import device_argmin
from repro.gpusim.timing import PhaseTime, SimulatedRuntime
from repro.parallel import balanced_blocks
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = ["MultiGpuBandwidthProgram", "estimate_multi_gpu_runtime"]

#: Phases whose work is split evenly across devices (per-row SPMD work).
_SPLITTABLE_PHASES = frozenset({"fill", "sort", "sweep", "combine"})


def estimate_multi_gpu_runtime(
    n: int,
    k: int,
    *,
    n_devices: int = 2,
    device: str | DeviceSpec | None = None,
    poly_power_count: int = 2,
    threads_per_block: int = 512,
) -> SimulatedRuntime:
    """Modelled run time with the rows split over ``n_devices`` GPUs.

    Row-parallel phases divide by the device count; the per-bandwidth
    reductions, argmin, and fixed overheads do not (they run once, after
    a k-sized gather) — the Amdahl term that caps the speedup below the
    device count.
    """
    if n_devices < 1:
        raise ValidationError(f"n_devices must be >= 1, got {n_devices}")
    base = estimate_program_runtime(
        n,
        k,
        device=device,
        poly_power_count=poly_power_count,
        threads_per_block=threads_per_block,
    )
    phases = tuple(
        PhaseTime(
            name=p.name,
            compute_seconds=(
                p.compute_seconds / n_devices
                if p.name in _SPLITTABLE_PHASES
                else p.compute_seconds
            ),
            memory_seconds=(
                p.memory_seconds / n_devices
                if p.name in _SPLITTABLE_PHASES
                else p.memory_seconds
            ),
        )
        for p in base.phases
    )
    # Per-device context/setup overhead plus the k-vector gathers.
    spec = get_device(device)
    overhead = base.overhead_seconds + (n_devices - 1) * (
        spec.launch_overhead_seconds + k * 4 / spec.bytes_per_second
    )
    return SimulatedRuntime(phases=phases, overhead_seconds=overhead)


class MultiGpuBandwidthProgram:
    """The bandwidth program with observations split across GPUs."""

    def __init__(
        self,
        *,
        devices: Sequence[str | DeviceSpec] | None = None,
        kernel: str | Kernel = "epanechnikov",
        threads_per_block: int | None = None,
    ):
        if devices is None:
            devices = [None, None]  # the paper machine's two Tesla modules
        if len(devices) == 0:
            raise ValidationError("need at least one device")
        specs = [get_device(d) for d in devices]
        self.devices = specs
        self.kernel = require_fast_grid_kernel(kernel)
        self.threads_per_block = (
            threads_per_block or specs[0].max_threads_per_block
        )

    def run(
        self, x: np.ndarray, y: np.ndarray, bandwidths: np.ndarray
    ) -> CudaProgramResult:
        """Execute with the row range split evenly across the devices."""
        x64, y64 = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        n = x64.shape[0]
        k = grid.shape[0]
        x32 = x64.astype(np.float32)
        y32 = y64.astype(np.float32)
        P = len(self.kernel.poly_terms)
        blocks = balanced_blocks(n, len(self.devices))

        start = time.perf_counter()  # repro-lint: disable=GPU001 - host wall clock
        stats: list[LaunchStats] = []
        partials = np.zeros(k, dtype=np.float64)
        reports = []
        for (lo, hi), spec in zip(blocks, self.devices):
            share = hi - lo
            constant = ConstantMemory(spec)
            constant.store(grid.astype(np.float32))
            gmem = GlobalMemory(spec)
            try:
                # Per-device §IV-A allocations, sized to the row share.
                d_x = gmem.malloc(n, np.float32, label="x")
                d_y = gmem.malloc(n, np.float32, label="y")
                d_x.copy_from_host(x32)
                d_y.copy_from_host(y32)
                gmem.reserve((share, n), np.float32, label="absdiff-share")
                gmem.reserve((share, n), np.float32, label="y-share")
                for p in range(P):
                    gmem.reserve((share, k), np.float32, label=f"sum-d^p[{p}]")
                    gmem.reserve((share, k), np.float32, label=f"sum-yd^p[{p}]")
                gmem.reserve((k, share), np.float32, label="sq-residuals")

                partials += fastgrid_block_sums(
                    x32.astype(np.float64),
                    y32.astype(np.float64),
                    constant.read().astype(np.float64),
                    self.kernel.name,
                    lo,
                    hi,
                    "float32",
                )
                reports.append(gmem.report())
            finally:
                gmem.free_all()

        # Final argmin on the first device.
        scores32 = partials.astype(np.float32)
        _, _, argmin_stats = device_argmin(
            scores32,
            grid.astype(np.float32),
            device=self.devices[0],
            block_dim=self.threads_per_block,
        )
        stats.append(argmin_stats)

        wall = time.perf_counter() - start  # repro-lint: disable=GPU001 - host wall clock
        scores = scores32.astype(np.float64) / n
        best_j = int(np.argmin(scores))
        memory_report = {
            "devices": [r["device"] for r in reports],
            "per_device_peak_gb": [r["peak_gb"] for r in reports],
            "row_split": blocks,
        }
        return CudaProgramResult(
            bandwidth=float(grid[best_j]),
            score=float(scores[best_j]),
            scores=scores,
            mode=f"fast-multi-gpu-{len(self.devices)}",
            device="+".join(s.name for s in self.devices),
            wall_seconds=wall,
            simulated=estimate_multi_gpu_runtime(
                n,
                k,
                n_devices=len(self.devices),
                device=self.devices[0],
                poly_power_count=P,
                threads_per_block=self.threads_per_block,
            ),
            memory_report=memory_report,
            launch_stats=tuple(stats),
        )

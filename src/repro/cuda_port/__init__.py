"""Port of the paper's CUDA optimal-bandwidth program to the GPU simulator.

Importing this package registers the ``"gpusim"`` grid backend, so
``select_bandwidth(x, y, backend="gpusim")`` runs the paper's program 4.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import BACKEND_REGISTRY, register_backend
from repro.cuda_port.host import CudaBandwidthProgram, CudaProgramResult
from repro.obs.tracer import current_tracer
from repro.cuda_port.main_kernel import bandwidth_main_kernel
from repro.cuda_port.multi_gpu import (
    MultiGpuBandwidthProgram,
    estimate_multi_gpu_runtime,
)
from repro.cuda_port.tiled import (
    TileExecutor,
    TiledCudaBandwidthProgram,
    default_tile_rows,
    estimate_tiled_runtime,
)
from repro.cuda_port.timing_model import estimate_program_runtime

__all__ = [
    "CudaBandwidthProgram",
    "CudaProgramResult",
    "MultiGpuBandwidthProgram",
    "TiledCudaBandwidthProgram",
    "bandwidth_main_kernel",
    "default_tile_rows",
    "estimate_multi_gpu_runtime",
    "estimate_program_runtime",
    "estimate_tiled_runtime",
]


def _gpusim_tiled_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    device: str | None = None,
    threads_per_block: int | None = None,
    tile_rows: int | None = None,
    **_: object,
) -> np.ndarray:
    """Grid backend running the out-of-core tiled program (no n×n ceiling)."""
    with current_tracer().span(
        "backend:gpusim-tiled",
        n=int(np.asarray(x).shape[0]),
        k=len(bandwidths),
    ):
        program = TiledCudaBandwidthProgram(
            device=device,
            kernel=kernel,
            threads_per_block=threads_per_block,
            tile_rows=tile_rows,
        )
        return program.run(x, y, bandwidths).scores


def _gpusim_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    device: str | None = None,
    mode: str = "auto",
    threads_per_block: int | None = None,
    **_: object,
) -> np.ndarray:
    """Grid backend running the CUDA program on the simulator."""
    with current_tracer().span(
        "backend:gpusim",
        n=int(np.asarray(x).shape[0]),
        k=len(bandwidths),
        mode=mode,
    ):
        program = CudaBandwidthProgram(
            device=device,
            kernel=kernel,
            mode=mode,
            threads_per_block=threads_per_block,
        )
        return program.run(x, y, bandwidths).scores


if "gpusim" not in BACKEND_REGISTRY:
    register_backend("gpusim", _gpusim_backend)
if "gpusim-tiled" not in BACKEND_REGISTRY:
    register_backend("gpusim-tiled", _gpusim_tiled_backend, executor=TileExecutor)

"""Inputs of the in-process workloads, made from the seed alone."""

from __future__ import annotations

import os

import numpy as np

from library import Case

#: Kernels checked together share one sample, so their reference curves
#: share the distance powers: (0, 3, 6, 9), (0, 1, 2) and (0, 2, 4, 6).
KERNEL_GROUPS = (
    ("uniform", "tricube"),
    ("triangular", "epanechnikov"),
    ("biweight", "triweight"),
)
DGPS = ("paper", "sine", "heteroskedastic")
#: ``offset`` moves X by 1e6 (centring); ``ties`` rounds X to 0.01 (about
#: 35 copies of every value at n = 3,500, so windows end on ties).
VARIANTS = ("plain", "offset", "ties")

EXACT_N = 3500
#: Planner budget of the blocked-shm selection, lowered when needed so
#: each worker gets at least ``BLOCKS_PER_WORKER`` blocks.
BLOCKED_BUDGET = 256 * 1024 * 1024
BLOCKS_PER_WORKER = 4
#: The kernel group whose sample the blocked-shm selection reuses.
BLOCKED_KERNEL = "epanechnikov"


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**32))


def _variant(x: np.ndarray, variant: str) -> np.ndarray:
    if variant == "offset":
        return x + 1e6
    if variant == "ties":
        return np.round(x, 2)
    return x


def exact_cases(rng: np.random.Generator) -> list[Case]:
    """Thirteen selections: six kernels x (paper grid k=50, fixed grid
    k=500) on the numpy backend, and one Epanechnikov k=50 selection
    through ``blocked-shm`` with ``nproc`` workers.

    Each kernel pair gets its own sample: one DGP and one X variant each,
    paired by the seed, so every run covers all three DGPs and variants.
    The blocked-shm selection reuses the Epanechnikov pair's sample.
    """
    from repro import BandwidthGrid
    from repro.data import generate

    fine = BandwidthGrid.evenly_spaced(0.002, 0.2, 500)
    workers = os.cpu_count() or 1
    blocked = {
        "backend": "blocked-shm",
        "workers": workers,
        "memory_budget": blocked_budget(EXACT_N, 50, workers),
    }
    cases = []
    for group, (kernels, dgp, variant) in enumerate(
        zip(KERNEL_GROUPS, rng.permutation(DGPS), rng.permutation(VARIANTS))
    ):
        sample = generate(str(dgp), EXACT_N, seed=_seed(rng))
        x = _variant(sample.x, str(variant))
        for kernel in kernels:
            for grid in (None, fine):
                k = 50 if grid is None else 500
                label = f"{dgp}/{variant}/{kernel}/k={k}"
                cases.append(Case(label, x, sample.y, kernel, grid, group=group))
                if kernel == BLOCKED_KERNEL and grid is None:
                    cases.append(
                        Case(f"{label}/blocked-shm", x, sample.y, kernel, None,
                             blocked, group=group)
                    )
    return [cases[i] for i in rng.permutation(len(cases))]


def blocked_budget(n: int, k: int, workers: int) -> int:
    """The planner budget, lowered to give each worker enough blocks."""
    from repro.utils.membudget import plan_blocks

    plan = plan_blocks(n, k, n_terms=2, budget=BLOCKED_BUDGET, output_matrix=True)
    if plan.n_blocks >= BLOCKS_PER_WORKER * workers:
        return BLOCKED_BUDGET
    rows = n // (BLOCKS_PER_WORKER * workers)
    return plan.fixed_bytes + rows * plan.bytes_per_row

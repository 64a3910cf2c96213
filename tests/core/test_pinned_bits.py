"""Committed digests of float64 CV curves and serving-cache keys.

The differential wall compares backends with each other; these tests pin
the bits themselves.  Each digest is the SHA-256 of a float64 ``numpy``
CV curve on one small fixed sample, for every fast-grid kernel and for
three variants of X: plain, offset by 1e6, and rounded to 0.01 (ties).
A refactor of the window-sum primitive that moves a single bit fails
here, and so does one that re-keys the on-disk serving cache.  The
resilient engine's curves for the host backends carry the same digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import select_bandwidth
from repro.core.backends import get_backend
from repro.distributed import InProcessFleet, WorkerApp
from repro.kernels import fast_grid_kernels
from repro.resilience.engine import ResilienceConfig, resilient_cv_scores
from repro.serving.cache import (
    ArtifactCache,
    curve_fingerprint,
    selection_fingerprint,
)

CURVE_SHA256 = {
    ("biweight", "plain"): "1f2e3decb1d5503e9875b0ecf3ba91f10c8281e62855ff267089207d25dd8b9b",
    ("epanechnikov", "plain"): "b1b7506f264cab9c3e44843ac4317b4574c178297404b868d8ccfcba0ef063c8",
    ("triangular", "plain"): "6f39dfb60f3e930f187814ec86150a19ac57fa37b33b7c7767244ae92f2974cf",
    ("tricube", "plain"): "0ea1f9afc855a6820b91969275b7a576931c11710afbe7d6cb0ea3c2f78f46ac",
    ("triweight", "plain"): "99aa5a12b9f53fd44ebe982db6aca9723e3144120db6df68f35b6f119c98ab24",
    ("uniform", "plain"): "39c2337b342f51849ac35e58b433ee0e007b10526516ada6dcf32d4d0202fb5e",
    ("biweight", "offset"): "af1f337fac1c2d7553cb3b2b9082bd04d987a44b86052ba08ebffb9b7dc447ef",
    ("epanechnikov", "offset"): "34d488422b94621728a8a2068762d481aa09f8450f6ee5ca9718836bf014b377",
    ("triangular", "offset"): "3ad00539dcb246e01cdb220fec92d15d9453d3bc930088f123332ea3cdedf5b7",
    ("tricube", "offset"): "b9178853c7f390398d70a69fc94b3998013201ac7d070d6d1af09e7b560a7173",
    ("triweight", "offset"): "4fbfe965c6c47e3e9350d6a29a0a8054bfd8abf913ff90d9402b14df9c9a2058",
    ("uniform", "offset"): "39c2337b342f51849ac35e58b433ee0e007b10526516ada6dcf32d4d0202fb5e",
    ("biweight", "tied"): "89368c998699bdb8f1cd0eb3b86bad370267542682dc740d0aa85b29d9aa5e1a",
    ("epanechnikov", "tied"): "581313afd84034736a701ef33f385edf1d27850e79ccd91844af7d8ead2e8f5a",
    ("triangular", "tied"): "d2e2422d69c910d2fc25578c39a2f2d29535165584d5085d134ecdccfa380029",
    ("tricube", "tied"): "342050c7e01fc45b0c1189cf08e57bf07427e9d16bc06fbc796511d0586edf92",
    ("triweight", "tied"): "d786f63431e6c90e91d85244ab6f037897ae3626d21dd8df1bded7efd2748bc3",
    ("uniform", "tied"): "b63637a38be7b1878a19031493b48e633a37730d38e4669f485216f61bf39201",
}

#: (curve_fingerprint, selection_fingerprint) per backend, epanechnikov.
FINGERPRINTS = {
    "numpy": (
        "74d90b14084cc931c26895703178cd87f2b9bda39125569e3030d053356a2ae7",
        "24304497410a2fa3d74e7a3169e51da5ef3206fb60c75e5d27d957231c7c9511",
    ),
    "blocked": (
        "6f55912fd884102b6f622d53c54e6c6029b488a91ccd0b8c3ab912494df0a070",
        "966941157092c45997afa7926c496023b19e198a580a77acff386dc4de123de2",
    ),
}


def _sample() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20170529)
    x = rng.uniform(0.0, 1.0, 48)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, 48)
    return x, y, np.linspace(0.03, 0.6, 12)


def _variant(x: np.ndarray, name: str) -> np.ndarray:
    return {"plain": x, "offset": x + 1e6, "tied": np.round(x, 2)}[name]


def _digest(curve: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(curve, dtype=np.float64).tobytes()).hexdigest()


def test_every_fast_grid_kernel_is_pinned():
    assert {k for k, _ in CURVE_SHA256} == set(fast_grid_kernels())


@pytest.mark.parametrize("kernel, variant", sorted(CURVE_SHA256))
def test_numpy_curve_bits(kernel, variant):
    x, y, grid = _sample()
    curve = get_backend("numpy")(_variant(x, variant), y, grid, kernel)
    assert _digest(curve) == CURVE_SHA256[kernel, variant]


#: Resilient cells: the engine runs the backend's own block executor in
#: 5-row blocks and must return the plain curve, bit for bit.
RESILIENT = ResilienceConfig(block_rows=5)


@pytest.mark.parametrize(
    "backend, options",
    [
        ("multicore", {"workers": 2}),
        ("blocked", {"block_rows": 5}),
        ("blocked-shm", {"block_rows": 7, "workers": 2}),
        ("distributed", {"block_rows": 9}),
        pytest.param("numpy", {"resilience": RESILIENT}, id="resilient-numpy"),
        pytest.param("blocked", {"resilience": RESILIENT}, id="resilient-blocked"),
        pytest.param(
            "multicore",
            {"workers": 2, "resilience": RESILIENT},
            id="resilient-multicore",
        ),
        pytest.param(
            "blocked-shm",
            {"workers": 2, "resilience": RESILIENT},
            id="resilient-blocked-shm",
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
@pytest.mark.parametrize("variant", ["plain", "offset", "tied"])
def test_scale_out_backends_carry_the_pinned_bits(backend, options, variant):
    x, y, grid = _sample()
    options = dict(options)
    config = options.pop("resilience", None)
    if backend == "distributed":
        options = dict(
            options, fleet=InProcessFleet([WorkerApp(worker_id="w0"), WorkerApp(worker_id="w1")])
        )
    if config is not None:
        curve, report = resilient_cv_scores(
            _variant(x, variant), y, grid, "epanechnikov",
            backend=backend, config=config, backend_options=options,
        )
        assert report.clean and report.blocks_total == 10
    else:
        curve = get_backend(backend)(_variant(x, variant), y, grid, "epanechnikov", **options)
    assert _digest(curve) == CURVE_SHA256["epanechnikov", variant]


def test_resilient_selection_warms_the_plain_cache_with_plain_bits(tmp_path):
    """The cache keys ignore ``resilience``, so a resilient cold sweep may
    answer a later plain request: its curve must be the plain one."""
    x, y, _ = _sample()
    cache = ArtifactCache(tmp_path)
    select_bandwidth(x, y, n_bandwidths=12, cache=cache, resilience=RESILIENT)
    warm = select_bandwidth(x, y, n_bandwidths=12, cache=cache)
    cold = select_bandwidth(x, y, n_bandwidths=12)
    assert warm.diagnostics["cache"] == "hit"
    np.testing.assert_array_equal(warm.scores, cold.scores)
    assert warm.bandwidth == cold.bandwidth


@pytest.mark.parametrize("backend", sorted(FINGERPRINTS))
def test_serving_fingerprints(backend):
    x, y, grid = _sample()
    curve_key, selection_key = FINGERPRINTS[backend]
    assert curve_fingerprint(x, y, grid, "epanechnikov", backend=backend) == curve_key
    assert selection_fingerprint(x, y, grid, "epanechnikov", backend=backend) == selection_key

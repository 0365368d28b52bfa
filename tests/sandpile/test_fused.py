"""Property tests (hypothesis) for the temporal-blocking fused kernels.

The exactness claim of temporal blocking: a fused *k*-step tile kernel
applied to any tile of any grid equals *k* global synchronous steps
restricted to that tile — including tiles clamped at the grid edge, where
the trapezoid's grown read region reads the real sink frame.  Plus the
stepper-level consequence (Abelian fixpoint invariance) and the
persistent-runtime guarantee that a fused run whose worker dies mid-run
resumes on a rebuilt pool to the same fixpoint.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import Tile, band_tiles
from repro.sandpile.compiled import sync_window_k, sync_window_k_numpy
from repro.sandpile.kernels import sync_step, sync_tile_k_array
from repro.sandpile.pfrontier import ParallelFrontierStepper

interiors = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(3, 14), st.integers(3, 14)),
    elements=st.integers(0, 12),
)

SETTINGS = dict(max_examples=25, deadline=None)


def k_global_steps(interior, k):
    g = Grid2D.from_interior(interior)
    for _ in range(k):
        sync_step(g)
    return g


@st.composite
def grid_tile_k(draw):
    """A random interior, a random (possibly edge-clamped) tile, and k."""
    interior = draw(interiors)
    H, W = interior.shape
    y0 = draw(st.integers(0, H - 1))
    x0 = draw(st.integers(0, W - 1))
    h = draw(st.integers(1, H - y0))
    w = draw(st.integers(1, W - x0))
    k = draw(st.integers(1, 5))
    return interior, Tile(0, 0, 0, y0, x0, h, w), k


@given(case=grid_tile_k())
@settings(**SETTINGS)
def test_fused_tile_equals_k_global_steps(case):
    interior, tile, k = case
    oracle = k_global_steps(interior, k)
    g = Grid2D.from_interior(interior)
    dst = np.zeros_like(g.data)
    sync_tile_k_array(g.data, dst, tile, k)
    ys, xs = slice(tile.y0, tile.y1), slice(tile.x0, tile.x1)
    assert np.array_equal(dst[1:-1, 1:-1][ys, xs], oracle.interior[ys, xs])


@given(case=grid_tile_k())
@settings(**SETTINGS)
def test_compiled_window_matches_numpy_trapezoid(case):
    interior, tile, k = case
    g = Grid2D.from_interior(interior)
    a = np.zeros_like(g.data)
    b = np.zeros_like(g.data)
    sync_window_k(g.data, a, tile.y0, tile.y1, tile.x0, tile.x1, k)
    sync_window_k_numpy(g.data, b, tile.y0, tile.y1, tile.x0, tile.x1, k)
    assert np.array_equal(a, b)


@given(interior=interiors, k=st.integers(2, 5), nbands=st.integers(1, 6))
@settings(**SETTINGS)
def test_band_cover_equals_k_global_steps(interior, k, nbands):
    """Any band decomposition of the full window reproduces f^k exactly."""
    H, W = interior.shape
    oracle = k_global_steps(interior, k)
    g = Grid2D.from_interior(interior)
    dst = np.zeros_like(g.data)
    for tile in band_tiles((0, H, 0, W), nbands):
        sync_tile_k_array(g.data, dst, tile, k)
    assert np.array_equal(dst[1:-1, 1:-1], oracle.interior)


@given(
    interior=interiors,
    k=st.integers(2, 5),
    nbands=st.integers(1, 4),
    tile_size=st.sampled_from([4, 8, 16]),
)
@settings(**SETTINGS)
def test_fused_stepper_reaches_unfused_fixpoint(interior, k, nbands, tile_size):
    """Abelian invariance: k-fused dispatch lands on the k=1 fixpoint."""

    def fixpoint(kk, nb):
        g = Grid2D.from_interior(interior)
        with ParallelFrontierStepper(g, tile_size, k=kk, nbands=nb) as st_:
            for _ in range(100_000):
                if not st_():
                    break
            return g.interior.copy(), g.sink_absorbed

    ref_grid, ref_sink = fixpoint(1, None)
    got_grid, got_sink = fixpoint(k, nbands)
    assert np.array_equal(ref_grid, got_grid)
    assert ref_sink == got_sink


@pytest.mark.faults
@given(seed=st.integers(0, 2**16), k=st.integers(2, 4))
@settings(max_examples=5, deadline=None)
def test_pool_rebuild_reproduces_precrash_fixpoint(seed, k):
    """Kill a worker mid-run: the region resumed on the rebuilt set must
    still drive the fused run to the unfaulted fixpoint."""
    from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
    from repro.easypap.executor import ProcessBackend
    from repro.sandpile.model import random_uniform

    if not ProcessBackend.available():
        pytest.skip("fork/shared_memory unavailable")
    from repro.sandpile.simulate import run_to_fixpoint

    ref = random_uniform(20, 20, max_grains=12, seed=seed)
    ref_res = run_to_fixpoint(ref, "sandpile", "pfrontier", k=k, nworkers=2,
                              tile_size=8, backend="sequential")
    log = DegradationLog()
    g = random_uniform(20, 20, max_grains=12, seed=seed)
    run_to_fixpoint(
        g, "sandpile", "pfrontier", k=k, nworkers=2, tile_size=8,
        backend="process",
        fault_injector=FaultInjector(kill_on_tasks={0}, max_fires=1),
        retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        degradation=log,
    )
    assert log.by_action("pool-rebuild")
    assert np.array_equal(g.interior, ref.interior)
    assert g.sink_absorbed == ref.sink_absorbed
    assert ref_res is not None

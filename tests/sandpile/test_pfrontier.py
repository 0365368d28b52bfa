"""Tests for the parallel active-frontier stepper (parallel regions).

Pins :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper` to the
oracle and to the single-worker frontier stepper step-for-step, recounts
its tile counters from its window log with the tiling helpers the region
kernel does not use, and pins a segment run as one region on worker
processes to the in-process run of the same kernel, call by call.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.errors import SimulationError
from repro.easypap.app import EasyPapApp
from repro.easypap.executor import ProcessBackend
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob
from repro.easypap.tiling import TileGrid, band_tiles
from repro.sandpile.compiled import HAVE_NUMBA, sync_window, sync_window_numpy
from repro.sandpile.kernels import sync_tile_nc
from repro.sandpile.model import center_pile, random_uniform
from repro.sandpile.pfrontier import ParallelFrontierStepper
from repro.sandpile.simulate import run_to_fixpoint
from repro.sandpile.theory import stabilize
from repro.sandpile.vectorized import FrontierSyncStepper

grids = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
    elements=st.integers(0, 12),
)

SETTINGS = dict(max_examples=30, deadline=None)

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)


def _drive(stepper, limit=200_000):
    n = 0
    while stepper():
        n += 1
        assert n < limit
    return n


# -- correctness --------------------------------------------------------------


@given(interior=grids)
@settings(**SETTINGS)
def test_fixpoint_matches_oracle(interior):
    oracle = stabilize(Grid2D.from_interior(interior))
    g = Grid2D.from_interior(interior)
    with ParallelFrontierStepper(g, tile_size=3) as stepper:
        _drive(stepper)
    assert np.array_equal(g.interior, oracle.interior)
    assert g.sink_absorbed == oracle.sink_absorbed


@given(interior=grids)
@settings(**SETTINGS)
def test_matches_frontier_sync_step_for_step(interior):
    """Same trajectory as the single-worker frontier stepper, not just the
    same fixpoint: per-step change flags, planes, and sink all agree."""
    ref = Grid2D.from_interior(interior)
    ref_stepper = FrontierSyncStepper(ref)
    g = Grid2D.from_interior(interior)
    with ParallelFrontierStepper(g, tile_size=4) as stepper:
        for _ in range(200_000):
            c_ref = ref_stepper()
            c = stepper()
            assert c == c_ref
            assert np.array_equal(g.data, ref.data)
            assert g.sink_absorbed == ref.sink_absorbed
            if not c:
                break


def test_two_piles_match_oracle():
    g = Grid2D(33, 47)
    g.interior[3, 5] = 900
    g.interior[28, 40] = 700
    oracle = stabilize(g.copy())
    with ParallelFrontierStepper(g, tile_size=8) as stepper:
        _drive(stepper)
    assert np.array_equal(g.interior, oracle.interior)
    assert g.sink_absorbed == oracle.sink_absorbed


def test_all_stable_returns_false_immediately():
    g = Grid2D.from_interior(np.full((6, 6), 3, dtype=np.int64))
    before = g.data.copy()
    with ParallelFrontierStepper(g, tile_size=4) as stepper:
        assert stepper() is False
        assert np.array_equal(g.data, before)
    assert g.sink_absorbed == 0


def test_reset_rescans_after_external_edit():
    g = Grid2D.from_interior(np.zeros((8, 8), dtype=np.int64))
    with ParallelFrontierStepper(g, tile_size=4) as stepper:
        assert stepper() is False
        g.interior[2, 2] = 5  # external edit the stepper did not see
        stepper.reset()
        _drive(stepper)
    assert g.interior[2, 2] < 4


# -- counters -----------------------------------------------------------------


def test_counters_and_window_log():
    """The counters the region kernel sums from its cover arithmetic equal
    a recount from the window log by the tiling helpers, and at k = 1 the
    computed cells equal the single-worker frontier stepper's."""
    for k in (1, 4):
        g = center_pile(32, 32, 400)
        with ParallelFrontierStepper(g, tile_size=8, k=k, nbands=3) as stepper:
            n = _drive(stepper)
        # the final call sees a stable grid and submits nothing
        assert stepper.iterations == (n + 1) * k
        assert len(stepper.window_log) == n
        total = len(stepper.tiles)
        computed = skipped = 0
        for i, (iteration, window, active) in enumerate(stepper.window_log):
            assert iteration == i * k
            y0, y1, x0, x1 = window
            assert 0 <= y0 < y1 <= g.height and 0 <= x0 < x1 <= g.width
            if k == 1:
                assert active == len(stepper.tiles.tiles_in_window(window))
                skipped += total - active
            else:
                assert active == len(band_tiles(window, 3))
            computed += active
        assert computed > 0
        assert (stepper.tiles_computed, stepper.tiles_skipped) == (computed, skipped)
        assert stepper.window_cells == sum(
            (w[1] - w[0]) * (w[3] - w[2]) for _, w, _ in stepper.window_log
        )
        if k == 1:
            ref = FrontierSyncStepper(center_pile(32, 32, 400))
            _drive(ref)
            assert stepper.window_cells == ref.window_cells


def test_in_process_participant_ignores_a_changed_parent(monkeypatch):
    """The in-process participant never takes a worker's orphan exit: a
    run whose parent pid changes (its launching shell exited) finishes."""
    ppids = itertools.count(10**6)

    def no_exit(code):
        raise AssertionError(f"os._exit({code}) in the main process")

    monkeypatch.setattr(os, "getppid", lambda: next(ppids))  # another pid on every call
    monkeypatch.setattr(os, "_exit", no_exit)
    g = random_uniform(20, 20, max_grains=12, seed=5)
    oracle = stabilize(g.copy())
    run_to_fixpoint(g, "sandpile", "pfrontier", backend="sequential", tile_size=4, k=1)
    assert np.array_equal(g.data, oracle.data)
    assert g.sink_absorbed == oracle.sink_absorbed


# -- process backend ----------------------------------------------------------


@needs_processes
def test_process_backend_bit_identical():
    base = random_uniform(37, 41, max_grains=10, seed=23)
    ref = base.copy()
    ref_steps = _drive(FrontierSyncStepper(ref))
    g = base.copy()
    with ParallelFrontierStepper(
        g, tile_size=8, backend=ProcessBackend(2, "dynamic")
    ) as stepper:
        steps = _drive(stepper)
    assert steps == ref_steps
    assert np.array_equal(g.interior, ref.interior)
    assert g.sink_absorbed == ref.sink_absorbed


@needs_processes
def test_close_detaches_shared_memory():
    g = center_pile(16, 16, 60)
    stepper = ParallelFrontierStepper(g, tile_size=8, backend=ProcessBackend(2))
    _drive(stepper)
    final = g.interior.copy()
    stepper.close()
    stepper.close()  # idempotent
    # the grid survives pool shutdown: its plane was copied out of shm
    assert np.array_equal(g.interior, final)
    g.interior[0, 0] = 1  # still writable after detach


@needs_processes
def test_registry_variant_runs_on_processes():
    oracle = stabilize(center_pile(32, 32, 600))
    g = center_pile(32, 32, 600)
    result = run_to_fixpoint(g, "sandpile", "pfrontier", tile_size=8, nworkers=2)
    assert np.array_equal(g.interior, oracle.interior)
    assert result.iterations > 0
    assert g.total_grains() + g.sink_absorbed == 600


@needs_processes
def test_fused_drivers_count_grid_iterations():
    """run_to_fixpoint, SandpileJob and EasyPapApp report the same executed
    grid iterations (k per call), and the budget counts that unit too."""
    opts = dict(tile_size=8, nworkers=2, k=4)
    result = run_to_fixpoint(center_pile(24, 24, 400), "sandpile", "pfrontier", **opts)
    with SandpileJob(center_pile(24, 24, 400), "sandpile", "pfrontier", **opts) as job:
        job_iterations = job.run()["iterations"]
    with EasyPapApp("sandpile", "pfrontier", center_pile(24, 24, 400), **opts) as app:
        app_iterations = app.run().iterations
    assert result.iterations == job_iterations == app_iterations
    # the last call of 4 fused iterations may run up to 3 past the fixpoint
    unfused = run_to_fixpoint(center_pile(24, 24, 400), "sandpile", "frontier").iterations
    assert unfused <= result.iterations < unfused + 4
    calls = result.iterations // 4
    assert calls > 1
    # a budget of one more than the stepper calls is far short of the run
    with pytest.raises(SimulationError):
        run_to_fixpoint(center_pile(24, 24, 400), "sandpile", "pfrontier",
                        max_iterations=calls + 1, **opts)
    with SandpileJob(center_pile(24, 24, 400), "sandpile", "pfrontier",
                     max_iterations=calls + 1, **opts) as job, pytest.raises(SimulationError):
        job.run()
    budgeted = run_to_fixpoint(center_pile(24, 24, 400), "sandpile", "pfrontier",
                               max_iterations=result.iterations + 1, **opts)
    assert budgeted.iterations == result.iterations


@needs_processes
def test_app_frames_and_callbacks_bound_the_segments():
    """EasyPapApp's frames end pfrontier's segments, one region per frame,
    on the frames the single-worker frontier app takes; with on_iteration
    every step is a segment of its own."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    with EasyPapApp("sandpile", "pfrontier", center_pile(24, 24, 400), tile_size=8,
                    nworkers=2, metrics=reg) as app:
        got = app.run(frame_every=10)
    want = EasyPapApp("sandpile", "frontier", center_pile(24, 24, 400)).run(frame_every=10)
    assert got.converged and got.iterations == want.iterations
    assert got.frame_iterations == want.frame_iterations
    assert all(np.array_equal(a, b) for a, b in zip(got.frames, want.frames))
    assert reg.get("easypap_dispatch_commands_total").value(mode="region") / 2 <= len(got.frames)
    seen = []
    with EasyPapApp("sandpile", "pfrontier", center_pile(24, 24, 400), tile_size=8,
                    nworkers=2) as app:
        app.run(on_iteration=lambda it, g: seen.append(it))
    assert seen == list(range(1, want.iterations + 1))


# -- compiled path (numba optional, NumPy fallback always present) ------------


@given(interior=grids)
@settings(**SETTINGS)
def test_sync_window_numpy_matches_tile_kernel(interior):
    g = Grid2D.from_interior(interior)
    dst_a = g.data.copy()
    dst_b = g.data.copy()
    for tile in TileGrid(g.height, g.width, 4):
        sync_tile_nc(g.data, dst_a, tile)
        sync_window_numpy(g.data, dst_b, tile.y0, tile.y1, tile.x0, tile.x1)
    assert np.array_equal(dst_a, dst_b)


def test_compiled_stepper_matches_oracle():
    base = center_pile(24, 24, 300)
    oracle = stabilize(base.copy())
    g = base.copy()
    with ParallelFrontierStepper(g, tile_size=8, use_compiled=True) as stepper:
        _drive(stepper)
    assert np.array_equal(g.interior, oracle.interior)
    assert g.sink_absorbed == oracle.sink_absorbed


def test_sync_window_fallback_wiring():
    if HAVE_NUMBA:
        assert sync_window is not sync_window_numpy
    else:
        assert sync_window is sync_window_numpy


# -- segments as parallel regions ----------------------------------------------


def _state(stepper):
    return (
        stepper.grid.data.copy(),
        stepper.grid.sink_absorbed,
        stepper.iterations,
        list(stepper.window_log),
        stepper.tiles_computed,
        stepper.tiles_skipped,
        stepper.window_cells,
    )


def _calls(stepper, limit):
    """Call-by-call twin of ``advance(limit)``: at most ceil(limit / k) calls."""
    for _ in range(-(-limit // stepper.k)):
        if not stepper():
            break


@needs_processes
@given(
    interior=arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(2, 20), st.integers(2, 20)),
        elements=st.integers(0, 12),
    ),
    k=st.sampled_from([1, 2, 4]),
    nworkers=st.sampled_from([1, 2, 3]),
    tile_size=st.sampled_from([2, 3, 8]),
    limit=st.integers(1, 40),
    edit=st.tuples(st.integers(0, 19), st.integers(0, 19), st.integers(1, 9)),
)
@settings(max_examples=30, deadline=None)
def test_segments_match_call_by_call_sequential(interior, k, nworkers, tile_size, limit, edit):
    """A segment run as one region on worker processes leaves the stepper
    exactly where as many sequential-backend calls do: grid, sink,
    iterations, window log and tile counters — after a segment cut short
    by its limit (ending on either plane), and after an external edit and
    reset() between segments."""
    ref = ParallelFrontierStepper(
        Grid2D.from_interior(interior), tile_size, k=k, nbands=nworkers
    )
    with ParallelFrontierStepper(
        Grid2D.from_interior(interior), tile_size, k=k,
        backend=ProcessBackend(nworkers, "dynamic"),
    ) as proc:
        assert proc.backend.uses_processes
        proc.advance(limit)
        _calls(ref, limit)
        assert np.array_equal(proc.grid.data, ref.grid.data)
        assert _state(proc)[1:] == _state(ref)[1:]
        y, x, grains = edit
        for s in (proc, ref):
            s.grid.interior[y % s.grid.height, x % s.grid.width] += grains
            s.reset()
        proc.advance(10**6)
        _calls(ref, 10**6)
        assert np.array_equal(proc.grid.data, ref.grid.data)
        assert _state(proc)[1:] == _state(ref)[1:]
        assert not ref()


@needs_processes
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("nworkers", [1, 2, 3])
def test_run_to_fixpoint_segments_match_sequential(k, nworkers):
    """run_to_fixpoint on processes runs one segment; its result equals the
    call-by-call sequential stepper's, on a window narrower than the
    workers at first (one tile row of 8 for up to 3 workers)."""
    base = center_pile(26, 26, 500)
    ref = base.copy()
    with ParallelFrontierStepper(ref, 8, k=k, nbands=nworkers) as st_ref:
        calls = _drive(st_ref)
    g = base.copy()
    result = run_to_fixpoint(g, "sandpile", "pfrontier", tile_size=8, nworkers=nworkers, k=k)
    assert np.array_equal(g.data, ref.data)
    assert g.sink_absorbed == ref.sink_absorbed
    assert result.iterations == calls * k
    assert (result.tiles_computed, result.tiles_skipped) == (
        st_ref.tiles_computed, st_ref.tiles_skipped,
    )

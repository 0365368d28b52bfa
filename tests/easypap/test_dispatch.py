"""Tests for the persistent-worker dispatch runtime.

The process backend keeps workers resident: shared planes are attached
once, stable batches register once per identity, and every subsequent
iteration ships at most one tiny command tuple per worker.  These tests
pin the pieces the executor contract tests don't see directly: the
resident registries, selections dispatched against a resident base, the
claimed dynamic/guided schedules, the band-rule command shape, the
dispatch metrics, the re-registration guarantee after a pool rebuild, and
the OS resources the runtime releases.
"""

import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.easypap.executor as executor
import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.errors import ConfigurationError
from repro.easypap.executor import (
    BandRule,
    ProcessBackend,
    SequentialBackend,
    TaskBatch,
    TileTask,
)
from repro.easypap.grid import Grid2D
from repro.obs import Tracer
from repro.easypap.schedule import dynamic_chunk_plan, expand_spans, index_spans
from repro.easypap.tiling import TileGrid, band_tiles
from repro.obs.metrics import MetricsRegistry

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)


def make_planes(n=12, grains=6):
    g = Grid2D(n, n)
    g.interior[:] = grains
    return g, g.data.copy()


def expected_after(g, k=1):
    from repro.sandpile.kernels import sync_step

    e = g.copy()
    for _ in range(k):
        sync_step(e)
    return e


def spec_batch(tiles):
    spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
    return TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)


def selected_after(g, scratch, tiles):
    """*scratch* with only *tiles* advanced one synchronous step from *g*."""
    e = expected_after(g)
    out = scratch.copy()
    for t in tiles:
        ys, xs = slice(t.y0 + 1, t.y1 + 1), slice(t.x0 + 1, t.x1 + 1)
        out[ys, xs] = e.data[ys, xs]
    return out


# -- index spans --------------------------------------------------------------


class TestIndexSpans:
    def test_contiguous_collapses_to_one_span(self):
        assert index_spans(range(5)) == ((0, 5),)

    def test_gaps_split_spans(self):
        assert index_spans([0, 1, 4, 5, 9]) == ((0, 2), (4, 6), (9, 10))

    def test_unsorted_input_is_normalised(self):
        assert index_spans([5, 1, 0, 4]) == ((0, 2), (4, 6),)

    def test_roundtrip(self):
        idxs = [0, 2, 3, 7, 8, 9, 20]
        assert expand_spans(index_spans(idxs)) == sorted(idxs)

    def test_empty(self):
        assert index_spans([]) == ()
        assert expand_spans(()) == []


# -- band rules ---------------------------------------------------------------


class TestBandRule:
    def test_tasks_match_band_tiles(self):
        rule = BandRule("sync_tile_k", 0, 1, 3, (2, 10, 0, 8), 4)
        tasks = rule.tasks()
        tiles = band_tiles((2, 10, 0, 8), 4)
        assert [t.tile for t in tasks] == tiles
        assert all(t.arg == 3 and t.kernel == "sync_tile_k" for t in tasks)

    def test_band_count_must_match_task_count(self):
        rule = BandRule("sync_tile_k", 0, 1, 2, (0, 8, 0, 8), 2)
        tasks = [TileTask("sync_tile_k", 0, 1, t, arg=2) for t in band_tiles((0, 8, 0, 8), 2)]
        with pytest.raises(ConfigurationError):
            TaskBatch([lambda: None], tiles=[tasks[0].tile], spec=[tasks[0]], bands=rule)

    def test_band_tiles_cover_window_disjointly(self):
        window = (3, 17, 2, 9)
        tiles = band_tiles(window, 5)
        rows = sorted((t.y0, t.y1) for t in tiles)
        assert rows[0][0] == 3 and rows[-1][1] == 17
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        assert all(t.x0 == 2 and t.x1 == 9 for t in tiles)

    def test_nbands_clamped_to_height(self):
        assert len(band_tiles((0, 3, 0, 10), 8)) == 3


# -- resident dispatch --------------------------------------------------------


class TestResidentDispatch:
    @needs_processes
    def test_spec_batch_registers_once_and_stays_correct(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
        batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            for _ in range(3):
                be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)
            commands = reg.get("easypap_dispatch_commands_total")
            # one registration broadcast (2 workers), then resident commands
            assert commands.value(mode="register") == 2.0
            assert commands.value(mode="resident") > 0
            assert commands.value(mode="oneshot") == 0

    @needs_processes
    def test_resident_commands_are_smaller_than_oneshot(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
        resident = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            be.bind_planes(g.data, scratch)
            be.run(resident)  # registration + first resident run
            base = reg.get("easypap_dispatch_bytes_total").value(mode="resident")
            be.run(resident)
            steady = reg.get("easypap_dispatch_bytes_total").value(mode="resident") - base
            # a fresh dynamic batch ships its full spec every time
            oneshot = TaskBatch(
                [lambda: None] * len(tiles), tiles=tiles, spec=list(spec), dynamic=True
            )
            be.run(oneshot)
            one = reg.get("easypap_dispatch_bytes_total").value(mode="oneshot")
            assert steady < one / 4

    @needs_processes
    def test_band_batch_computes_fused_steps(self):
        g, scratch = make_planes()
        k, window = 3, (0, 12, 0, 12)
        rule = BandRule("sync_tile_k", 0, 1, k, window, 2)
        tiles = band_tiles(window, 2)
        spec = [TileTask("sync_tile_k", 0, 1, t, arg=k) for t in tiles]
        batch = TaskBatch(
            [lambda: None] * len(tiles), tiles=tiles, spec=spec, dynamic=True, bands=rule
        )
        with ProcessBackend(2) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g, k).interior)

    @needs_processes
    def test_band_rule_is_resident_across_fresh_batches(self):
        g, scratch = make_planes()
        k, window = 2, (0, 12, 0, 12)
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            be.bind_planes(g.data, scratch)
            for _ in range(3):
                # a fresh batch object per iteration, same (kernel,src,dst,k)
                rule = BandRule("sync_tile_k", 0, 1, k, window, 2)
                tiles = band_tiles(window, 2)
                spec = [TileTask("sync_tile_k", 0, 1, t, arg=k) for t in tiles]
                be.run(TaskBatch(
                    [lambda: None] * len(tiles), tiles=tiles, spec=spec,
                    dynamic=True, bands=rule,
                ))
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="register") == 2.0  # one broadcast only
            assert commands.value(mode="oneshot") == 0

    @needs_processes
    def test_dynamic_spec_batches_stay_oneshot(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            be.bind_planes(g.data, scratch)
            for _ in range(2):
                spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
                be.run(TaskBatch(
                    [lambda: None] * len(tiles), tiles=tiles, spec=spec, dynamic=True
                ))
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="register") == 0
            assert commands.value(mode="oneshot") > 0

    @needs_processes
    def test_queue_wait_histogram_sampled(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            be.bind_planes(g.data, scratch)
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))
            hist = reg.get("easypap_dispatch_queue_wait_seconds")
            assert hist.count() > 0

    @needs_processes
    def test_residents_survive_pool_rebuild(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
        batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
        with ProcessBackend(2) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            be.run(batch)  # registers the resident spec
            be._rebuild_pool()  # fresh workers must replay the registration
            p1[:] = 0
            be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)


# -- one command per worker ---------------------------------------------------


class TestClaimedChunks:
    @needs_processes
    @pytest.mark.parametrize("policy", ["dynamic", "guided"])
    def test_one_run_command_per_live_worker(self, policy):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        batch = spec_batch(tiles)
        assert len(dynamic_chunk_plan(len(tiles), 2, policy, 1)) > 2  # more chunks than workers
        reg = MetricsRegistry()
        with ProcessBackend(2, policy, metrics=reg) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            r = be.run(batch)
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="resident") == 2.0
            assert sorted(s.task for s in r.spans) == list(range(len(tiles)))
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)

    @needs_processes
    def test_every_chunk_runs_exactly_once_under_contention(self):
        """More workers than cores claim 200 one-task chunks per batch; a
        double claim or a lost id would leave a count other than the
        number of batches run."""
        name = "tmp_count_kernel"

        def count(planes, task):
            planes[0][task.tile.index] += 1

        tiles = list(TileGrid(40, 20, 2))
        spec = [TileTask(name, 0, 0, t) for t in tiles]
        batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
        executor.register_tile_kernel(name, count)  # before the fork
        try:
            with ProcessBackend(
                (os.cpu_count() or 1) + 2, "dynamic", task_timeout=60.0, allow_fallback=False
            ) as be:
                (counts,) = be.bind_planes(np.zeros(len(tiles), dtype=np.int64))
                for _ in range(5):
                    be.run(batch)
                assert counts.tolist() == [5] * len(tiles)
        finally:
            executor._TILE_KERNELS.pop(name, None)

    @needs_processes
    def test_plans_beyond_one_claim_round_run_in_rounds(self, monkeypatch):
        monkeypatch.setattr(executor, "_CLAIMS_PER_ROUND", 4)
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))  # 9 chunks: rounds of 4, 4 and 1
        reg = MetricsRegistry()
        with ProcessBackend(2, "dynamic", metrics=reg) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            r = be.run(spec_batch(tiles))
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="resident") == 2.0 + 2.0 + 1.0
            assert sorted(s.task for s in r.spans) == list(range(len(tiles)))
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)


# -- selections against a resident base ---------------------------------------


class TestResidentSelections:
    def test_subset_maps_positions_to_base_tasks(self):
        tiles = list(TileGrid(12, 12, 4))
        base = spec_batch(tiles)
        sel = base.subset([1, 4, 5])
        assert sel.dynamic and sel.base is base and sel.indices == [1, 4, 5]
        assert sel.tiles == [tiles[1], tiles[4], tiles[5]]
        assert sel.spec == [base.spec[1], base.spec[4], base.spec[5]]
        assert sel.tile_coords(2) == (tiles[5].ty, tiles[5].tx)

    def test_subset_indices_must_ascend(self):
        base = spec_batch(list(TileGrid(12, 12, 4)))
        with pytest.raises(ConfigurationError):
            base.subset([4, 1])

    @needs_processes
    def test_selection_ships_resident_and_smaller_than_oneshot(self):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        base = spec_batch(tiles)
        idx = [1, 2, 4, 5, 8]
        reg = MetricsRegistry()
        with ProcessBackend(2, "dynamic", metrics=reg) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            r = be.run(base.subset(idx))
            commands = reg.get("easypap_dispatch_commands_total")
            nbytes = reg.get("easypap_dispatch_bytes_total")
            assert commands.value(mode="register") == 2.0  # one broadcast of the base
            assert commands.value(mode="oneshot") == 0
            per_resident = nbytes.value(mode="resident") / commands.value(mode="resident")
            assert sorted(s.task for s in r.spans) == list(range(len(idx)))
            assert np.array_equal(p1, selected_after(g, scratch, [tiles[i] for i in idx]))
            # the same selection without a base ships its TileTasks
            be.run(TaskBatch(
                [lambda: None] * len(idx),
                tiles=[tiles[i] for i in idx],
                spec=[base.spec[i] for i in idx],
                dynamic=True,
            ))
            per_oneshot = nbytes.value(mode="oneshot") / commands.value(mode="oneshot")
            assert per_resident < per_oneshot

    @needs_processes
    def test_pfrontier_trace_rows_match_sequential(self):
        """Trace rows name task positions and the tiles at those positions,
        not base indices, exactly as the sequential backend records them."""
        from repro.sandpile.model import center_pile
        from repro.sandpile.pfrontier import ParallelFrontierStepper

        def rows(backend):
            with ParallelFrontierStepper(center_pile(24, 24, 300), 4, backend=backend) as st:
                while st():
                    pass
                assert any(n < len(st.tiles) for _, _, n in st.window_log)
            return {
                (s.args["iteration"], s.args["task"], s.args["tile_ty"], s.args["tile_tx"])
                for s in backend.trace.spans()
            }

        seq = rows(SequentialBackend(trace=Tracer()))
        proc = rows(ProcessBackend(2, "dynamic", trace=Tracer()))
        assert proc == seq


# -- OS resources -------------------------------------------------------------


@needs_processes
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc")
def test_rebuild_and_close_release_fds_children_and_segments():
    g, scratch = make_planes()
    batch = spec_batch(list(TileGrid(12, 12, 4)))
    with ProcessBackend(1) as warm:  # starts the shared-memory resource tracker
        warm.bind_planes(g.data, scratch)
    before = len(os.listdir("/proc/self/fd"))
    be = ProcessBackend(2, "dynamic")
    be.bind_planes(g.data, scratch)
    names = [seg.name for seg in be._shm]
    be.run(batch)
    be._rebuild_pool()
    be.run(batch)
    be.close()
    assert len(os.listdir("/proc/self/fd")) == before
    assert multiprocessing.active_children() == []
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

"""Tests for the persistent-worker dispatch runtime.

The process backend keeps workers resident: shared planes are attached
once per lease, and every command is a parallel region.  A tile batch is
a one-step region whose command names its tasks by value, so it ships
one small command per worker whatever its tile count.  These tests pin
the pieces the executor contract tests don't see directly: command
sizes, selections shipped as index spans of tiles, the claimed
dynamic/guided schedules, the parallel-region commands of ``pfrontier``,
the dispatch metrics, exact batches after a pool rebuild, and the OS
resources the runtime releases.
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
    BatchSpec,
    ProcessBackend,
    SequentialBackend,
    TaskBatch,
)
from repro.easypap.grid import Grid2D
from repro.obs import Tracer
from repro.easypap.schedule import dynamic_chunk_plan, expand_spans, index_spans
from repro.easypap.tiling import TileGrid, band_tiles
from repro.sandpile.omp import wave_partition
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


def spec_batch(grid, **opts):
    """A ``sync_tile_nc`` batch over every tile of the TileGrid *grid*."""
    tiles = list(grid)
    spec = BatchSpec("sync_tile_nc", 0, 1, grid.geometry)
    return TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec, **opts)


def region_bytes(batch, policy, planes):
    """Bytes per region command of one run of *batch* on 2 workers."""
    reg = MetricsRegistry()
    with ProcessBackend(2, policy, metrics=reg) as be:
        be.bind_planes(*planes)
        be.run(batch)
    commands = reg.get("easypap_dispatch_commands_total").value(mode="region")
    return reg.get("easypap_dispatch_bytes_total").value(mode="region") / commands


def assert_command_does_not_grow(policy, dynamic):
    """A full batch of 16 tiles and one of 1,024 ship region commands of a
    few hundred bytes each under *policy*."""
    sizes = []
    for n in (16, 128):
        g, scratch = make_planes(n)
        batch = spec_batch(TileGrid(n, n, 4), dynamic=dynamic)
        sizes.append(region_bytes(batch, policy, (g.data, scratch)))
    small, big = sizes
    assert big <= 512, (policy, dynamic)
    assert big <= small + 16, (policy, dynamic)  # wider ints, not more of them


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

    def test_checkerboard_wave_is_one_strided_run_per_row(self):
        grid = TileGrid(32, 32, 4)  # 8 x 8 tiles
        (wave, *_) = wave_partition(list(grid))
        spans = index_spans(t.index for t in wave)
        assert spans == tuple((16 * r, 16 * r + 7, 2) for r in range(4))
        assert expand_spans(spans) == [t.index for t in wave]


# -- band rules ---------------------------------------------------------------


class TestBandRule:
    """``band_tiles``: how a fused (k > 1) window is cut into worker bands."""

    def test_band_tiles_cover_window_disjointly(self):
        window = (3, 17, 2, 9)
        tiles = band_tiles(window, 5)
        rows = sorted((t.y0, t.y1) for t in tiles)
        assert rows[0][0] == 3 and rows[-1][1] == 17
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        assert all(t.x0 == 2 and t.x1 == 9 for t in tiles)

    def test_nbands_clamped_to_height(self):
        assert len(band_tiles((0, 3, 0, 10), 8)) == 3


# -- batches on resident workers ----------------------------------------------


class TestResidentDispatch:
    @needs_processes
    def test_spec_batch_sends_one_region_per_worker(self):
        g, scratch = make_planes()
        batch = spec_batch(TileGrid(12, 12, 4))
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            for _ in range(3):
                be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="region") == 3 * 2.0
        # the lease's attach and detach, one per worker, under their own modes
        assert commands.value(mode="attach") == 2.0
        assert commands.value(mode="detach") == 2.0
        assert {row["labels"]["mode"] for row in commands.samples()} == {
            "attach", "region", "detach",
        }

    @needs_processes
    def test_full_batch_command_does_not_grow_with_tiles(self):
        """16 tiles or 1,024, under every policy: a full batch's command
        names its tasks by value, a few hundred bytes either way."""
        for policy in ("static", "cyclic", "dynamic", "guided"):
            assert_command_does_not_grow(policy, dynamic=False)

    @needs_processes
    def test_dynamic_spec_batches_ship_by_value(self):
        """A dynamic batch, built afresh each iteration and planned
        uncached, ships like any batch: one small region command per
        worker, exact, whatever its tile count and policy."""
        g, scratch = make_planes()
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            for _ in range(2):
                p1[:] = 0
                be.run(spec_batch(TileGrid(12, 12, 4), dynamic=True))
                assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="region") == 2 * 2.0
        assert {row["labels"]["mode"] for row in commands.samples()} == {
            "attach", "region", "detach",
        }
        for policy in ("static", "cyclic", "dynamic", "guided"):
            assert_command_does_not_grow(policy, dynamic=True)

    @needs_processes
    def test_band_batch_computes_fused_steps(self):
        g, scratch = make_planes()
        k = 3
        grid = TileGrid(12, 12, 6, 12)  # two full-width bands, as band_tiles cuts them
        tiles = list(grid)
        spec = BatchSpec("sync_tile_k", 0, 1, grid.geometry, arg=k)
        batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec, dynamic=True)
        with ProcessBackend(2) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g, k).interior)

    @needs_processes
    def test_queue_wait_histogram_sampled(self):
        g, scratch = make_planes()
        reg = MetricsRegistry()
        with ProcessBackend(2, metrics=reg) as be:
            be.bind_planes(g.data, scratch)
            be.run(spec_batch(TileGrid(12, 12, 4)))
            hist = reg.get("easypap_dispatch_queue_wait_seconds")
            assert hist.count() > 0

    @needs_processes
    def test_batch_runs_exactly_after_pool_rebuild(self):
        g, scratch = make_planes()
        batch = spec_batch(TileGrid(12, 12, 4))
        with ProcessBackend(2) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            be.run(batch)
            be._rebuild_pool()  # fresh workers, attached to the live planes
            p1[:] = 0
            be.run(batch)
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)


# -- parallel regions ---------------------------------------------------------


class TestRegion:
    """``pfrontier`` on processes: one region command per worker per segment."""

    @needs_processes
    @pytest.mark.parametrize("k", [1, 4])
    def test_segment_sends_one_command_per_worker(self, k):
        from repro.sandpile.model import center_pile
        from repro.sandpile.simulate import run_to_fixpoint

        g = center_pile(24, 24, 400)
        ref = g.copy()
        reg = MetricsRegistry()
        result = run_to_fixpoint(g, "sandpile", "pfrontier", tile_size=4, nworkers=2, k=k,
                                 metrics=reg)
        want = run_to_fixpoint(ref, "sandpile", "frontier")
        assert np.array_equal(g.interior, ref.interior)
        assert g.sink_absorbed == ref.sink_absorbed
        assert want.iterations <= result.iterations < want.iterations + k
        commands = reg.get("easypap_dispatch_commands_total")
        assert commands.value(mode="region") == 2.0
        assert {row["labels"]["mode"] for row in commands.samples()} == {
            "attach", "region", "detach",
        }
        total = sum(row["value"] for row in commands.samples())
        assert total / result.iterations < 0.1  # attach + region + detach, per job

    @needs_processes
    @pytest.mark.parametrize("k,steps,iterations", [(1, 198, 197), (4, 51, 200)])
    def test_supervised_run_takes_segments(self, tmp_path, k, steps, iterations):
        """Supervisor.run asks for segments: under a tenth of a command per
        grid iteration, as many steps counted as a step-by-step run, and
        with checkpoints every 16 steps one region per interval, plus one."""
        from repro.common.checkpoint import CheckpointStore
        from repro.common.supervisor import Supervisor
        from repro.easypap.job import SandpileJob
        from repro.sandpile.model import center_pile
        from repro.sandpile.theory import stabilize

        oracle = stabilize(center_pile(48, 48, 1152))

        def job(reg):
            return SandpileJob(center_pile(48, 48, 1152), "sandpile", "pfrontier",
                               nworkers=2, tile_size=8, k=k, metrics=reg)

        reg, sreg = MetricsRegistry(), MetricsRegistry()
        with job(reg) as j:
            sup = Supervisor(j, metrics=sreg)
            result = sup.run()
        assert np.array_equal(result["grid"], oracle.interior)
        assert (sup.steps_done, sup.heartbeat.count, result["iterations"]) == (
            steps, steps, iterations,
        )
        counted = sreg.get("supervisor_steps_total")
        assert counted.value(substrate="easypap", job="sandpile/pfrontier") == steps
        commands = reg.get("easypap_dispatch_commands_total")
        assert sum(row["value"] for row in commands.samples()) / iterations < 0.1

        reg = MetricsRegistry()
        with job(reg) as j:
            sup = Supervisor(j, store=CheckpointStore(tmp_path), checkpoint_every_steps=16)
            result = sup.run()
        assert np.array_equal(result["grid"], oracle.interior)
        assert (sup.steps_done, result["iterations"]) == (steps, iterations)
        regions = reg.get("easypap_dispatch_commands_total").value(mode="region") / 2
        assert regions <= steps // 16 + 1

    @needs_processes
    def test_one_step_region_commands_only_workers_with_rows(self):
        from repro.sandpile.pfrontier import ParallelFrontierStepper

        g = Grid2D(16, 16)
        g.interior[1, 1] = 6  # the window stays inside the first tile row
        reg = MetricsRegistry()
        with ParallelFrontierStepper(g, 8, backend=ProcessBackend(2, metrics=reg)) as st:
            assert st()
            assert st.window_log[0][2] == 1
        commands = reg.get("easypap_dispatch_commands_total")
        assert commands.value(mode="region") == 1.0


# -- one command per worker ---------------------------------------------------


class TestClaimedChunks:
    @needs_processes
    @pytest.mark.parametrize("policy", ["dynamic", "guided"])
    def test_one_run_command_per_live_worker(self, policy):
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        batch = spec_batch(TileGrid(12, 12, 4))
        assert len(dynamic_chunk_plan(len(tiles), 2, policy, 1)) > 2  # more chunks than workers
        reg = MetricsRegistry()
        with ProcessBackend(2, policy, metrics=reg) as be:
            _, p1 = be.bind_planes(g.data, scratch)
            r = be.run(batch)
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="region") == 2.0
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

        grid = TileGrid(40, 20, 2)
        tiles = list(grid)
        spec = BatchSpec(name, 0, 0, grid.geometry)
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
            r = be.run(spec_batch(TileGrid(12, 12, 4)))
            commands = reg.get("easypap_dispatch_commands_total")
            assert commands.value(mode="region") == 2.0 + 2.0 + 1.0
            assert sorted(s.task for s in r.spans) == list(range(len(tiles)))
            assert np.array_equal(p1[1:-1, 1:-1], expected_after(g).interior)


# -- selections of a batch ----------------------------------------------------


class TestResidentSelections:
    def test_subset_maps_positions_to_base_tasks(self):
        tiles = list(TileGrid(12, 12, 4))
        base = spec_batch(TileGrid(12, 12, 4))
        sel = base.subset([1, 4, 5])
        assert sel.dynamic and sel.spec is base.spec
        assert sel.tiles == [tiles[1], tiles[4], tiles[5]]
        assert sel.tile_coords(2) == (tiles[5].ty, tiles[5].tx)

    def test_subset_indices_must_ascend(self):
        base = spec_batch(TileGrid(12, 12, 4))
        with pytest.raises(ConfigurationError):
            base.subset([4, 1])

    @needs_processes
    def test_contiguous_selection_command_stays_small(self):
        """A selection ships its tiles as index spans: it runs exactly the
        selected tiles, and a contiguous one of 8 or of 512 tiles sends a
        command of a few hundred bytes."""
        g, scratch = make_planes()
        tiles = list(TileGrid(12, 12, 4))
        idx = [1, 2, 4, 5, 8]
        with ProcessBackend(2, "dynamic") as be:
            _, p1 = be.bind_planes(g.data, scratch)
            r = be.run(spec_batch(TileGrid(12, 12, 4)).subset(idx))
            assert sorted(s.task for s in r.spans) == list(range(len(idx)))
            assert np.array_equal(p1, selected_after(g, scratch, [tiles[i] for i in idx]))
        g, scratch = make_planes(128)
        base = spec_batch(TileGrid(128, 128, 4))
        small, big = (
            region_bytes(base.subset(range(100, 100 + m)), "dynamic", (g.data, scratch))
            for m in (8, 512)
        )
        assert big <= 512
        assert big <= small + 16

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
    """close() unlinks the planes and leaves no worker set leased: the set
    goes idle, and once the idle pool is shut down no child process or fd
    of the backend remains."""
    g, scratch = make_planes()
    batch = spec_batch(TileGrid(12, 12, 4))
    with ProcessBackend(1) as warm:  # starts the shared-memory resource tracker
        warm.bind_planes(g.data, scratch)
    executor.shutdown_idle_pool()
    before = len(os.listdir("/proc/self/fd"))
    be = ProcessBackend(2, "dynamic")
    be.bind_planes(g.data, scratch)
    names = [seg.name for seg in be._shm]
    be.run(batch)
    be._rebuild_pool()
    be.run(batch)
    be.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert executor.shutdown_idle_pool() == 2  # the rebuilt set, returned idle
    assert len(os.listdir("/proc/self/fd")) == before
    assert multiprocessing.active_children() == []

"""Fault-injection tests: worker crashes, retries, degradation paths.

These kill real pool workers (``os._exit`` inside the child), so they are
marked ``faults`` and run as their own CI job with a hard timeout; locally
they are part of the normal suite.
"""

import os

import numpy as np
import pytest

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.errors import SchedulingError
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.executor import BatchSpec, ProcessBackend, TaskBatch
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import TileGrid
from repro.sandpile.kernels import sync_step, sync_tile

pytestmark = pytest.mark.faults

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def make_sync_setup(n=8, grains=6):
    """Grid + scratch + tiles + picklable spec + expected next state."""
    g = Grid2D(n, n)
    g.interior[:] = grains
    scratch = g.data.copy()
    tiles = list(TileGrid(n, n, 4))
    spec = BatchSpec("sync_tile", 0, 1, (n, n, 4, 4))
    expected = g.copy()
    sync_step(expected)
    return g, scratch, tiles, spec, expected


def make_closure_batch(p0, p1, tiles, spec):
    """A batch whose parent-side closures do the same work as the spec.

    Worker processes execute the spec; if the backend degrades to threads,
    the closures run against the same shared planes, so either path must
    produce identical tile results.
    """

    def mk(tile):
        def task():
            return sync_tile(p0, p1, tile)

        return task

    return TaskBatch([mk(t) for t in tiles], tiles=tiles, spec=spec)


class TestWorkerCrashRecovery:
    @needs_processes
    @pytest.mark.parametrize("policy", ["static", "cyclic", "dynamic", "guided"])
    def test_kill_mid_batch_recovers_on_rebuilt_pool(self, policy):
        """Pre-assigned (static/cyclic) and claimed (dynamic/guided) chunks
        alike: the killed worker's tasks re-run on the rebuilt pool."""
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2}, max_fires=1)
        with ProcessBackend(
            2, policy, retry=FAST_RETRY, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            # the batch completed despite a genuine worker death
            assert injector.fires == 1
            assert len(r.spans) == len(tiles)
            assert r.returns is not None and any(r.returns)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            # still on processes: the pool was rebuilt, not abandoned
            assert be.uses_processes
        assert len(log.by_action("pool-rebuild")) >= 1

    @needs_processes
    def test_recovery_preserves_multi_iteration_fixpoint(self):
        """A mid-run crash must not corrupt the simulation outcome."""
        from repro.sandpile.omp import TiledSyncStepper
        from repro.sandpile.reference import sync_step_reference

        g = Grid2D(12, 12)
        g.interior[:] = 5
        ref = g.copy()
        while sync_step_reference(ref):
            pass

        injector = FaultInjector(kill_on_tasks={1}, max_fires=1)
        be = ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=DegradationLog(), fault_injector=injector
        )
        stepper = TiledSyncStepper(g, 4, backend=be)
        try:
            while stepper():
                pass
        finally:
            stepper.close()
        assert injector.fires == 1
        assert np.array_equal(g.interior, ref.interior)


class TestFrontierCrashRecovery:
    @needs_processes
    def test_kill_mid_frontier_batch_resumes_from_dirty_bbox(self):
        """A worker death inside a one-step ``pfrontier`` region must heal
        on the rebuilt pool and resume from the correct dirty bbox — the
        whole run stays bit-identical to the single-worker frontier."""
        from repro.sandpile.pfrontier import ParallelFrontierStepper
        from repro.sandpile.vectorized import FrontierSyncStepper

        ref = Grid2D(24, 24)
        ref.interior[4, 4] = 500
        ref.interior[18, 19] = 300
        g = ref.copy()
        ref_stepper = FrontierSyncStepper(ref)
        ref_steps = 0
        while ref_stepper():
            ref_steps += 1

        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={1}, max_fires=1)
        be = ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        )
        with ParallelFrontierStepper(g, tile_size=4, backend=be) as stepper:
            steps = 0
            while stepper():
                steps += 1
                # recovery must not corrupt the frontier's view of the grid:
                # the next bbox is recomputed from the healed window
                assert stepper._bbox is None or stepper._bbox[0] < stepper._bbox[1]
            assert be.uses_processes  # rebuilt, not degraded to threads
        assert injector.fires == 1
        assert len(log.by_action("pool-rebuild")) >= 1
        assert steps == ref_steps
        assert np.array_equal(g.interior, ref.interior)
        assert g.sink_absorbed == ref.sink_absorbed


def make_selection_setup(idx, n=16, grains=6):
    """A 16-tile base batch, its selection *idx*, and the expected planes.

    Worker processes run the spec on the selected tiles; the parent-side
    closures (the thread path) do the same work.
    """
    g = Grid2D(n, n)
    g.interior[:] = grains
    scratch = g.data.copy()
    tiles = list(TileGrid(n, n, 4))
    spec = BatchSpec("sync_tile", 0, 1, (n, n, 4, 4))
    full = g.copy()
    sync_step(full)
    expected = scratch.copy()
    for i in idx:
        t = tiles[i]
        ys, xs = slice(t.y0 + 1, t.y1 + 1), slice(t.x0 + 1, t.x1 + 1)
        expected[ys, xs] = full.data[ys, xs]
    return g, scratch, tiles, spec, expected


class TestSelectionFaults:
    """Selections ship their tiles as index spans; dynamic chunks beyond
    each worker's first are claimed from the shared queue."""

    IDX = [1, 2, 5, 6, 9, 10, 13, 14]

    @needs_processes
    def test_kill_inside_claimed_selection_recovers_bit_identical(self):
        g, scratch, tiles, spec, expected = make_selection_setup(self.IDX)
        log = DegradationLog()
        # two workers start on tasks 0 and 1; task 5 is a claimed chunk
        injector = FaultInjector(kill_on_tasks={5}, max_fires=1)
        with ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            sel = make_closure_batch(p0, p1, tiles, spec).subset(self.IDX)
            r = be.run(sel)
            assert injector.fires == 1
            assert sorted(s.task for s in r.spans) == list(range(len(self.IDX)))
            assert np.array_equal(p1, expected)
            assert be.uses_processes
        assert len(log.by_action("pool-rebuild")) >= 1

    @needs_processes
    def test_no_fallback_names_task_position_and_its_tile(self):
        g, scratch, tiles, spec, _ = make_selection_setup(self.IDX)
        injector = FaultInjector(raise_on_tasks={3}, max_fires=100)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessBackend(
            2, "dynamic", retry=retry, allow_fallback=False,
            degradation=DegradationLog(), fault_injector=injector,
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            sel = make_closure_batch(p0, p1, tiles, spec).subset(self.IDX)
            with pytest.raises(SchedulingError) as exc_info:
                be.run(sel)
        msg = str(exc_info.value)
        t = tiles[self.IDX[3]]  # the tile at position 3, not tile id 3
        assert f"task 3 tile(ty={t.ty},tx={t.tx})" in msg
        assert f"tile(ty={tiles[3].ty},tx={tiles[3].tx})" not in msg

    @needs_processes
    def test_aborted_attempt_leaves_no_stale_claims(self):
        """One worker raising on its first chunk stops claiming, leaving the
        other chunk ids in the queue; the retry and the next batch still
        run every task exactly once with exact planes and returns."""
        g, scratch, tiles, spec, expected = make_selection_setup(self.IDX)
        injector = FaultInjector(raise_on_tasks={0}, max_fires=1)
        with ProcessBackend(
            1, "dynamic", retry=FAST_RETRY, degradation=DegradationLog(),
            fault_injector=injector,
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            base = make_closure_batch(p0, p1, tiles, spec)
            be.run(base.subset(self.IDX))
            assert injector.fires == 1
            assert np.array_equal(p1, expected)
            rest = [i for i in range(len(tiles)) if i not in self.IDX]
            r = be.run(base.subset(rest))
            assert sorted(s.task for s in r.spans) == list(range(len(rest)))
            assert r.returns == [sync_tile(g.data, scratch.copy(), tiles[i]) for i in rest]
            full = g.copy()
            sync_step(full)
            assert np.array_equal(p1[1:-1, 1:-1], full.interior)


class TestRetryExhaustion:
    @needs_processes
    def test_exhaustion_degrades_to_threads(self):
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        # more fires than attempts: every rebuilt pool dies again
        injector = FaultInjector(kill_on_tasks={2}, max_fires=100)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessBackend(
            2, "dynamic", retry=retry, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            # degraded, but the closures completed the work on threads
            assert not be.uses_processes
            assert len(r.spans) == len(tiles)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
        assert len(log.by_action("thread-fallback")) == 1
        assert len(log.by_action("pool-rebuild")) >= 1

    @needs_processes
    def test_no_fallback_raises_naming_unfinished_tiles(self):
        g, scratch, tiles, spec, _ = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2}, max_fires=100)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessBackend(
            2,
            "dynamic",
            retry=retry,
            allow_fallback=False,
            degradation=log,
            fault_injector=injector,
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            with pytest.raises(SchedulingError) as exc_info:
                be.run(make_closure_batch(p0, p1, tiles, spec))
        msg = str(exc_info.value)
        assert "retries exhausted" in msg
        assert "fallback disabled" in msg
        assert "task 2" in msg  # the unfinished tile is named
        assert "tile(" in msg
        assert len(log.by_action("give-up")) == 1

    @needs_processes
    def test_injected_raise_is_retried(self):
        """An in-process task exception (not a crash) also goes through retry."""
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(raise_on_tasks={0}, max_fires=1)
        with ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            be.run(make_closure_batch(p0, p1, tiles, spec))
            assert injector.fires == 1
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            assert be.uses_processes

    @needs_processes
    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    def test_raising_tile_keeps_the_rows_before_it(self, policy):
        """A worker whose tile raises still reports the tiles it finished,
        so the retry runs only the rest: a counting kernel counts every
        tile once."""
        import repro.easypap.executor as executor

        name = "tmp_count_tile"

        def count(planes, task):
            planes[0][task.tile.index] += 1

        grid = TileGrid(16, 1, 1)
        tiles = list(grid)
        batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles,
                          spec=BatchSpec(name, 0, 0, grid.geometry))
        log = DegradationLog()
        injector = FaultInjector(raise_on_tasks={5}, max_fires=1)
        executor.register_tile_kernel(name, count)  # before the fork
        try:
            with ProcessBackend(
                2, policy, retry=FAST_RETRY, degradation=log, fault_injector=injector
            ) as be:
                (counts,) = be.bind_planes(np.zeros(len(tiles), dtype=np.int64))
                r = be.run(batch)
                assert counts.tolist() == [1] * len(tiles)
                assert sorted(s.task for s in r.spans) == list(range(len(tiles)))
        finally:
            executor._TILE_KERNELS.pop(name, None)
        assert injector.fires == 1
        (rebuild,) = log.by_action("pool-rebuild")
        assert "InjectedFault" in rebuild.reason


class TestBatchHang:
    @needs_processes
    def test_hang_past_task_timeout(self):
        """A tile batch whose worker stalls fails its attempt after
        ``task_timeout``; the stalled worker is killed, the missing task
        re-runs on the rebuilt pool, and that pool is parked clean."""
        import multiprocessing
        import time

        import repro.easypap.executor as executor

        name = "tmp_stalling_sync_tile"
        calls = multiprocessing.get_context("fork").Value("i", 0)
        hung = multiprocessing.get_context("fork").Value("i", 0)
        tile_kernel = executor.get_tile_kernel("sync_tile")

        def stalling(planes, task):
            with calls.get_lock():
                calls.value += 1
                stall = calls.value == 2
            if stall:
                hung.value = os.getpid()
                time.sleep(60)
            return tile_kernel(planes, task)

        g, scratch, tiles, _, expected = make_sync_setup()
        spec = BatchSpec(name, 0, 1, (8, 8, 4, 4))
        log = DegradationLog()
        executor.shutdown_idle_pool()
        executor.register_tile_kernel(name, stalling)  # before the fork
        try:
            with ProcessBackend(
                2, "dynamic", retry=FAST_RETRY, degradation=log, task_timeout=0.5
            ) as be:
                p0, p1 = be.bind_planes(g.data, scratch)
                r = be.run(make_closure_batch(p0, p1, tiles, spec))
                assert sorted(s.task for s in r.spans) == list(range(len(tiles)))
                assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
                assert be.uses_processes
        finally:
            executor._TILE_KERNELS.pop(name, None)
        (rebuild,) = log.by_action("pool-rebuild")
        assert "task_timeout" in rebuild.reason
        with pytest.raises(ProcessLookupError):
            os.kill(hung.value, 0)  # killed and reaped, so not in the parked set
        assert executor.shutdown_idle_pool() == 2  # the rebuilt set, clean


class TestDiagnostics:
    @needs_processes
    def test_missing_task_description_names_tiles_and_plan(self):
        """Satellite: the opaque 'some tasks did not complete' error is gone."""
        g, scratch, tiles, spec, _ = make_sync_setup()
        from repro.easypap.schedule import chunk_plan

        be = ProcessBackend(2, "static", chunk=1)
        be.bind_planes(g.data, scratch)
        try:
            batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
            chunks = chunk_plan(len(batch), be.nworkers, be.policy, be.chunk)
            desc = be._describe_missing(batch, {1, 3}, chunks)
            assert "task 1" in desc and "task 3" in desc
            assert "tile(" in desc
            assert "policy='static'" in desc
            assert "worker" in desc
        finally:
            be.close()

    @needs_processes
    def test_close_after_crash_is_exception_safe(self):
        g, scratch, tiles, spec, _ = make_sync_setup()
        injector = FaultInjector(kill_on_tasks={0}, max_fires=100)
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        be = ProcessBackend(
            2, retry=retry, allow_fallback=False,
            degradation=DegradationLog(), fault_injector=injector,
        )
        be.bind_planes(g.data, scratch)
        with pytest.raises(SchedulingError):
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))
        be.close()  # must not raise or leak shared memory
        be.close()  # idempotent


def _region_reference(base, k):
    """The call-by-call sequential pfrontier run of *base*: stepper state."""
    from repro.sandpile.pfrontier import ParallelFrontierStepper

    with ParallelFrontierStepper(base.copy(), tile_size=4, k=k, nbands=2) as st:
        while st():
            pass
        return _region_state(st)


def _region_state(st):
    return (st.grid.data.tobytes(), st.grid.sink_absorbed, st.iterations,
            list(st.window_log), st.tiles_computed, st.tiles_skipped)


def _region_segment(base, k, **backend_opts):
    """One segment to the fixpoint on 2 worker processes: (state, backend)."""
    from repro.sandpile.pfrontier import ParallelFrontierStepper

    be = ProcessBackend(2, "dynamic", **backend_opts)
    with ParallelFrontierStepper(base.copy(), tile_size=4, k=k, backend=be) as st:
        assert st.advance(10**6) < 10**6  # the segment reached the fixpoint
        return _region_state(st), be


def _region_grid():
    g = Grid2D(24, 24)
    g.interior[4, 4] = 500
    g.interior[18, 19] = 300
    return g


class TestRegionFaults:
    """Faults inside a pfrontier segment run as one parallel region.

    Worker *w*'s share of step *s* is fault-injector task ``2 * s + w``, so
    each case names a step well past the first.  Every case must end on
    the sequential run's grid, sink, iteration count, window log and tile
    counters, after logging a pool rebuild.
    """

    @needs_processes
    @pytest.mark.parametrize("k", [1, 2])
    def test_worker_killed_at_a_later_step(self, k):
        base = _region_grid()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=1)
        state, be = _region_segment(
            base, k, retry=FAST_RETRY, degradation=log, fault_injector=injector
        )
        assert injector.fires == 1
        assert log.by_action("pool-rebuild")
        assert be.uses_processes
        assert state == _region_reference(base, k)

    @needs_processes
    def test_share_that_raises_mid_segment(self):
        base = _region_grid()
        log = DegradationLog()
        injector = FaultInjector(raise_on_tasks={2 * 4}, max_fires=1)
        state, be = _region_segment(
            base, 1, retry=FAST_RETRY, degradation=log, fault_injector=injector
        )
        assert injector.fires == 1
        (rebuild,) = log.by_action("pool-rebuild")
        assert "InjectedFault" in rebuild.reason
        assert state == _region_reference(base, 1)

    @needs_processes
    def test_hang_past_task_timeout(self, monkeypatch):
        """A share that stops making progress fails the attempt after
        ``task_timeout``; the hung worker is killed, never parked."""
        import multiprocessing
        import time

        import repro.easypap.executor as executor
        import repro.sandpile.pfrontier as pfrontier

        calls = multiprocessing.get_context("fork").Value("i", 0)
        hung = multiprocessing.get_context("fork").Value("i", 0)
        gather = pfrontier.sync_gather

        def stalling_gather(*args):
            with calls.get_lock():
                calls.value += 1
                stall = calls.value == 12
            if stall:
                hung.value = os.getpid()
                time.sleep(60)
            return gather(*args)

        monkeypatch.setattr(pfrontier, "sync_gather", stalling_gather)
        executor.shutdown_idle_pool()  # the next lease forks, with the patch
        base = _region_grid()
        log = DegradationLog()
        state, be = _region_segment(
            base, 1, retry=FAST_RETRY, degradation=log, task_timeout=0.5
        )
        (rebuild,) = log.by_action("pool-rebuild")
        assert "task_timeout" in rebuild.reason
        assert state == _region_reference(base, 1)
        with pytest.raises(ProcessLookupError):
            os.kill(hung.value, 0)  # killed and reaped, so not in the parked set
        assert executor.shutdown_idle_pool() == 2  # the rebuilt set, clean

    @needs_processes
    def test_retries_exhausted_thread_fallback_finishes_the_segment(self):
        base = _region_grid()
        log = DegradationLog()
        # the kill fires again in every attempt, each resumed at step 5
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=3)
        state, be = _region_segment(
            base, 1, retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            degradation=log, fault_injector=injector,
        )
        assert injector.fires == 3
        assert len(log.by_action("pool-rebuild")) == 2
        assert len(log.by_action("thread-fallback")) == 1
        assert not be.uses_processes
        assert state == _region_reference(base, 1)

    @needs_processes
    def test_no_fallback_gives_up(self):
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=100)
        with pytest.raises(SchedulingError, match="retries exhausted"):
            _region_segment(
                _region_grid(), 1, retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                allow_fallback=False, degradation=log, fault_injector=injector,
            )
        assert len(log.by_action("give-up")) == 1


class TestJobSegmentFaults:
    """A ``pfrontier`` segment that raises under its :class:`SandpileJob`:
    the job keeps the steps the segment published, and the next segment
    runs on a stepper rebuilt from the grid."""

    @staticmethod
    def _job(injector, log):
        from repro.easypap.job import SandpileJob
        from repro.sandpile.model import center_pile

        return SandpileJob(
            center_pile(24, 24, 1200), "sandpile", "pfrontier", nworkers=2, tile_size=8,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0), allow_fallback=False,
            fault_injector=injector, degradation=log,
        )

    @staticmethod
    def _check_fixpoint(result):
        from repro.sandpile.model import center_pile
        from repro.sandpile.simulate import run_to_fixpoint
        from repro.sandpile.theory import stabilize

        oracle = stabilize(center_pile(24, 24, 1200))
        assert np.array_equal(result["grid"], oracle.interior)
        assert result["sink_absorbed"] == oracle.sink_absorbed
        frontier = run_to_fixpoint(center_pile(24, 24, 1200), "sandpile", "frontier")
        assert result["iterations"] == frontier.iterations == 213

    @needs_processes
    def test_raising_segment_keeps_the_steps_it_published(self):
        from repro.sandpile.model import center_pile
        from repro.sandpile.vectorized import FrontierSyncStepper

        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=1)
        with self._job(injector, log) as job:
            with pytest.raises(SchedulingError, match="retries exhausted"):
                job.advance(10**6)
            assert job.iterations == 5
            ref = center_pile(24, 24, 1200)
            stepper = FrontierSyncStepper(ref)
            for _ in range(5):
                stepper()
            assert np.array_equal(job.grid.data, ref.data)
            assert job.grid.sink_absorbed == ref.sink_absorbed
            result = job.run()  # on a stepper rebuilt from the grid
        assert injector.fires == 1
        assert len(log.by_action("give-up")) == 1
        self._check_fixpoint(result)

    @needs_processes
    def test_supervisor_retry_resumes_on_a_rebuilt_stepper(self):
        from repro.common.supervisor import Supervisor

        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={1})
        with self._job(injector, log) as job:
            sup = Supervisor(job, retry=RetryPolicy(max_attempts=3, base_delay=0.0))
            result = sup.run()
        assert injector.fires == 1
        assert len(log.by_action("give-up")) == 1
        assert sup.retries_used == 1
        self._check_fixpoint(result)

    @needs_processes
    def test_supervisor_counts_the_steps_a_raising_segment_published(self):
        """The steps a raising segment published count once each, as they
        would step by step: 213 iterations plus the call that finds the
        grid stable, with or without the fault."""
        from repro.common.supervisor import Supervisor
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=1)
        with self._job(injector, DegradationLog()) as job:
            sup = Supervisor(job, retry=RetryPolicy(max_attempts=3, base_delay=0.0), metrics=reg)
            result = sup.run()
        steps = reg.get("supervisor_steps_total").value(
            substrate="easypap", job="sandpile/pfrontier"
        )
        assert injector.fires == 1
        assert sup.retries_used == 1
        assert (sup.steps_done, sup.heartbeat.count, steps) == (214, 214, 214.0)
        self._check_fixpoint(result)

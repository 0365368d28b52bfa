"""The idle worker pool: what one lease may and may not hand the next.

A clean worker set outlives its backend and is leased by the next backend
with as many workers.  These tests pin the rules that keep that safe:
a dead, failed, stale or outdated set is never leased again, one job's
planes, residents, claim ids and replies never reach the next, and
threads leasing at once each get a set of their own.  They kill real
workers, so they carry the ``faults`` marker.
"""

import multiprocessing
import os
import pickle
import signal
import sys
import threading

import numpy as np
import pytest

import repro.easypap.executor as executor
import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.errors import SchedulingError
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.executor import ProcessBackend, TaskBatch, TileTask
from repro.easypap.tiling import TileGrid
from repro.sandpile.model import center_pile
from repro.sandpile.pfrontier import ParallelFrontierStepper
from repro.sandpile.theory import stabilize

pytestmark = [
    pytest.mark.faults,
    pytest.mark.skipif(not ProcessBackend.available(), reason="fork/shared_memory unavailable"),
]

ONE_ATTEMPT = RetryPolicy(max_attempts=1, base_delay=0.0)


def pfrontier_job(grid, **backend_opts):
    """Run pfrontier on a 2-worker process backend to the fixpoint.

    Returns the final interior, the sink count and the leased workers' pids.
    """
    be = ProcessBackend(2, "dynamic", **backend_opts)
    with ParallelFrontierStepper(grid, 4, backend=be) as st:
        pids = set(be.worker_pids)
        while st():
            pass
    return grid.interior.copy(), grid.sink_absorbed, pids


def oracle(grid):
    g = stabilize(grid.copy())
    return g.interior, g.sink_absorbed


def assert_fixpoint(grid, result):
    interior, sink, _ = result
    want_interior, want_sink = oracle(grid)
    assert np.array_equal(interior, want_interior)
    assert sink == want_sink


def children() -> dict[int, multiprocessing.Process]:
    return {p.pid: p for p in multiprocessing.active_children()}


def _refuse():
    raise RuntimeError("this reply cannot be loaded")


class _Unloadable:
    """Pickles in a worker; loading it in the parent raises."""

    def __reduce__(self):
        return (_refuse, ())


def _job_in_child(conn) -> None:
    conn.send(pfrontier_job(center_pile(16, 16, 300))[2])
    conn.close()


class TestNeverLeased:
    def test_fault_injector_backends_never_pool(self):
        g = center_pile(16, 16, 300)
        injected = pfrontier_job(g.copy(), fault_injector=FaultInjector(max_fires=0))
        assert not injected[2] & set(children())
        assert executor.shutdown_idle_pool() == 0

    def test_idle_worker_killed_between_jobs(self):
        g = center_pile(16, 16, 300)
        first = pfrontier_job(g.copy())
        victim = children()[min(first[2])]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert victim.exitcode == -signal.SIGKILL
        log = DegradationLog()
        second = pfrontier_job(g.copy(), degradation=log)
        assert not second[2] & first[2]  # a fresh set, not the survivor
        assert len(log) == 0  # the lease saw the death; no attempt failed
        assert_fixpoint(g, second)

    def test_job_after_a_failed_job_gets_a_fresh_set(self):
        g = center_pile(16, 16, 300)
        log = DegradationLog()
        be = ProcessBackend(2, "dynamic", retry=ONE_ATTEMPT, degradation=log)
        with ParallelFrontierStepper(g.copy(), 4, backend=be) as st:
            st()
            failed = set(be.worker_pids)
            # worker 0 takes the first chunk of every batch: the next step
            # finds it dead, and with one attempt the job falls back to threads
            os.kill(be.worker_pids[0], signal.SIGKILL)
            while st():
                pass
            assert not be.uses_processes
        assert log.by_action("thread-fallback")
        after = pfrontier_job(g.copy())
        assert not after[2] & failed
        assert_fixpoint(g, after)

    def test_set_with_a_stale_claim_id_is_not_leased(self):
        g = center_pile(16, 16, 300)
        be = ProcessBackend(2, "dynamic")
        with ParallelFrontierStepper(g.copy(), 4, backend=be) as st:
            st()
            stale = set(be.worker_pids)
            os.write(be._set.claims[1], (0).to_bytes(4, "little"))
        after = pfrontier_job(g.copy())
        assert not after[2] & stale
        assert_fixpoint(g, after)

    def test_set_left_mid_barrier_is_not_leased(self):
        """An error escaping run() while replies are still owed leaves the
        set unfit for the next lease (the last attempt did not succeed)."""
        name = "tmp_unloadable_kernel"
        executor.register_tile_kernel(name, lambda planes, task: _Unloadable())
        try:
            tiles = list(TileGrid(8, 8, 2))
            batch = TaskBatch(
                [lambda: None] * len(tiles),
                tiles=tiles,
                spec=[TileTask(name, 0, 0, t) for t in tiles],
            )
            with ProcessBackend(2, "static") as be:
                be.bind_planes(np.zeros(len(tiles), dtype=np.int64))
                dirty = set(be.worker_pids)
                with pytest.raises(RuntimeError, match="cannot be loaded"):
                    be.run(batch)
        finally:
            executor._TILE_KERNELS.pop(name, None)
        g = center_pile(16, 16, 300)
        after = pfrontier_job(g.copy())
        assert not after[2] & dirty
        assert_fixpoint(g, after)

    def test_kernel_registered_after_the_fork_runs_in_the_next_job(self):
        name = "tmp_late_kernel"
        first = pfrontier_job(center_pile(16, 16, 300))

        def mark(planes, task):
            planes[0][task.tile.index] = 7

        executor.register_tile_kernel(name, mark)  # after the idle set forked
        try:
            tiles = list(TileGrid(4, 4, 2))
            batch = TaskBatch(
                [lambda: None] * len(tiles),
                tiles=tiles,
                spec=[TileTask(name, 0, 0, t) for t in tiles],
            )
            log = DegradationLog()
            with ProcessBackend(
                2, retry=ONE_ATTEMPT, allow_fallback=False, degradation=log
            ) as be:
                (plane,) = be.bind_planes(np.zeros(len(tiles), dtype=np.int64))
                assert not set(be.worker_pids) & first[2]
                be.run(batch)
                assert plane.tolist() == [7] * len(tiles)
            assert len(log) == 0
        finally:
            executor._TILE_KERNELS.pop(name, None)


class TestForkedChild:
    def test_forked_child_does_not_lease_the_parents_idle_set(self):
        first = pfrontier_job(center_pile(16, 16, 300))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_job_in_child, args=(send,))
        child.start()
        send.close()
        assert recv.poll(60)
        pids = recv.recv()
        recv.close()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert not pids & first[2]
        assert first[2] <= set(children())  # still idle here, untouched


class TestIsolation:
    def test_back_to_back_jobs_share_nothing_but_the_processes(self):
        """Job A and job B both register resident id 0 (different grid
        sizes, different tiles), and B's first seq tags follow A's: a reply
        A's workers still owe cannot satisfy B's barrier."""
        a, b = center_pile(12, 12, 200), center_pile(20, 20, 500)
        be_a = ProcessBackend(2, "dynamic")
        with ParallelFrontierStepper(a.copy(), 4, backend=be_a) as st:
            while st():
                pass
            pids = set(be_a.worker_pids)
            ws = be_a._set
            assert ws.seq > 1
            # a reply left over from A: tagged 1, as A's first command was
            ws.workers[0].conn.send_bytes(pickle.dumps(("run", 1, 0.0, None, [], None)))
        assert pids <= set(children())  # parked idle, not stopped
        grid_b = b.copy()
        be_b = ProcessBackend(2, "dynamic", retry=ONE_ATTEMPT, allow_fallback=False)
        with ParallelFrontierStepper(grid_b, 4, backend=be_b) as st:
            assert set(be_b.worker_pids) == pids  # the same set, leased again
            while st():
                pass
        want_interior, want_sink = oracle(b)
        assert np.array_equal(grid_b.interior, want_interior)
        assert grid_b.sink_absorbed == want_sink

    def test_fresh_lease_holds_no_resident_of_the_last(self):
        """A run against resident id 0 before the new lease registers it
        fails in the worker instead of running the last lease's tasks."""
        first = pfrontier_job(center_pile(12, 12, 200))  # registers id 0, then parks
        with ProcessBackend(2, "dynamic", retry=ONE_ATTEMPT, allow_fallback=False) as be:
            be.bind_planes(np.zeros((14, 14), dtype=np.int64), np.zeros((14, 14), dtype=np.int64))
            assert set(be.worker_pids) == first[2]
            tiles = list(TileGrid(12, 12, 4))
            spec = [TileTask("sync_tile_nc", 0, 1, t) for t in tiles]
            batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
            be._resident_for = lambda batch: 0  # skip this lease's registration
            with pytest.raises(SchedulingError) as exc_info:
                be.run(batch)
        assert isinstance(exc_info.value.__cause__, KeyError)


class TestConcurrentLeases:
    def test_threads_leasing_at_once_never_share_a_worker(self):
        """More threads than cores lease, run and return sets in a loop,
        racing for the one idle slot: no worker may serve two running jobs
        at once, and every job reaches the fixpoint."""
        g = center_pile(16, 16, 300)
        want_interior, want_sink = oracle(g)
        busy: set[int] = set()
        lock = threading.Lock()
        errors: list[str] = []
        start = threading.Barrier(4)

        def client():
            start.wait()
            for _ in range(5):
                grid = g.copy()
                be = ProcessBackend(2, "dynamic")
                with ParallelFrontierStepper(grid, 4, backend=be) as st:
                    pids = set(be.worker_pids)
                    with lock:
                        if pids & busy:
                            errors.append(f"workers {sorted(pids & busy)} leased twice")
                        busy.update(pids)
                    while st():
                        pass
                    with lock:
                        busy.difference_update(pids)
                if not (np.array_equal(grid.interior, want_interior)
                        and grid.sink_absorbed == want_sink):
                    errors.append("wrong fixpoint")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

"""Tests for SandpileJob, the easypap Job adapter."""

import threading
import time

import numpy as np
import pytest

from repro.common.checkpoint import CheckpointStore
from repro.common.errors import CheckpointError
from repro.common.resilience import Deadline
from repro.common.supervisor import JobInterrupted, Supervisor
from repro.easypap.executor import ProcessBackend
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob
from repro.sandpile.model import center_pile
from repro.sandpile.simulate import run_to_fixpoint
from repro.sandpile.theory import stabilize
from repro.sandpile.vectorized import FrontierSyncStepper


def _pile(n=16, grains=256):
    g = Grid2D(n, n)
    g.interior[:] = 0
    g.interior[n // 2, n // 2] = grains
    return g


def _fingerprint(result):
    return (result["iterations"], result["sink_absorbed"], result["grid"].tobytes())


class TestRun:
    def test_runs_to_fixpoint(self):
        with SandpileJob(_pile()) as job:
            result = job.run()
        assert result["iterations"] > 0
        assert int(result["grid"].max()) < 4  # stable: nothing left to topple

    def test_deterministic(self):
        with SandpileJob(_pile()) as a, SandpileJob(_pile()) as b:
            assert _fingerprint(a.run()) == _fingerprint(b.run())

    def test_progress_reports_iterations(self):
        with SandpileJob(_pile()) as job:
            job.step()
            p = job.progress()
            assert p.steps_done == 1 and not p.done
            job.run()
            assert job.progress().done


class TestCheckpoint:
    def test_mid_run_roundtrip_bit_identical(self):
        with SandpileJob(_pile()) as oracle:
            ref = _fingerprint(oracle.run())
        with SandpileJob(_pile()) as job:
            for _ in range(ref[0] // 2):
                job.step()
            snap = job.checkpoint()
        with SandpileJob(_pile()) as fresh:
            fresh.restore(snap)
            assert _fingerprint(fresh.run()) == ref

    def test_restore_rejects_mismatches(self):
        with SandpileJob(_pile()) as job:
            snap = job.checkpoint()
        with SandpileJob(_pile(), variant="omp") as other:
            with pytest.raises(CheckpointError, match="sandpile/omp"):
                other.restore(snap)
        with SandpileJob(_pile(n=8)) as small:
            with pytest.raises(CheckpointError, match="does not match"):
                small.restore(snap)
        with SandpileJob(_pile()) as foreign:
            with pytest.raises(CheckpointError, match="kind"):
                foreign.restore({"kind": "mapreduce"})

    def test_snapshot_plane_is_a_copy(self):
        with SandpileJob(_pile()) as job:
            job.step()
            snap = job.checkpoint()
            before = snap["plane"].copy()
            job.run()
            assert np.array_equal(snap["plane"], before)


def _big_pile():
    return center_pile(64, 64, 12_000)  # 2,093 grid iterations to its fixpoint


def _stop_once_running(job, sup):
    """Request a stop from this thread once the grid has started to move."""
    start = _big_pile().interior
    give_up = time.monotonic() + 60
    while np.array_equal(job.grid.interior, start) and time.monotonic() < give_up:
        time.sleep(0.001)
    sup.request_stop()


class TestMidSegmentStop:
    """A stop that arrives while a ``pfrontier`` segment runs, from another
    thread or by an expiring deadline, ends the segment at a step boundary
    every participant agrees on, on worker processes and in process."""

    @pytest.mark.parametrize("trigger", ["request_stop", "deadline"])
    @pytest.mark.parametrize("backend", [
        pytest.param("process", marks=pytest.mark.skipif(
            not ProcessBackend.available(), reason="fork/shared_memory unavailable")),
        "sequential",
    ])
    def test_interrupts_at_a_step_boundary_and_resumes(self, tmp_path, backend, trigger):
        opts = dict(variant="pfrontier", backend=backend, nworkers=2, tile_size=8)
        steps = run_to_fixpoint(_big_pile(), "sandpile", "frontier").iterations + 1
        store = CheckpointStore(tmp_path)
        with SandpileJob(_big_pile(), **opts) as job:
            sup = Supervisor(job, store=store)
            watcher = None
            if trigger == "request_stop":
                watcher = threading.Thread(target=_stop_once_running, args=(job, sup))
                watcher.start()
            try:
                with pytest.raises(JobInterrupted) as info:
                    sup.run(deadline=Deadline(0.02) if trigger == "deadline" else None)
            finally:
                if watcher is not None:
                    watcher.join()
        intr = info.value
        assert intr.snapshot_path is not None
        assert 0 < intr.steps_done < steps  # one segment, stopped inside it
        snap = store.load_latest()
        assert snap.step == snap.state["iterations"] == intr.steps_done  # k = 1
        ref = _big_pile()
        frontier = FrontierSyncStepper(ref)
        for _ in range(intr.steps_done):
            frontier()
        assert np.array_equal(snap.state["plane"][1:-1, 1:-1], ref.interior)
        assert snap.state["sink_absorbed"] == ref.sink_absorbed

        with SandpileJob(_big_pile(), **opts) as job2:
            sup2 = Supervisor(job2, store=store)
            result = sup2.resume()
        oracle = stabilize(_big_pile())
        assert np.array_equal(result["grid"], oracle.interior)
        assert result["sink_absorbed"] == oracle.sink_absorbed
        assert sup2.steps_done == steps

"""Tests for SandpileJob, the easypap Job adapter."""

import threading
import time

import numpy as np
import pytest

from repro.common.checkpoint import CheckpointStore
from repro.common.errors import CheckpointError, ReproError
from repro.common.resilience import Deadline, RetryPolicy
from repro.common.supervisor import JobInterrupted, Supervisor
from repro.easypap.executor import ProcessBackend
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob
from repro.obs.metrics import MetricsRegistry
from repro.sandpile.model import center_pile
from repro.sandpile.simulate import make_stepper, run_to_fixpoint
from repro.sandpile.theory import stabilize
from repro.sandpile.vectorized import AsyncVecStepper, FrontierSyncStepper, SyncVecStepper


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


def _steps_total(reg, job):
    return reg.get("supervisor_steps_total").value(substrate="easypap", job=job.name)


class TestMidSegmentStop:
    """A stop that arrives while a segment runs, from another thread or by
    an expiring deadline, ends it at a step boundary: for ``pfrontier`` one
    every participant agrees on, on worker processes and in process; for
    the in-process steppers the next call boundary of the segment's loop."""

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

    @pytest.mark.parametrize("trigger", ["request_stop", "deadline"])
    @pytest.mark.parametrize("variant", ["vec", "frontier", "lazy"])
    def test_in_process_segment_stops_at_a_step_boundary(self, tmp_path, variant, trigger):
        steps = run_to_fixpoint(_big_pile(), "sandpile", variant, tile_size=8).iterations + 1
        store, reg = CheckpointStore(tmp_path), MetricsRegistry()
        with SandpileJob(_big_pile(), variant=variant, tile_size=8) as job:
            sup = Supervisor(job, store=store, metrics=reg)
            watcher = None
            if trigger == "request_stop":
                watcher = threading.Thread(target=_stop_once_running, args=(job, sup))
                watcher.start()
            try:
                with pytest.raises(JobInterrupted) as info:
                    sup.run(deadline=Deadline(0.01) if trigger == "deadline" else None)
            finally:
                if watcher is not None:
                    watcher.join()
        done = info.value.steps_done
        assert 0 < done < steps  # one segment, stopped inside it
        assert done == sup.heartbeat.count == _steps_total(reg, job)
        snap = store.load_latest()
        assert snap.step == snap.state["iterations"] == done
        ref = _big_pile()
        stepper = make_stepper(ref, "sandpile", variant, tile_size=8)
        for _ in range(done):
            stepper()
        assert np.array_equal(snap.state["plane"][1:-1, 1:-1], ref.interior)
        assert snap.state["sink_absorbed"] == ref.sink_absorbed

        with SandpileJob(_big_pile(), variant=variant, tile_size=8) as job2:
            sup2 = Supervisor(job2, store=store)
            result = sup2.resume()
        oracle = stabilize(_big_pile())
        assert np.array_equal(result["grid"], oracle.interior)
        assert result["sink_absorbed"] == oracle.sink_absorbed
        assert sup2.steps_done == steps


class _Injected(ReproError):
    """The fault a stepper raises on its planned call."""


def _raise_on_call(monkeypatch, cls, n):
    """Make the *n*-th call to any *cls* stepper raise, before it steps."""
    real, calls = cls.__call__, [0]

    def call(self):
        calls[0] += 1
        if calls[0] == n:
            raise _Injected(f"call {n}")
        return real(self)

    monkeypatch.setattr(cls, "__call__", call)


class TestInProcessSegmentFaults:
    """A stepper call that raises inside an in-process segment: the calls
    before it stand and are counted, and the next segment runs on a stepper
    rebuilt from the grid."""

    def test_raising_call_publishes_the_calls_before_it(self, monkeypatch):
        with SandpileJob(_pile()) as oracle:
            want = _fingerprint(oracle.run())
        _raise_on_call(monkeypatch, SyncVecStepper, 7)
        with SandpileJob(_pile(), variant="vec") as job:
            with pytest.raises(_Injected) as info:
                job.advance(10**6)
            assert info.value.steps_published == job.iterations == 6
            ref = _pile()
            frontier = FrontierSyncStepper(ref)
            for _ in range(6):
                frontier()
            assert np.array_equal(job.grid.interior, ref.interior)
            assert job.grid.sink_absorbed == ref.sink_absorbed
            assert _fingerprint(job.run()) == want

    def test_supervisor_retry_is_bit_identical_and_counts_each_step(self, monkeypatch):
        with SandpileJob(_pile(), variant="vec") as oracle:
            want = _fingerprint(oracle.run())
        _raise_on_call(monkeypatch, SyncVecStepper, 7)
        reg = MetricsRegistry()
        with SandpileJob(_pile(), variant="vec") as job:
            sup = Supervisor(job, retry=RetryPolicy(max_attempts=3, base_delay=0.0), metrics=reg)
            result = sup.run()
        assert _fingerprint(result) == want
        assert sup.retries_used == 1
        # every iteration plus the call that finds the grid stable, once each
        steps = want[0] + 1
        assert (sup.steps_done, sup.heartbeat.count, _steps_total(reg, job)) == (steps,) * 3

    def test_not_retryable_async_job_raises_with_its_steps_counted(self, monkeypatch):
        _raise_on_call(monkeypatch, AsyncVecStepper, 5)
        reg = MetricsRegistry()
        with SandpileJob(_pile(), "asandpile", "vec", retryable=False) as job:
            sup = Supervisor(job, retry=RetryPolicy(max_attempts=3, base_delay=0.0), metrics=reg)
            with pytest.raises(_Injected):
                sup.run()
        assert sup.retries_used == 0
        assert (sup.steps_done, sup.heartbeat.count, _steps_total(reg, job)) == (4, 4, 4)

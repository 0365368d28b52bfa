"""Tests for the job supervisor: retries, breaker, heartbeat, checkpoints."""

import os
import signal
import threading
import time

import pytest

from repro.common.checkpoint import CheckpointStore
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.resilience import Deadline, DegradationLog, RetryPolicy
from repro.common.supervisor import (
    CircuitBreaker,
    CircuitOpenError,
    Heartbeat,
    JobInterrupted,
    Supervisor,
)
from tests.common.test_job import CountJob

FAST = RetryPolicy(max_attempts=3, base_delay=0.0)


def steps_total(reg):
    """``supervisor_steps_total`` of the test jobs in *reg*."""
    return reg.get("supervisor_steps_total").value(substrate="test", job="count")


def record_saves(store, reg):
    """Make *store* record ``(step, supervisor_steps_total)`` at every save."""
    saved, save = [], store.save

    def recording(state, **kw):
        saved.append((kw["step"], steps_total(reg)))
        return save(state, **kw)

    store.save = recording
    return saved


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        br = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        for _ in range(2):
            br.record_failure()
            assert br.allow()
        br.record_failure()
        assert not br.allow()
        assert br.state == CircuitBreaker.OPEN

    def test_success_resets_count(self):
        br = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.allow()

    def test_half_open_probe_cycle(self):
        now = [0.0]
        br = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=lambda: now[0])
        br.record_failure()
        assert not br.allow()
        now[0] = 11.0
        assert br.state == CircuitBreaker.HALF_OPEN
        assert br.allow()
        br.record_failure()  # failed probe: straight back to OPEN
        assert not br.allow()
        now[0] = 22.0
        assert br.allow()
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=-1)


class TestHeartbeat:
    def test_beats_accumulate(self):
        hb = Heartbeat()
        assert hb.age() is None
        assert not hb.healthy(1.0)
        hb.beat()
        assert hb.count == 1
        assert hb.healthy(10.0)

    def test_staleness(self):
        now = [0.0]
        hb = Heartbeat(clock=lambda: now[0])
        hb.beat()
        now[0] = 5.0
        assert hb.age() == 5.0
        assert not hb.healthy(1.0)


class TestSupervisorRun:
    def test_plain_run(self):
        sup = Supervisor(CountJob(5), retry=FAST)
        assert sup.run() == 5
        assert sup.steps_done == 5
        assert sup.heartbeat.count == 5

    def test_step_retry_absorbs_transient_faults(self):
        sup = Supervisor(CountJob(5, fail_on=[2, 4]), retry=FAST)
        assert sup.run() == 5
        assert sup.retries_used == 2
        actions = [e.action for e in sup.degradation]
        assert actions.count("step-retry") == 2

    def test_retry_exhaustion_raises_original(self):
        class AlwaysFails(CountJob):
            def step(self):
                raise SimulationError("permanent")

        with pytest.raises(SimulationError):
            Supervisor(AlwaysFails(5), retry=FAST).run()

    def test_non_retryable_jobs_fail_fast(self):
        job = CountJob(5, fail_on=[1])
        job.retryable_steps = False
        sup = Supervisor(job, retry=FAST)
        with pytest.raises(ConfigurationError, match="boom"):
            sup.run()
        assert sup.retries_used == 0

    def test_breaker_opens_on_consecutive_failures(self):
        class AlwaysFails(CountJob):
            def step(self):
                raise SimulationError("permanent")

        sup = Supervisor(
            AlwaysFails(5),
            retry=RetryPolicy(max_attempts=10, base_delay=0.0),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=60.0),
        )
        with pytest.raises(CircuitOpenError):
            sup.run()

    def test_metrics_and_instants_emitted(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        reg = MetricsRegistry()
        tr = Tracer(process="t")
        sup = Supervisor(CountJob(4, fail_on=[2]), retry=FAST, metrics=reg, tracer=tr)
        sup.run()
        prom = reg.to_prometheus()
        assert "supervisor_retries_total" in prom
        assert "supervisor_steps_total" in prom
        assert "supervisor_degradations_total" in prom
        names = [i.name for i in tr.instants() if i.cat == "degradation"]
        assert "Supervisor:step-retry" in names

    def test_store_requires_checkpoint_support(self, tmp_path):
        class NoCkpt(CountJob):
            supports_checkpoint = False

        with pytest.raises(ConfigurationError):
            Supervisor(NoCkpt(3), store=CheckpointStore(tmp_path))

    def test_interval_requires_store(self):
        with pytest.raises(ConfigurationError):
            Supervisor(CountJob(3), checkpoint_every_steps=1)


class SegmentJob(CountJob):
    """A CountJob that runs a whole segment of steps per advance, as a
    parallel region does; records the step limit of every segment."""

    def __init__(self, n):
        super().__init__(n)
        self.limits = []

    def advance(self, limit, stop=None):
        self.limits.append(limit)
        ran = min(limit, self.n - 1 - self.i)
        if ran <= 0:
            return 1 if self.step() else 0  # the last step
        self.i += ran
        return ran


class TestSegments:
    def test_segments_end_at_checkpoints_and_stop_after_steps(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        job = SegmentJob(10)
        seen = []
        reg = MetricsRegistry()
        store = CheckpointStore(tmp_path, keep=10)
        saved = record_saves(store, reg)
        sup = Supervisor(
            job, retry=FAST, store=store, metrics=reg,
            checkpoint_every_steps=4, on_step=lambda n, p: seen.append((n, p.steps_done)),
        )
        with pytest.raises(JobInterrupted) as exc_info:
            sup.run(stop_after_steps=6)
        assert exc_info.value.steps_done == 6 == steps_total(reg)
        assert job.limits == [4, 2]
        assert sup.run() == 10
        # the last segment's one step finds the job done
        assert job.limits == [4, 2, 2, 4, 3]
        assert seen == [(4, 4), (6, 6), (8, 8), (9, 9), (10, 10)]
        assert sup.steps_done == sup.heartbeat.count == steps_total(reg) == 10
        # steps 4 and 8, and the stop at 6; the counter is exact at each
        assert saved == [(4, 4.0), (6, 6.0), (8, 8.0)]
        assert sup.checkpoints_written == 3

    def test_a_raising_segment_counts_the_steps_it_published(self, tmp_path):
        """A segment that raises after publishing steps: they count as a
        step-by-step run counts them, and the retry runs only the rest of
        the segment, or none when every step asked for was published."""
        from repro.obs.metrics import MetricsRegistry

        class Losing(SegmentJob):
            def __init__(self, n, published):
                super().__init__(n)
                self.published = list(published)  # per raising segment

            def advance(self, limit, stop=None):
                if not self.published:
                    return super().advance(limit, stop)
                self.limits.append(limit)
                self.i += self.published[0]
                exc = SimulationError("lost a worker")
                exc.steps_published = self.published.pop(0)
                raise exc

        job = Losing(10, published=[3, 1])
        reg = MetricsRegistry()
        store = CheckpointStore(tmp_path, keep=10)
        saved = record_saves(store, reg)
        sup = Supervisor(job, retry=FAST, store=store, checkpoint_every_steps=4, metrics=reg)
        assert sup.run() == 10
        assert job.limits == [4, 1, 4, 4, 3]
        assert sup.retries_used == 1  # the second raise published the segment's last step
        assert sup.steps_done == sup.heartbeat.count == steps_total(reg) == 10
        assert saved == [(4, 4.0), (8, 8.0)]

    def test_a_later_run_drops_an_earlier_deadline(self):
        class Recording(SegmentJob):
            def advance(self, limit, stop=None):
                self.ats.append(stop.at)
                return super().advance(limit, stop)

        job = Recording(10)
        job.ats = []
        sup = Supervisor(job, retry=FAST)
        with pytest.raises(JobInterrupted):
            sup.run(stop_after_steps=3, deadline=Deadline(60.0))
        assert job.ats[0] is not None  # the segment may end at the deadline
        job.ats.clear()
        assert sup.run() == 10
        assert job.ats == [None, None]

    def test_steps_count_once_per_segment_like_single_steps(self):
        from repro.obs.metrics import MetricsRegistry

        counts = []
        for job in (CountJob(7), SegmentJob(7)):
            reg = MetricsRegistry()
            sup = Supervisor(job, retry=FAST, metrics=reg)
            assert sup.run() == 7
            steps = reg.get("supervisor_steps_total").value(substrate="test", job="count")
            counts.append((sup.steps_done, sup.heartbeat.count, steps))
        assert counts == [(7, 7, 7.0), (7, 7, 7.0)]
        assert SegmentJob(7).run() == 7
        with pytest.raises(ConfigurationError, match="max_steps"):
            SegmentJob(7).run(max_steps=6)


class TestCheckpointResume:
    def test_interval_checkpoints_written(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        sup = Supervisor(CountJob(9), retry=FAST, store=store, checkpoint_every_steps=3)
        sup.run()
        assert sup.checkpoints_written == 3
        assert store.load_latest().step == 9

    def test_seconds_interval_checkpoints(self, tmp_path):
        class SlowJob(CountJob):
            def step(self):
                time.sleep(0.02)
                return super().step()

        store = CheckpointStore(tmp_path, keep=50)
        sup = Supervisor(SlowJob(6), retry=FAST, store=store, checkpoint_every_seconds=0.01)
        sup.run()
        assert sup.checkpoints_written >= 1

    def test_stop_after_steps_then_resume(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        store = CheckpointStore(tmp_path)
        sup = Supervisor(
            CountJob(10), retry=FAST, store=store, checkpoint_every_steps=2, metrics=reg
        )
        with pytest.raises(JobInterrupted) as exc_info:
            sup.run(stop_after_steps=5)
        assert exc_info.value.steps_done == 5 == steps_total(reg)
        assert exc_info.value.snapshot_path is not None
        sup2 = Supervisor(CountJob(10), retry=FAST, store=store, metrics=reg)
        assert sup2.resume() == 10
        # the resumed run counts only its own steps: together, each step once
        assert sup2.steps_done == steps_total(reg) == 10

    def test_deadline_interrupts_gracefully(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sup = Supervisor(CountJob(10), retry=FAST, store=store)
        with pytest.raises(JobInterrupted, match="deadline-expired"):
            sup.run(deadline=Deadline(1e-9))
        sup2 = Supervisor(CountJob(10), retry=FAST, store=store)
        assert sup2.resume() == 10

    def test_request_stop_from_another_thread(self, tmp_path):
        class SlowJob(CountJob):
            def step(self):
                time.sleep(0.01)
                return super().step()

        store = CheckpointStore(tmp_path)
        sup = Supervisor(SlowJob(1000), retry=FAST, store=store)
        threading.Timer(0.05, sup.request_stop).start()
        with pytest.raises(JobInterrupted, match="stop-requested"):
            sup.run()
        assert 0 < sup.steps_done < 1000
        sup2 = Supervisor(SlowJob(1000), retry=FAST, store=store)
        assert sup2.resume() == 1000

    def test_cross_thread_cancel_checkpoints_without_orphans(self, tmp_path):
        # the serve layer cancels running jobs by calling request_stop()
        # from the event-loop thread while the supervisor runs on an
        # executor thread: the interrupt must carry the final snapshot
        # and leave nothing but the single "interrupted" entry behind
        class SlowJob(CountJob):
            def step(self):
                time.sleep(0.005)
                return super().step()

        store = CheckpointStore(tmp_path)
        log = DegradationLog()
        sup = Supervisor(SlowJob(500), retry=FAST, store=store, degradation=log)
        caught = []

        def drive():
            try:
                sup.run()
            except JobInterrupted as exc:
                caught.append(exc)

        worker = threading.Thread(target=drive)
        worker.start()
        while sup.steps_done < 3:
            time.sleep(0.001)
        sup.request_stop()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert len(caught) == 1
        intr = caught[0]
        assert intr.snapshot_path is not None
        assert intr.snapshot_path.exists()
        assert [e.action for e in log.events] == ["interrupted"]
        sup2 = Supervisor(SlowJob(500), retry=FAST, store=store)
        assert sup2.resume() == 500

    def test_resume_with_empty_store_starts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sup = Supervisor(CountJob(4), retry=FAST, store=store)
        assert sup.resume() == 4

    def test_corrupt_latest_falls_back_and_records(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        sup = Supervisor(CountJob(10), retry=FAST, store=store, checkpoint_every_steps=2)
        with pytest.raises(JobInterrupted):
            sup.run(stop_after_steps=6)
        newest = store.snapshot_paths()[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        resumed_store = CheckpointStore(tmp_path, keep=10)
        log = DegradationLog()
        sup2 = Supervisor(CountJob(10), retry=FAST, store=resumed_store, degradation=log)
        assert sup2.resume() == 10
        assert log.by_action("checkpoint-rejected")


@pytest.mark.skipif(os.name != "posix", reason="SIGTERM delivery is posix-only")
class TestSigterm:
    def test_sigterm_checkpoints_and_interrupts(self, tmp_path):
        class SlowJob(CountJob):
            def step(self):
                time.sleep(0.01)
                return super().step()

        store = CheckpointStore(tmp_path)
        sup = Supervisor(SlowJob(1000), retry=FAST, store=store, handle_sigterm=True)
        pid = os.getpid()
        threading.Timer(0.05, lambda: os.kill(pid, signal.SIGTERM)).start()
        with pytest.raises(JobInterrupted) as exc_info:
            sup.run()
        assert exc_info.value.snapshot_path is not None
        sup2 = Supervisor(SlowJob(1000), retry=FAST, store=store)
        assert sup2.resume() == 1000
        # the previous handler was restored on exit
        assert signal.getsignal(signal.SIGTERM) in (
            signal.SIG_DFL,
            signal.default_int_handler,
        ) or callable(signal.getsignal(signal.SIGTERM))

"""Supervised job execution: retries, circuit breaker, heartbeat, checkpoints.

:meth:`Supervisor.run` is the one loop that drives a
:class:`~repro.common.job.Job`, one segment of steps at a time
(:meth:`Job.advance <repro.common.job.Job.advance>`); ``Job.run``,
``run_to_fixpoint`` and ``EasyPapApp.run`` are thin callers of it.  It
layers the resilience primitives on top of the protocol instead of
inside each substrate:

* **bounded segment retries** via
  :class:`~repro.common.resilience.RetryPolicy` (only when the job
  declares ``retryable_steps``);
* a :class:`CircuitBreaker` that stops hammering a job whose segments
  fail consecutively, then probes again after a cool-down (half-open);
* a :class:`Heartbeat` the caller (or a chaos harness) can watch to detect
  a hung job;
* **interval checkpointing** into a
  :class:`~repro.common.checkpoint.CheckpointStore` every N steps and/or
  every T seconds, plus a final snapshot on ``SIGTERM``, an expired
  deadline or a cooperative :meth:`Supervisor.request_stop` — interruption
  surfaces as :class:`JobInterrupted` carrying the snapshot, and
  :meth:`Supervisor.resume` continues bit-identically.  A segment ends at
  the next ``checkpoint_every_steps`` boundary or ``stop_after_steps``,
  and early, at a step boundary, on any of these events.

Every fallback the supervisor takes is recorded three ways at once so no
consumer needs bespoke plumbing: a
:class:`~repro.common.resilience.DegradationEvent` in the log, an obs
instant (``cat="degradation"``, name ``component:action``, pid = the
job's substrate — the same shape
:func:`repro.obs.adapters.easypap.degradation_to_instants` produces), and
a Prometheus counter in the metrics registry.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

from repro.common.checkpoint import CheckpointStore
from repro.common.errors import ConfigurationError, ReproError
from repro.common.job import Job, StopSignal
from repro.common.resilience import Deadline, DegradationLog, RetryPolicy

__all__ = [
    "CircuitOpenError",
    "JobInterrupted",
    "CircuitBreaker",
    "Heartbeat",
    "Supervisor",
]


class CircuitOpenError(ReproError, RuntimeError):
    """The circuit breaker refused to run another step (still cooling down)."""


class JobInterrupted(ReproError, RuntimeError):
    """A supervised run stopped before completion (SIGTERM or requested stop).

    ``snapshot_path`` names the final checkpoint (None when the job cannot
    checkpoint); ``steps_done`` counts completed steps.  Resume with
    :meth:`Supervisor.resume` on a freshly built job.
    """

    def __init__(self, message: str, *, steps_done: int, snapshot_path=None) -> None:
        super().__init__(message)
        self.steps_done = steps_done
        self.snapshot_path = snapshot_path


class CircuitBreaker:
    """Classic three-state breaker over consecutive step failures.

    CLOSED → OPEN after ``failure_threshold`` consecutive failures; OPEN
    refuses calls until ``reset_timeout`` seconds pass, then one probe is
    allowed (HALF_OPEN).  A successful probe closes the breaker; a failed
    one re-opens it and restarts the cool-down.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout < 0:
            raise ConfigurationError(f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, advancing OPEN → HALF_OPEN once cooled down."""
        if self._state == self.OPEN and self._clock() - self._opened_at >= self.reset_timeout:
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?"""
        return self.state != self.OPEN

    def record_success(self) -> None:
        """A call succeeded: close the breaker and forget failures."""
        self._failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        """A call failed: maybe trip (or re-trip after a failed probe)."""
        self._failures += 1
        if self.state == self.HALF_OPEN or self._failures >= self.failure_threshold:
            self._state = self.OPEN
            self._opened_at = self._clock()


class Heartbeat:
    """A liveness pulse the supervisor beats once per completed step.

    Watchers call :meth:`healthy` with the staleness they tolerate; chaos
    harnesses assert the beat count matches the step count (hung jobs
    stop beating, dead ones never start).  Thread-safe.
    """

    def __init__(self, *, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.count = 0
        self.last_beat: float | None = None

    def beat(self, n: int = 1) -> None:
        """Record *n* pulses at once (the steps of one segment)."""
        with self._lock:
            self.count += n
            self.last_beat = self._clock()

    def age(self) -> float | None:
        """Seconds since the last pulse, or None before the first."""
        with self._lock:
            if self.last_beat is None:
                return None
            return self._clock() - self.last_beat

    def healthy(self, timeout: float) -> bool:
        """True when a pulse arrived within *timeout* seconds."""
        a = self.age()
        return a is not None and a <= timeout


class Supervisor:
    """Run a :class:`Job` with retries, breaker, heartbeat, checkpoints.

    Parameters
    ----------
    job:
        The job to drive.  Its ``retryable_steps``/``supports_checkpoint``
        declarations gate what the supervisor is allowed to do.
    retry:
        Per-segment retry budget; a segment that raises is re-invoked up
        to ``retry.max_attempts`` times total (requires ``retryable_steps``).
    store:
        Destination for snapshots; None disables checkpointing.
    checkpoint_every_steps / checkpoint_every_seconds:
        Interval triggers; either, both, or neither.
    breaker / heartbeat / degradation / tracer / metrics:
        Optional collaborators; sensible defaults are constructed when
        omitted (tracer/metrics default to doing nothing).
    handle_sigterm:
        Install a ``SIGTERM`` handler for the duration of :meth:`run`
        that requests a cooperative stop (checkpoint, then
        :class:`JobInterrupted`).  Only possible from the main thread.
    on_step:
        Optional callable invoked after every *completed* segment with
        ``(steps_done, progress)`` — the progress-streaming hook the
        :mod:`repro.serve` service uses to publish
        :class:`~repro.common.job.JobProgress` snapshots without polling.
        It runs on the supervising thread and must not raise.  The loop
        reads the attribute afresh after each segment, so another thread
        may set or clear it mid-run (the service sets it only while a
        handle has a progress subscriber); ``job.progress()`` runs only
        when it is set.
    """

    def __init__(
        self,
        job: Job,
        *,
        retry: RetryPolicy | None = None,
        store: CheckpointStore | None = None,
        checkpoint_every_steps: int | None = None,
        checkpoint_every_seconds: float | None = None,
        breaker: CircuitBreaker | None = None,
        heartbeat: Heartbeat | None = None,
        degradation: DegradationLog | None = None,
        tracer=None,
        metrics=None,
        handle_sigterm: bool = False,
        on_step=None,
    ) -> None:
        if checkpoint_every_steps is not None and checkpoint_every_steps < 1:
            raise ConfigurationError(
                f"checkpoint_every_steps must be >= 1, got {checkpoint_every_steps}"
            )
        if checkpoint_every_seconds is not None and checkpoint_every_seconds <= 0:
            raise ConfigurationError(
                f"checkpoint_every_seconds must be > 0, got {checkpoint_every_seconds}"
            )
        if (checkpoint_every_steps or checkpoint_every_seconds) and store is None:
            raise ConfigurationError("checkpoint intervals require a CheckpointStore")
        if store is not None and not job.supports_checkpoint:
            raise ConfigurationError(
                f"{type(job).__name__} does not support checkpointing; drop the store"
            )
        self.job = job
        self.retry = retry or RetryPolicy()
        self.store = store
        self.checkpoint_every_steps = checkpoint_every_steps
        self.checkpoint_every_seconds = checkpoint_every_seconds
        self.breaker = breaker or CircuitBreaker()
        self.heartbeat = heartbeat or Heartbeat()
        self.degradation = degradation if degradation is not None else DegradationLog()
        self.tracer = tracer
        self.metrics = metrics
        self.handle_sigterm = handle_sigterm
        self.on_step = on_step
        self.steps_done = 0
        #: the part of steps_done already added to supervisor_steps_total
        self._steps_counted = 0
        self.retries_used = 0
        self.checkpoints_written = 0
        #: ends a running segment early: request_stop, a deadline, a checkpoint
        self._stop = StopSignal()
        self._last_checkpoint_time: float | None = None

    # -- degradation fan-out ----------------------------------------------------

    def _degrade(self, action: str, reason: str, *, attempt: int = 0, **detail) -> None:
        """Record one fallback in the log, the trace, and the metrics."""
        self.degradation.record("Supervisor", action, reason, attempt=attempt, **detail)
        if self.tracer:
            self.tracer.instant(
                f"Supervisor:{action}",
                cat="degradation",
                pid=self.job.substrate,
                args={"reason": reason, "attempt": attempt, "detail": dict(detail)},
            )
        if self.metrics is not None:
            self.metrics.counter(
                "supervisor_degradations_total",
                "fallbacks taken by the job supervisor",
            ).inc(substrate=self.job.substrate, job=self.job.name, action=action)

    def _count(self, name: str, help: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help).inc(
                amount, substrate=self.job.substrate, job=self.job.name
            )

    def _tally(self, steps: int) -> None:
        """*steps* more steps done: ``steps_done`` and the heartbeat now,
        ``supervisor_steps_total`` at the next :meth:`_flush_steps`."""
        self.steps_done += steps
        self.heartbeat.beat(steps)

    def _flush_steps(self) -> None:
        """Add the steps done since the last flush to ``supervisor_steps_total``."""
        steps = self.steps_done - self._steps_counted
        if steps:
            self._steps_counted = self.steps_done
            self._count("supervisor_steps_total", "job steps completed under supervision", steps)

    # -- checkpointing ----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the run loop to checkpoint and stop at the next step boundary
        (safe from any thread and from a signal handler)."""
        self._stop.request()

    def _checkpoint(self, *, reason: str):
        """Write a snapshot now; returns its path (None without a store)."""
        if self.store is None or not self.job.supports_checkpoint:
            return None
        self._flush_steps()
        path = self.store.save(
            self.job.checkpoint(),
            step=self.steps_done,
            meta={"job": self.job.name, "substrate": self.job.substrate, "reason": reason},
        )
        self.checkpoints_written += 1
        self._last_checkpoint_time = time.monotonic()
        self._count("supervisor_checkpoints_total", "snapshots written by the supervisor")
        if self.tracer:
            self.tracer.instant(
                "Supervisor:checkpoint",
                cat="checkpoint",
                pid=self.job.substrate,
                args={"step": self.steps_done, "reason": reason},
            )
        return path

    def _checkpoint_due(self) -> bool:
        """After a segment (intervals imply a store, and the clock runs from run())."""
        every, seconds = self.checkpoint_every_steps, self.checkpoint_every_seconds
        return (every is not None and self.steps_done % every == 0) or (
            seconds is not None and time.monotonic() - self._last_checkpoint_time >= seconds
        )

    # -- the run loop -----------------------------------------------------------

    def _advance_with_retries(self, limit: int) -> bool:
        """One segment of at most *limit* steps under the retry policy and
        breaker; tallies its steps and returns True once the job is done.

        A segment that raises keeps the steps it published (the
        exception's ``steps_published``): they are tallied as a
        step-by-step run would, and a retry runs only the rest of *limit*.
        """
        if not self.breaker.allow():
            self._degrade("circuit-open", "breaker refused the step")
            raise CircuitOpenError(
                f"{self.job.name}: circuit open after repeated step failures"
            )
        attempt = 0
        while True:
            attempt += 1
            try:
                ran = self.job.advance(limit, self._stop)
            except BaseException as exc:
                kept = getattr(exc, "steps_published", 0)
                if kept:
                    self._tally(kept)
                    limit -= kept
                if not isinstance(exc, ReproError):
                    raise
                self.breaker.record_failure()
                if not self.job.retryable_steps or self.retry.retries_left(attempt) == 0:
                    raise
                if limit == 0:  # every step asked for was published: the segment is over
                    return False
                self.retries_used += 1
                self._count("supervisor_retries_total", "step retries by the supervisor")
                self._degrade("step-retry", repr(exc), attempt=attempt)
                self.retry.sleep(attempt)
                if not self.breaker.allow():
                    raise CircuitOpenError(
                        f"{self.job.name}: circuit opened while retrying"
                    ) from exc
            else:
                self.breaker.record_success()
                self._tally(ran or 1)  # the call that finds the job done is its last step
                return not ran

    def _arm_segment(self, stop_at: int | None, deadline: Deadline | None) -> int:
        """The next segment's step limit; sets the instant it must end by."""
        limit = sys.maxsize if stop_at is None else stop_at - self.steps_done
        every = self.checkpoint_every_steps
        if every is not None:
            limit = min(limit, every - self.steps_done % every)
        ends = []
        if deadline is not None and deadline.budget is not None:
            ends.append(time.monotonic() + deadline.remaining())
        if self.checkpoint_every_seconds is not None:
            ends.append(self._last_checkpoint_time + self.checkpoint_every_seconds)
        if ends:
            self._stop.at = min(ends)
        return limit

    def run(
        self,
        *,
        resume: bool = False,
        stop_after_steps: int | None = None,
        deadline: Deadline | None = None,
    ):
        """Drive the job to completion, one segment at a time; returns its result.

        With ``resume=True`` the latest readable snapshot is restored
        first (a no-op when the store is empty).  ``stop_after_steps``
        interrupts deterministically after that many *newly completed*
        steps — checkpoint, then :class:`JobInterrupted` — which is how
        chaos scenarios kill a run mid-flight without real signals.  A
        *deadline* whose budget expires interrupts the same graceful way
        at the next step boundary, so an over-budget run leaves a
        resumable snapshot instead of a hard abort.  ``steps_done`` and
        the heartbeat add each segment's steps once it returns (or
        raises), as many as a step-by-step run counts;
        ``supervisor_steps_total`` adds them once per checkpoint and once
        when the run ends, however it ends.
        """
        if resume:
            self.restore_latest()
        if self._last_checkpoint_time is None:
            # start the seconds-interval clock at run start, not import time
            self._last_checkpoint_time = time.monotonic() if self.checkpoint_every_seconds else None
        prev_handler = None
        use_signal = self.handle_sigterm and threading.current_thread() is threading.main_thread()
        if use_signal:
            prev_handler = signal.signal(signal.SIGTERM, lambda *_: self.request_stop())
        stop_at = None if stop_after_steps is None else self.steps_done + stop_after_steps
        bounded = stop_at is not None or deadline is not None or self.store is not None
        limit, stop = sys.maxsize, self._stop
        stop.at = None  # a deadline of an earlier run() no longer applies
        self._steps_counted = self.steps_done  # restored steps ran under another run
        try:
            while True:
                why = (
                    "stop-requested" if stop.requested
                    else "deadline-expired" if deadline is not None and deadline.expired
                    else "stop-after-steps" if stop_at is not None and self.steps_done >= stop_at
                    else None
                )
                if why is not None:
                    path = self._checkpoint(reason=why)
                    self._degrade("interrupted", why, step=self.steps_done)
                    raise JobInterrupted(
                        f"{self.job.name}: interrupted ({why}) after {self.steps_done} steps",
                        steps_done=self.steps_done,
                        snapshot_path=path,
                    )
                if bounded:
                    limit = self._arm_segment(stop_at, deadline)
                done = self._advance_with_retries(limit)
                on_step = self.on_step  # another thread may clear it
                if on_step is not None:
                    on_step(self.steps_done, self.job.progress())
                if self.store is not None and self._checkpoint_due():
                    self._checkpoint(reason="interval")
                if done:
                    break
        finally:
            self._flush_steps()
            if use_signal:
                signal.signal(signal.SIGTERM, prev_handler)
        return self.job.result()

    def restore_latest(self) -> bool:
        """Restore the newest readable snapshot; True when one was applied.

        Corrupt newest snapshots fall back to older valid ones (see
        :meth:`CheckpointStore.load_latest`); every rejected file is
        reported as a degradation event.
        """
        if self.store is None:
            return False
        before = len(self.store.rejected)
        snap = self.store.load_latest()
        for path, why in self.store.rejected[before:]:
            self._degrade("checkpoint-rejected", why, file=path.name)
        if snap is None:
            return False
        self.job.restore(snap.state)
        self.steps_done = snap.step
        if self.tracer:
            self.tracer.instant(
                "Supervisor:restore",
                cat="checkpoint",
                pid=self.job.substrate,
                args={"step": snap.step, "file": snap.path.name},
            )
        return True

    def resume(self):
        """Shorthand for ``run(resume=True)``."""
        return self.run(resume=True)

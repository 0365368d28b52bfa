"""One ``Job`` protocol over every real execution path.

PR 2 gave each substrate its own resilience wiring; this module extracts
the contract that lets resilience, observability, and (eventually) a
service layer apply *uniformly*: a job is something that advances in
discrete, restartable **steps** towards a **result**, can report
**progress**, and — when the substrate allows it — can **checkpoint** its
state and be **restored** from a snapshot.

The four real execution paths implement it:

* :class:`repro.easypap.job.SandpileJob` — one step per stepper call
  (all registered variants; ``pfrontier`` runs a segment of steps as one
  parallel region); checkpoints carry the grid plane, sink counter, and
  iteration count.
* :class:`repro.mapreduce.stepjob.MapReduceStepJob` — one step per map
  task / shuffle / reduce partition; checkpoints carry the phase manifest
  (completed spills, partitions, outputs, per-task counters).
* :class:`repro.simmpi.job.SimMpiJob` — an SPMD world is atomic: one
  step runs the whole world; the only checkpoint boundary is completion.
* :class:`repro.wrench.job.WrenchJob` — likewise atomic: one step runs
  the discrete-event simulation.

:meth:`Supervisor.run <repro.common.supervisor.Supervisor.run>` is the
one loop that drives a job, a segment of steps at a time
(:meth:`Job.advance`), with retries, a circuit breaker, heartbeats, and
interval/SIGTERM checkpointing; :mod:`repro.chaos` injects faults
against the same surface and asserts recovery invariants.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.common.errors import CheckpointError, ConfigurationError
from repro.common.resilience import RetryPolicy

__all__ = ["JobProgress", "StopSignal", "Job", "OneShotJob"]


@dataclass(frozen=True)
class JobProgress:
    """How far a job has advanced.

    ``steps_total`` is ``None`` when the job cannot know it up front
    (run-to-fixpoint workloads discover their iteration count).
    """

    steps_done: int
    done: bool
    steps_total: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def fraction(self) -> float | None:
        """Completed fraction in [0, 1], or None when the total is unknown."""
        if self.steps_total is None or self.steps_total <= 0:
            return 1.0 if self.done else None
        return min(1.0, self.steps_done / self.steps_total)


class StopSignal:
    """Ends a running segment early, at a step boundary: once requested
    (from any thread or a signal handler), or once ``time.monotonic()``
    passes :attr:`at`.  Steps run by other processes read it from a word
    of shared memory it is :meth:`bind`-ed to: the instant to stop at in
    ``time.monotonic_ns()``, which a request sets to 0."""

    requested = False
    at: float | None = None
    _word = None

    def request(self) -> None:
        self.requested = True
        word = self._word
        if word is not None:
            word[0] = 0

    def bind(self, word) -> None:
        """Mirror a request into *word*, a one-element array (None: unbind)."""
        self._word = word
        if word is not None and self.requested:  # set after binding: a racing request lands
            word[0] = 0


class Job(abc.ABC):
    """A stepwise execution unit every substrate adapter implements.

    Contract:

    * :meth:`step` performs one unit of work and returns ``True`` while
      more work remains; once it has returned ``False`` the job is done
      and further calls must keep returning ``False``.
    * :meth:`result` is only meaningful after the job is done.
    * when :attr:`supports_checkpoint` is True, :meth:`checkpoint`
      returns a picklable snapshot from which :meth:`restore` (called on
      a *fresh* job built with the same configuration) reproduces the
      exact execution state — the resumed run must be bit-identical to an
      uninterrupted one.
    * :attr:`retryable_steps` declares that a step which *raised* left no
      partial state behind, so a supervisor may simply call it again (a
      segment that raised keeps the steps it completed, and sets the
      exception's ``steps_published`` to their number when there are any).
    * :meth:`describe` returns the canonical construction-time fields —
      the content-addressed cache in :mod:`repro.serve` hashes them, so
      two jobs whose ``describe()`` dicts are equal must compute
      bit-identical results.
    """

    #: human-readable job name (campaign rows, metrics labels)
    name: str = "job"
    #: which execution substrate this job runs on
    substrate: str = "generic"
    #: a failed (raised) step may be re-invoked without corrupting state
    retryable_steps: bool = True
    #: checkpoint()/restore() are implemented
    supports_checkpoint: bool = False

    @abc.abstractmethod
    def step(self) -> bool:
        """Advance one unit of work; True while more work remains."""

    def advance(self, limit: int, stop: StopSignal | None = None) -> int:
        """Run up to *limit* steps as one segment, ending early at a step
        boundary once *stop* asks; returns the steps run, 0 once the job is
        done (that call was its last step, as a :meth:`step` returning
        ``False`` is).  The default runs one :meth:`step`."""
        return 1 if self.step() else 0

    @abc.abstractmethod
    def result(self):
        """The job's outcome (call only once :meth:`progress` says done)."""

    @abc.abstractmethod
    def progress(self) -> JobProgress:
        """Current progress."""

    def describe(self) -> dict:
        """Canonical, JSON-serialisable construction-time description.

        The contract for cache correctness: every field the computed
        result depends on must appear here, and two jobs with equal
        descriptions must produce bit-identical results.  Substrate
        adapters built from a :class:`repro.serve.spec.JobSpec` return
        the spec's own fields so ``spec -> job -> describe()`` round-trips
        (see ``tests/serve/test_spec.py``); directly constructed jobs
        fall back to a digest of their inputs.  Call it before stepping —
        it reflects the *initial* configuration, not live state.
        """
        return {"substrate": self.substrate, "workload": "custom", "name": self.name}

    def checkpoint(self) -> dict:
        """A picklable snapshot of the execution state."""
        raise ConfigurationError(f"{type(self).__name__} does not support checkpointing")

    def restore(self, state: dict) -> None:
        """Reinstate a snapshot produced by :meth:`checkpoint`."""
        raise ConfigurationError(f"{type(self).__name__} does not support checkpointing")

    def close(self) -> None:
        """Release any owned resources (pools, shared memory); idempotent."""

    def __enter__(self) -> "Job":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, *, max_steps: int | None = None):
        """Drive the job to completion without retries or checkpoints; returns the result.

        A thin caller of :meth:`Supervisor.run
        <repro.common.supervisor.Supervisor.run>`, used by tests and
        baselines; a job not done after *max_steps* steps raises.
        """
        from repro.common.supervisor import JobInterrupted, Supervisor  # imports this module

        try:
            return Supervisor(self, retry=RetryPolicy(max_attempts=1)).run(
                stop_after_steps=max_steps
            )
        except JobInterrupted:
            raise ConfigurationError(
                f"{self.name}: exceeded max_steps={max_steps} without completing"
            ) from None


class OneShotJob(Job):
    """Base for substrates whose execution is one atomic call.

    Subclasses implement :meth:`compute`; the only checkpoint boundary is
    completion — a snapshot of a finished job carries its result, so
    restoring it skips the recomputation entirely, while restoring an
    unfinished snapshot is a no-op (the work simply reruns, which is safe
    because :meth:`compute` must be pure).
    """

    supports_checkpoint = True
    retryable_steps = True

    def __init__(self) -> None:
        self._done = False
        self._result = None

    @abc.abstractmethod
    def compute(self):
        """Run the whole workload; must be pure (safe to re-invoke)."""

    def step(self) -> bool:
        if self._done:
            return False
        self._result = self.compute()
        self._done = True
        return False

    def result(self):
        """The computed outcome (None until done)."""
        return self._result

    def progress(self) -> JobProgress:
        """0 or 1 steps: atomic jobs have a single boundary."""
        return JobProgress(steps_done=1 if self._done else 0, done=self._done, steps_total=1)

    def checkpoint(self) -> dict:
        """Snapshot at the completion boundary (result included when done)."""
        return {"kind": "one-shot", "done": self._done, "result": self._result}

    def restore(self, state: dict) -> None:
        """Reinstate a completion snapshot (unfinished snapshots re-run)."""
        if state.get("kind") != "one-shot":
            raise CheckpointError(
                f"snapshot kind {state.get('kind')!r} does not fit a one-shot job"
            )
        self._done = bool(state.get("done", False))
        self._result = state.get("result") if self._done else None

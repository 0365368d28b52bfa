"""The asyncio job service: futures-based submit over every substrate.

:class:`JobService` is the Parsl-DataFlowKernel-shaped layer the ROADMAP
asks for: submission is decoupled from execution.  ``submit(spec)``
returns a :class:`JobHandle` immediately; a bounded pool of worker tasks
drains the :class:`~repro.serve.admission.AdmissionQueue` in
weighted-fair order and runs each job under a
:class:`~repro.common.supervisor.Supervisor` — *in a thread-pool
executor*, never on the event loop, because ``Job.step`` is blocking
compute (the ``blocking-call-in-async`` project lint rule enforces this
convention).

The submit fast path consults the content-addressed
:class:`~repro.serve.cache.ResultCache`: a resubmitted identical spec
resolves from the cache without touching the queue, bit-identical to the
fresh run that populated it.

Every job leaves an observable wake through ``repro.obs``:

* metrics — ``serve_queue_latency_seconds`` and ``serve_job_seconds``
  histograms (p50/p99 via the Prometheus bucket export),
  ``serve_jobs_total{tenant,outcome}``, ``serve_cache_requests_total``,
  ``serve_cache_hit_ratio``, ``serve_queue_depth`` / ``serve_active_jobs``
  gauges;
* spans — a ``serve:queued`` span (submit→admit) on the tenant's lane, a
  ``serve:run`` span on the worker's lane, with flow arrows
  submit→admit→run→complete so Perfetto draws each request crossing the
  service.

Cancellation is cooperative: queued jobs leave the queue; running jobs
get :meth:`Supervisor.request_stop`, which checkpoints (when the job
supports it) and surfaces :class:`~repro.common.supervisor.JobInterrupted`
at the next step boundary — the handle's ``result()`` then raises
:class:`JobCancelled`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.common.errors import ConfigurationError, ReproError
from repro.common.resilience import RetryPolicy
from repro.common.supervisor import JobInterrupted, Supervisor
from repro.serve.admission import AdmissionQueue, Rejected, TenantPolicy
from repro.serve.cache import ResultCache
from repro.serve.spec import JobSpec

__all__ = ["JobCancelled", "JobHandle", "JobService"]

#: queue-latency buckets: sub-millisecond admits up to multi-second backlogs
_QUEUE_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class JobCancelled(ReproError, RuntimeError):
    """The handle's job was cancelled before completing."""


class JobHandle:
    """One submission: status, future result, progress stream, cancel.

    ``await handle.result()`` returns the substrate result dict, or a
    :class:`~repro.serve.admission.Rejected` when admission shed the
    request; it raises :class:`JobCancelled` after a cancel, or the
    job's own error on failure.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"
    CANCELLED = "cancelled"
    FAILED = "failed"

    def __init__(self, service: "JobService", spec: JobSpec, tenant: str, key: str) -> None:
        self._service = service
        self.spec = spec
        self.tenant = tenant
        #: content-addressed cache key of the spec
        self.key = key
        self.status = self.QUEUED
        #: True when the result came from the cache, not a fresh run
        self.cached = False
        self.submitted_at = time.monotonic()
        self.admitted_at: float | None = None
        self.finished_at: float | None = None
        self._future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._subs: list[asyncio.Queue] = []
        self._ticket: int | None = None
        self._supervisor: Supervisor | None = None
        self._cancel_requested = False
        # the progress hand-off between the executor thread and the loop:
        # the newest snapshot, and whether a _publish callback is pending
        self._lock = threading.Lock()
        self._latest = None
        self._handoff = False
        # tracer-clock timestamps for the span/flow wake
        self._trace_ts: dict[str, float] = {}

    def done(self) -> bool:
        """Has the handle resolved (result, rejection, cancel, failure)?"""
        return self._future.done()

    async def result(self):
        """The job's outcome (see class docs for the result contract)."""
        return await self._future

    def cancel(self) -> bool:
        """Request cancellation; True when a cancel was initiated."""
        return self._service._cancel(self)

    async def progress(self):
        """Async-iterate :class:`~repro.common.job.JobProgress` snapshots.

        While the handle has a subscriber, the supervisor offers a
        snapshot after every completed segment; the event loop takes the
        newest one each time it gets round to it, so snapshots never go
        backwards, one offered while the loop is busy replaces the one
        before it, and the last before the end is the final state.  The
        stream ends when the job resolves.  A job that runs all its steps
        as one segment (every sandpile variant, in process or as a
        ``pfrontier`` region) offers one snapshot per segment, not per
        step.
        """
        if self.done():
            return
        q: asyncio.Queue = asyncio.Queue()
        self._subs.append(q)
        self._watch()
        try:
            while True:
                item = await q.get()
                if item is None:
                    return
                yield item
        finally:
            self._subs.remove(q)
            self._watch()

    # -- service-side plumbing ----------------------------------------------------

    def _watch(self) -> None:
        """Hook the running supervisor's ``on_step`` to :meth:`_offer` while
        the handle has subscribers, and unhook it once it has none.  The
        executor thread calls it when the supervisor exists, the loop when
        subscribers come and go; under the lock, the later call sees both."""
        with self._lock:
            sup = self._supervisor
            if sup is not None:
                sup.on_step = self._offer if self._subs else None

    def _offer(self, _steps, progress) -> None:
        """``on_step`` hook (executor thread): keep the newest snapshot, and
        wake the loop only when no :meth:`_publish` is pending already."""
        with self._lock:
            self._latest = progress
            if self._handoff:
                return
            self._handoff = True
        try:
            self._future.get_loop().call_soon_threadsafe(self._publish)
        except RuntimeError:  # loop closed during shutdown
            pass

    def _publish(self) -> None:
        """Hand the newest snapshot to every subscriber (event-loop thread)."""
        with self._lock:
            progress, self._handoff = self._latest, False
        for q in self._subs:
            q.put_nowait(progress)

    def _finish(self, status: str) -> None:
        self.status = status
        self.finished_at = time.monotonic()
        for q in self._subs:
            q.put_nowait(None)


class JobService:
    """Multi-tenant async job service (see module docs).

    Parameters
    ----------
    tenants:
        :class:`~repro.serve.admission.TenantPolicy` per tenant;
        submissions from unknown tenants are shed.
    workers:
        Worker-pool width: concurrent supervised jobs (one executor
        thread each).
    cache:
        A :class:`~repro.serve.cache.ResultCache`; ``None`` disables
        caching entirely.
    retry:
        Per-step retry budget applied to every supervised job.
    metrics / tracer:
        ``repro.obs`` collaborators; omitted = no recording.
    """

    def __init__(
        self,
        tenants,
        *,
        workers: int = 2,
        cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.policies = [t if isinstance(t, TenantPolicy) else TenantPolicy(**t) for t in tenants]
        self.workers = workers
        self.cache = cache
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay=0.0)
        self.metrics = metrics
        self.tracer = tracer
        self._queue = AdmissionQueue(self.policies)
        self._active: dict[str, int] = {}
        self._peak_active: dict[str, int] = {}
        self._worker_tasks: list[asyncio.Task] = []
        self._pool: ThreadPoolExecutor | None = None
        self._wake: asyncio.Event | None = None
        self._started = False
        self._draining = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Create the executor and the worker tasks."""
        if self._started:
            raise ConfigurationError("service already started")
        self._started = True
        self._draining = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._wake = asyncio.Event()
        self._worker_tasks = [
            asyncio.create_task(self._worker(i), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self, *, drain: bool = True) -> None:
        """Shut down: finish queued work (``drain=True``) or shed it."""
        if not self._started:
            return
        self._draining = True
        if not drain:
            for tenant, handle in self._queue.drain():
                self._resolve_rejected(
                    handle, Rejected("shutting-down", tenant, "service stopped before running")
                )
        self._wake.set()
        await asyncio.gather(*self._worker_tasks)
        self._worker_tasks = []
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> "JobService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission (event-loop thread) ------------------------------------------

    def submit(self, spec: JobSpec, *, tenant: str, priority: int = 0) -> JobHandle:
        """Submit *spec* for *tenant*; returns a handle immediately.

        The handle may already be resolved: with the cached result (cache
        hit) or a :class:`Rejected` (admission shed it, invalid spec, or
        the service is shutting down).
        """
        try:
            key = spec.key()
        except ConfigurationError as exc:
            handle = JobHandle(self, spec, tenant, key="")
            return self._resolve_rejected(handle, Rejected("invalid-spec", tenant, str(exc)))
        handle = JobHandle(self, spec, tenant, key)
        self._trace_instant(handle, "serve:submit")
        if not self._started or self._draining:
            return self._resolve_rejected(
                handle, Rejected("shutting-down", tenant, "service not accepting submissions")
            )
        if self.cache is not None:
            cached = self.cache.get(key)
            self._count_cache_lookup(hit=cached is not None)
            if cached is not None:
                handle.cached = True
                handle.admitted_at = handle.finished_at = time.monotonic()
                handle._finish(JobHandle.DONE)
                handle._future.set_result(cached)
                self._count_job(handle, "cache-hit")
                self._trace_instant(handle, "serve:cache-hit")
                return handle
        offer = self._queue.offer(tenant, handle, priority=priority)
        if isinstance(offer, Rejected):
            return self._resolve_rejected(handle, offer)
        handle._ticket = offer
        self._gauge_queue_depth()
        self._wake.set()
        return handle

    def _resolve_rejected(self, handle: JobHandle, rejection: Rejected) -> JobHandle:
        handle._finish(JobHandle.REJECTED)
        handle._future.set_result(rejection)
        self._count_job(handle, "rejected", reason=rejection.reason)
        self._trace_instant(handle, "serve:rejected", args={"reason": rejection.reason})
        return handle

    def _cancel(self, handle: JobHandle) -> bool:
        if handle.done():
            return False
        handle._cancel_requested = True
        if handle.status == JobHandle.QUEUED and handle._ticket is not None:
            if self._queue.cancel(handle.tenant, handle._ticket):
                handle._finish(JobHandle.CANCELLED)
                handle._future.set_exception(
                    JobCancelled(f"{handle.spec.substrate}/{handle.spec.workload}: "
                                 f"cancelled while queued")
                )
                self._count_job(handle, "cancelled")
                self._gauge_queue_depth()
                return True
        sup = handle._supervisor  # the executor thread clears it when the run ends
        if sup is not None:
            sup.request_stop()
        return True

    # -- the worker loop ----------------------------------------------------------

    async def _worker(self, wid: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            picked = self._queue.next_ready(self._active)
            if picked is None:
                if self._draining and self._queue.queued() == 0:
                    return
                self._wake.clear()
                if self._draining and self._queue.queued() == 0:  # re-check after clear
                    return
                await self._wake.wait()
                continue
            tenant, handle = picked
            handle.admitted_at = time.monotonic()
            handle.status = JobHandle.RUNNING
            wait = handle.admitted_at - handle.submitted_at
            if self.metrics is not None:
                self.metrics.histogram(
                    "serve_queue_latency_seconds",
                    "submit-to-admit wait per job",
                    buckets=_QUEUE_BUCKETS,
                ).observe(wait, tenant=tenant)
            self._gauge_queue_depth()
            self._active[tenant] = self._active.get(tenant, 0) + 1
            self._peak_active[tenant] = max(self._peak_active.get(tenant, 0), self._active[tenant])
            self._gauge_active()
            t_run0 = self._trace_now()
            try:
                outcome, payload = await loop.run_in_executor(
                    self._pool, self._run_supervised, handle
                )
            finally:
                self._active[tenant] -= 1
                self._gauge_active()
            self._trace_job(handle, wid, t_run0, outcome)
            if outcome == "completed":
                if self.cache is not None and not handle._cancel_requested:
                    try:
                        self.cache.put(
                            handle.key, payload,
                            meta={"tenant": tenant, "substrate": handle.spec.substrate,
                                  "workload": handle.spec.workload},
                        )
                    except Exception as exc:
                        # an uncacheable result degrades the cache, not the job
                        if self.metrics is not None:
                            self.metrics.counter(
                                "serve_cache_put_errors_total",
                                "results that could not be cached",
                            ).inc(substrate=handle.spec.substrate)
                        self._trace_instant(
                            handle, "serve:cache-put-failed", args={"error": repr(exc)}
                        )
                handle._finish(JobHandle.DONE)
                handle._future.set_result(payload)
            elif outcome == "cancelled":
                handle._finish(JobHandle.CANCELLED)
                handle._future.set_exception(
                    JobCancelled(
                        f"{handle.spec.substrate}/{handle.spec.workload}: cancelled "
                        f"after {payload.steps_done} steps"
                    )
                )
            else:  # failed
                handle._finish(JobHandle.FAILED)
                handle._future.set_exception(payload)
            if self.metrics is not None and handle.admitted_at is not None:
                self.metrics.histogram(
                    "serve_job_seconds", "admit-to-complete job time"
                ).observe(
                    handle.finished_at - handle.admitted_at,
                    tenant=tenant, substrate=handle.spec.substrate, outcome=outcome,
                )
            self._count_job(handle, outcome)
            self._wake.set()  # a quota slot freed; peers may have work now

    def _run_supervised(self, handle: JobHandle) -> tuple:
        """Executor-thread body: build the job, drive it under supervision.

        The loop hears from this thread only while the handle has a
        progress subscriber (see :meth:`JobHandle._watch`); a job nobody
        watches reaches it once, when the run returns.
        """
        try:
            with handle.spec.build() as job:
                if handle._cancel_requested:
                    return "cancelled", JobInterrupted("cancelled before start", steps_done=0)
                sup = Supervisor(job, retry=self.retry, metrics=self.metrics, tracer=self.tracer)
                handle._supervisor = sup
                handle._watch()  # a subscriber that came first
                if handle._cancel_requested:  # cancel raced the supervisor hookup
                    sup.request_stop()
                try:
                    return "completed", sup.run()
                finally:
                    handle._supervisor = None
        except JobInterrupted as intr:
            return "cancelled", intr
        except Exception as exc:  # surfaced to the awaiting tenant
            return "failed", exc

    # -- observability ------------------------------------------------------------

    def _trace_now(self) -> float:
        return self.tracer.clock() if self.tracer else 0.0

    def _trace_instant(self, handle: JobHandle, name: str, *, args: dict | None = None) -> None:
        handle._trace_ts[name] = self._trace_now()
        if self.tracer:
            self.tracer.instant(
                name, cat="serve", pid="serve", tid=handle.tenant,
                args={"substrate": handle.spec.substrate, "workload": handle.spec.workload,
                      "key": handle.key[:12], **(args or {})},
            )

    def _trace_job(self, handle: JobHandle, wid: int, t_run0: float, outcome: str) -> None:
        if not self.tracer:
            return
        t_submit = handle._trace_ts.get("serve:submit", t_run0)
        t_end = self.tracer.clock()
        common = {"substrate": handle.spec.substrate, "workload": handle.spec.workload,
                  "key": handle.key[:12], "tenant": handle.tenant}
        queued = self.tracer.add_span(
            "serve:queued", start=t_submit, end=t_run0, cat="serve",
            pid="serve", tid=handle.tenant, args=common,
        )
        run = self.tracer.add_span(
            f"serve:run:{handle.spec.workload}", start=t_run0, end=t_end, cat="serve",
            pid="serve", tid=f"worker-{wid}", args={**common, "outcome": outcome},
        )
        done = self.tracer.instant(
            "serve:complete", ts=t_end, cat="serve", pid="serve", tid=handle.tenant,
            args={**common, "outcome": outcome},
        )
        self.tracer.flow("serve:admit", (queued.pid, queued.tid, queued.end), run)
        self.tracer.flow(
            "serve:finish", (run.pid, run.tid, run.end), (done.pid, done.tid, done.ts)
        )

    def _count_job(self, handle: JobHandle, outcome: str, **extra) -> None:
        if self.metrics is not None:
            self.metrics.counter("serve_jobs_total", "submissions by final outcome").inc(
                tenant=handle.tenant, outcome=outcome, **extra
            )

    def _count_cache_lookup(self, *, hit: bool) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "serve_cache_requests_total", "result-cache lookups at submit"
            ).inc(result="hit" if hit else "miss")
            self.metrics.gauge(
                "serve_cache_hit_ratio", "cache hits over lookups since start"
            ).set(self.cache.hit_rate)

    def _gauge_queue_depth(self) -> None:
        if self.metrics is not None:
            g = self.metrics.gauge("serve_queue_depth", "jobs waiting for admission")
            for tenant in self._queue.tenants():
                g.set(self._queue.queued(tenant), tenant=tenant)

    def _gauge_active(self) -> None:
        if self.metrics is not None:
            g = self.metrics.gauge("serve_active_jobs", "jobs currently running")
            for tenant in self._queue.tenants():
                g.set(self._active.get(tenant, 0), tenant=tenant)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        """Queue/shed/served per tenant, peak concurrency, cache hit rate."""
        out = {"tenants": self._queue.stats(), "peak_active": dict(self._peak_active)}
        for name, st in out["tenants"].items():
            st["peak_active"] = self._peak_active.get(name, 0)
        if self.cache is not None:
            out["cache"] = {
                "hits": self.cache.hits, "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate, "entries": len(self.cache),
            }
        return out

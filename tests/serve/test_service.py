"""Tests for the async job service: futures, cancel, progress, SLOs.

The tests drive real asyncio services over the real substrates; each
async body runs under ``asyncio.run`` inside a sync test (no
pytest-asyncio dependency).
"""

import asyncio
import collections
import gc
import sys
import threading
import time
import weakref

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.job import Job, JobProgress
from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    JobCancelled,
    JobHandle,
    JobService,
    JobSpec,
    Rejected,
    ResultCache,
    TenantPolicy,
    register_workload,
    result_fingerprint,
)

#: fast mixed-substrate specs (distinct cache keys unless repeated)
FAST_SPECS = [
    JobSpec("easypap", "sandpile", {"size": 16, "grains": 200, "variant": "seq"}),
    JobSpec("easypap", "sandpile", {"size": 16, "grains": 300}),
    JobSpec("mapreduce", "wordcount", {"nsplits": 2, "lines_per_split": 2}),
    JobSpec("mapreduce", "wordcount", {"nsplits": 3, "num_reducers": 2}),
    JobSpec("simmpi", "world", {"nranks": 2}),
    JobSpec("simmpi", "world", {"world": "ring", "nranks": 3}),
    JobSpec("wrench", "montage", {"n_projections": 3, "n_difffits": 4}),
]

#: a sandpile with enough iterations to observe/cancel mid-flight
SLOW_SPEC = JobSpec("easypap", "sandpile", {"size": 24, "grains": 6000, "variant": "seq"})


class SlowCountJob(Job):
    """Deterministic steps with a real (tiny) duration; checkpointable."""

    name = "slow-count"
    substrate = "test"
    supports_checkpoint = True

    def __init__(self, n=200, delay=0.002):
        self.n, self.delay, self.i = n, delay, 0

    def step(self):
        import time

        if self.i >= self.n:
            return False
        time.sleep(self.delay)
        self.i += 1
        return self.i < self.n

    def result(self):
        return {"count": self.i}

    def progress(self):
        return JobProgress(steps_done=self.i, done=self.i >= self.n, steps_total=self.n)

    def checkpoint(self):
        return {"i": self.i}

    def restore(self, state):
        self.i = state["i"]


class FailingJob(Job):
    name = "doomed"
    substrate = "test"
    retryable_steps = True

    def step(self):
        raise SimulationError("wired to fail")

    def result(self):  # pragma: no cover - never completes
        return None

    def progress(self):
        return JobProgress(steps_done=0, done=False)


#: held shut while a test submits, so no gated job can finish before then
GATE = threading.Event()


class GatedJob(Job):
    """One step that blocks until :data:`GATE` opens."""

    name = "gated"
    substrate = "test"

    def __init__(self):
        self.done = False

    def step(self):
        if not GATE.wait(timeout=30):
            raise TimeoutError("the test never opened the gate")
        self.done = True
        return False

    def result(self):
        return {"done": self.done}

    def progress(self):
        return JobProgress(steps_done=int(self.done), done=self.done, steps_total=1)


# registered once at import: service tests share the global spec registry
register_workload("test", "slow-count", lambda p: SlowCountJob(**p),
                  defaults={"n": 200, "delay": 0.002})
register_workload("test", "doomed", lambda p: FailingJob())
register_workload("test", "gated", lambda p: GatedJob())


def run(coro):
    return asyncio.run(coro)


class TestSubmitBasics:
    def test_submit_and_await_result(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(FAST_SPECS[2], tenant="a")
                assert isinstance(handle, JobHandle)
                result = await handle.result()
                assert handle.status == JobHandle.DONE
                assert handle.done()
                return result

        result = run(body())
        assert result.pairs  # mapreduce JobResult

    def test_unknown_tenant_is_honestly_rejected(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                return await svc.submit(FAST_SPECS[2], tenant="ghost").result()

        r = run(body())
        assert isinstance(r, Rejected) and r.reason == "unknown-tenant"

    def test_invalid_spec_is_honestly_rejected(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                bad = JobSpec("easypap", "no-such-workload")
                return await svc.submit(bad, tenant="a").result()

        r = run(body())
        assert isinstance(r, Rejected) and r.reason == "invalid-spec"

    def test_failed_job_raises_its_error(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(JobSpec("test", "doomed"), tenant="a")
                with pytest.raises(SimulationError, match="wired to fail"):
                    await handle.result()
                assert handle.status == JobHandle.FAILED

        run(body())

    def test_submit_after_stop_is_rejected(self):
        async def body():
            svc = JobService([TenantPolicy(name="a")], workers=1)
            await svc.start()
            await svc.stop()
            return await svc.submit(FAST_SPECS[2], tenant="a").result()

        r = run(body())
        assert isinstance(r, Rejected) and r.reason == "shutting-down"

    def test_stop_without_drain_sheds_queued_jobs(self):
        async def body():
            svc = JobService([TenantPolicy(name="a", max_active=1, max_queued=16)],
                             workers=1)
            await svc.start()
            handles = [
                svc.submit(JobSpec("test", "slow-count", {"n": 50}), tenant="a")
                for _ in range(4)
            ]
            await asyncio.sleep(0.05)  # let the first job start
            await svc.stop(drain=False)
            return [await _outcome(h) for h in handles]

        outcomes = run(body())
        assert any(o == "shutting-down" for o in outcomes)

    def test_overflow_is_shed_as_queue_full(self):
        """With one slot running and one queued, the rest are ``queue-full``.

        Every job waits on :data:`GATE`, which opens only after the last
        submission, so no job can finish and free a place while the
        requests arrive, on any host speed.
        """
        requests = 12
        metrics = MetricsRegistry()

        async def body():
            pol = TenantPolicy(name="a", max_active=1, max_queued=1)
            async with JobService([pol], workers=1, metrics=metrics) as svc:
                handles = []
                for _ in range(requests):
                    handles.append(svc.submit(JobSpec("test", "gated"), tenant="a"))
                    await asyncio.sleep(0)  # the worker may pick up the queued job
                statuses = collections.Counter(h.status for h in handles)
                GATE.set()
                return statuses, [await _outcome(h) for h in handles]

        GATE.clear()
        try:
            statuses, outcomes = run(body())
        finally:
            GATE.set()
        assert statuses == {JobHandle.RUNNING: 1, JobHandle.QUEUED: 1,
                            JobHandle.REJECTED: requests - 2}
        completed, rejected = outcomes.count("ok"), outcomes.count("queue-full")
        assert rejected == requests - 2
        assert completed + rejected == requests
        shed = metrics.get("serve_jobs_total").value(
            tenant="a", outcome="rejected", reason="queue-full")
        assert shed == rejected


async def _outcome(handle):
    try:
        r = await handle.result()
    except JobCancelled:
        return "cancelled"
    except Exception:
        return "failed"
    return r.reason if isinstance(r, Rejected) else "ok"


class TestCancellation:
    def test_cancel_queued_job(self):
        async def body():
            pol = TenantPolicy(name="a", max_active=1, max_queued=8)
            async with JobService([pol], workers=1) as svc:
                running = svc.submit(JobSpec("test", "slow-count", {"n": 100}), tenant="a")
                queued = svc.submit(JobSpec("test", "slow-count", {"n": 101}), tenant="a")
                assert queued.cancel() is True
                with pytest.raises(JobCancelled, match="queued"):
                    await queued.result()
                assert queued.status == JobHandle.CANCELLED
                assert (await running.result())["count"] == 100

        run(body())

    def test_cancel_running_job_interrupts_mid_step(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(
                    JobSpec("test", "slow-count", {"n": 2000}), tenant="a"
                )
                async for progress in handle.progress():
                    if progress.steps_done >= 3:
                        handle.cancel()
                        break
                with pytest.raises(JobCancelled):
                    await handle.result()
                assert handle.status == JobHandle.CANCELLED

        run(body())

    def test_cancel_running_pfrontier_segment(self):
        """A running ``pfrontier`` job takes its steps as one segment (one
        parallel region); a cancel ends it at a step boundary inside it."""
        spec = JobSpec("easypap", "sandpile", {"size": 64, "grains": 12000, "variant": "pfrontier"})

        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(spec, tenant="a")
                while handle.status != JobHandle.RUNNING:
                    await asyncio.sleep(0.001)
                await asyncio.sleep(0.05)
                handle.cancel()
                with pytest.raises(JobCancelled, match=r"after [1-9][0-9]* steps"):
                    await handle.result()
                assert handle.status == JobHandle.CANCELLED

        run(body())

    def test_cancel_running_in_process_segment(self):
        """An in-process sandpile job also takes its steps as one segment (a
        loop of stepper calls); a cancel ends it at a call boundary inside it."""
        spec = JobSpec("easypap", "sandpile", {"size": 128, "grains": 40000, "variant": "vec"})

        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(spec, tenant="a")
                while handle.status != JobHandle.RUNNING:
                    await asyncio.sleep(0.001)
                await asyncio.sleep(0.05)
                handle.cancel()
                with pytest.raises(JobCancelled, match=r"after [1-9][0-9]* steps"):
                    await handle.result()
                assert handle.status == JobHandle.CANCELLED

        run(body())

    def test_cancel_done_handle_is_false(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(FAST_SPECS[2], tenant="a")
                await handle.result()
                return handle.cancel()

        assert run(body()) is False


class TestProgressStreaming:
    def test_progress_snapshots_arrive_in_order(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(
                    JobSpec("test", "slow-count", {"n": 10}), tenant="a"
                )
                seen = [p.steps_done async for p in handle.progress()]
                result = await handle.result()
                return seen, result

        seen, result = run(body())
        assert result == {"count": 10}
        assert seen == sorted(seen)
        assert seen[-1] == 10

    def test_progress_on_done_handle_yields_nothing(self):
        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                handle = svc.submit(FAST_SPECS[2], tenant="a")
                await handle.result()
                return [p async for p in handle.progress()]

        assert run(body()) == []


class TestProgressHandoff:
    """The executor thread wakes the event loop for progress only while a
    handle has a subscriber, with at most one hand-off pending per handle."""

    def test_unwatched_job_wakes_the_loop_as_often_at_200_steps_as_at_10(self):
        async def wakeups(svc, n):
            loop = asyncio.get_running_loop()
            calls = []
            call = loop.call_soon_threadsafe

            def counting(callback, *args):
                calls.append(callback)
                return call(callback, *args)

            loop.call_soon_threadsafe = counting
            try:
                handle = svc.submit(JobSpec("test", "slow-count", {"n": n, "delay": 0.0}),
                                    tenant="a")
                assert await handle.result() == {"count": n}
            finally:
                del loop.call_soon_threadsafe
            return len(calls)

        async def body():
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                return [await wakeups(svc, n) for n in (10, 200)]

        short, long = run(body())
        assert short == long

    def test_watched_jobs_keep_one_handoff_pending(self, monkeypatch):
        """Three watched jobs on three worker threads (more than the
        cores), a short switch interval and a loop kept busy by its
        readers: per handle at most one hand-off is pending, snapshots
        never go backwards, and each stream ends with the final state."""
        lock = threading.Lock()
        pending, most = collections.Counter(), collections.Counter()
        real_publish = JobHandle._publish

        def publish(handle, *args):
            with lock:
                pending[id(handle)] -= 1
            real_publish(handle, *args)

        monkeypatch.setattr(JobHandle, "_publish", publish)

        async def watch(handle):
            seen = []
            async for p in handle.progress():
                seen.append(p)
                time.sleep(0.005)  # a busy loop: the job runs on meanwhile
            return seen, await handle.result()

        async def body():
            loop = asyncio.get_running_loop()
            call = loop.call_soon_threadsafe

            def counting(callback, *args):
                if getattr(callback, "__func__", None) is publish:
                    key = id(callback.__self__)
                    with lock:
                        pending[key] += 1
                        most[key] = max(most[key], pending[key])
                return call(callback, *args)

            loop.call_soon_threadsafe = counting
            async with JobService([TenantPolicy(name="a", max_active=3)], workers=3) as svc:
                handles = [
                    svc.submit(JobSpec("test", "slow-count", {"n": 40 + i, "delay": 0.001}),
                               tenant="a")
                    for i in range(3)
                ]
                return await asyncio.gather(*(watch(h) for h in handles))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            streams = run(body())
        finally:
            sys.setswitchinterval(switch)
        assert len(most) == 3 and max(most.values()) == 1
        for i, (seen, result) in enumerate(streams):
            steps = [p.steps_done for p in seen]
            assert steps == sorted(steps)
            assert seen[-1].done and seen[-1].steps_done == 40 + i
            assert result == {"count": 40 + i}


class TestHandleLifetime:
    def test_resolved_handles_are_dropped_with_the_client(self):
        """Once jobs resolve and the client drops their handles, a running
        service keeps at most one per worker (the last it ran)."""

        async def body():
            async with JobService([TenantPolicy(name="a")], workers=2) as svc:
                handles = [
                    svc.submit(JobSpec("test", "slow-count", {"n": 1 + i, "delay": 0.0}),
                               tenant="a")
                    for i in range(20)
                ]
                for handle in handles:
                    await handle.result()
                refs = [weakref.ref(h) for h in handles]
                del handles, handle
                gc.collect()
                return sum(r() is not None for r in refs), svc.workers

        alive, workers = run(body())
        assert alive <= workers


class TestAcceptance:
    """The ISSUE's integration scenario: >= 20 mixed jobs, 3 tenants."""

    def test_mixed_tenant_load(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer(process="serve")
        cache = ResultCache(tmp_path / "cache")
        tenants = [
            TenantPolicy(name="alice", weight=3.0, max_active=2, max_queued=24),
            TenantPolicy(name="bob", weight=1.0, max_active=1, max_queued=4),
            TenantPolicy(name="carol", weight=1.0, max_active=2, max_queued=24),
        ]

        async def body():
            async with JobService(
                tenants, workers=3, cache=cache, metrics=metrics, tracer=tracer
            ) as svc:
                names = ["alice", "bob", "carol"]
                handles = [
                    svc.submit(FAST_SPECS[i % len(FAST_SPECS)], tenant=names[i % 3])
                    for i in range(21)
                ]
                outcomes = [await _outcome(h) for h in handles]
                # resubmit an identical job: must be served from the cache,
                # bit-identical to the fresh run that populated it
                fresh = next(
                    h for h in handles
                    if h.spec == FAST_SPECS[0] and h.status == JobHandle.DONE
                    and not h.cached
                )
                again = svc.submit(FAST_SPECS[0], tenant="carol")
                cached_result = await again.result()
                return outcomes, svc.stats(), fresh, again, cached_result

        outcomes, stats, fresh, again, cached_result = run(body())

        # every submission completed or was honestly rejected
        assert set(outcomes) <= {"ok", "queue-full"}
        assert outcomes.count("ok") >= 15

        # cache hit, bit identical
        assert again.cached is True
        fresh_result = asyncio.run(fresh.result())
        assert result_fingerprint(cached_result) == result_fingerprint(fresh_result)

        # per-tenant quotas were enforced throughout
        for pol in tenants:
            assert stats["peak_active"].get(pol.name, 0) <= pol.max_active

        # the SLO series are exposed with nonzero samples
        prom = metrics.to_prometheus()
        assert "serve_queue_latency_seconds_count" in prom
        assert "serve_job_seconds_count" in prom
        assert "serve_cache_hit_ratio" in prom
        qh = metrics.get("serve_queue_latency_seconds")
        assert sum(qh.count(tenant=t) for t in ("alice", "bob", "carol")) >= 15
        assert metrics.get("serve_job_seconds").samples()  # nonzero series
        assert metrics.get("serve_cache_hit_ratio").samples()[0]["value"] > 0

        # every completed job left a queued span, a run span, and flows
        run_spans = [s for s in tracer.spans() if s.name.startswith("serve:run:")]
        assert len(run_spans) >= 15
        assert len([f for f in tracer.flows() if f.name == "serve:admit"]) == len(run_spans)

    def test_weighted_tenant_is_not_starved(self):
        # one worker, equal arrival: the heavy tenant finishes jobs
        # without waiting for the light tenant's whole backlog
        async def body():
            pols = [
                TenantPolicy(name="heavy", weight=4.0, max_active=1, max_queued=32),
                TenantPolicy(name="light", weight=1.0, max_active=1, max_queued=32),
            ]
            order = []
            async with JobService(pols, workers=1) as svc:
                handles = []
                for i in range(4):
                    handles.append(
                        (svc.submit(JobSpec("test", "slow-count",
                                            {"n": 5, "delay": 0.001}), tenant="light"), "light"))
                    handles.append(
                        (svc.submit(JobSpec("test", "slow-count",
                                            {"n": 6 + i, "delay": 0.001}), tenant="heavy"), "heavy"))
                done = set()
                while len(done) < len(handles):
                    for h, who in handles:
                        if h.done() and id(h) not in done:
                            done.add(id(h))
                            order.append(who)
                    await asyncio.sleep(0.002)
            return order

        order = run(body())
        assert "heavy" in order[:3]  # heavy was not queued behind all of light


class TestConfigErrors:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            JobService([TenantPolicy(name="a")], workers=0)

    def test_double_start_rejected(self):
        async def body():
            svc = JobService([TenantPolicy(name="a")], workers=1)
            await svc.start()
            try:
                with pytest.raises(ConfigurationError):
                    await svc.start()
            finally:
                await svc.stop()

        run(body())

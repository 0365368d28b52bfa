"""The ``serve-mix`` workload: an open loop into ``JobService``.

One process sends a seeded schedule of small jobs from three weighted
tenants into ``JobService(workers=2)`` with a memory ``ResultCache``.
Arrivals are a Poisson process at a fixed rate, a stated fraction of the
mix's measured saturation rate (see :data:`RATE`), conditioned on the
request count: ``n = rate * seconds`` due times drawn uniformly over the
window, so every seed offers exactly the same load.  A run repeats the
:data:`BLOCK_SECONDS` schedule, each time on a fresh service and cache, and
takes each request's median latency over the repetitions.

A fixed share of requests repeat an earlier spec whose first request was
due at least :data:`REPEAT_GAP_S` earlier.  At the chosen rate that first
request has long resolved, so which requests hit the cache is fixed by the
seed.  Fresh specs are distinct by cache key.

The generator is the benchmark's own: it sleeps until each absolute due
time, times latency from that due time (so a stall also delays every later
request), and records its own lateness.  While the service is empty it
times the yardstick (see :mod:`yardstick`), which puts latencies in
reference time; wall-time latencies are kept next to them.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field

from repro.common.job import Job
from repro.serve import JobCancelled, JobService, JobSpec, Rejected, ResultCache, TenantPolicy
from repro.serve import result_fingerprint
from spans import Spans
from stats import Outcomes, Rep, percentile
from yardstick import NEAREST, Speed

#: the offered load is one third of the mix's saturation rate.  Measured
#: with ``capacity.py`` on a 2-core x86-64 VM: completions keep up with the
#: offered rate up to 320 req/s (workers 81% busy, queue wait p90 108 ms)
#: and fall behind from 360 req/s (293 done/s, workers 99.5% busy, waits
#: over a second).  The workers are GIL-bound long before they are both
#: busy; at RATE they are busy 12-20% of the time (each run prints it).
SATURATION_RATE = 300.0
RATE = SATURATION_RATE / 3
#: one repetition of the schedule; a run repeats it on a fresh service and cache
BLOCK_SECONDS = 6.0
WORKERS = 2
REPEAT_SHARE = 0.25
#: far beyond any latency below saturation, so every original has resolved
REPEAT_GAP_S = 0.5
#: a yardstick probe needs the next request to be at least this far off,
#: and the last probe at least PROBE_SPACING_S ago
PROBE_GUARD_S = 0.003
PROBE_SPACING_S = 0.01
#: (name, weight, share of requests); quotas are wide enough that nothing is shed
TENANTS = (("alpha", 3.0, 0.5), ("beta", 2.0, 0.3), ("gamma", 1.0, 0.2))
#: the shapes fresh specs are dealt from, one shuffled pass after another:
#: half sandpile, a quarter each wordcount and montage.  A shape fixes every
#: parameter that sets the cost; the seed draws only the job's own ``seed``,
#: so each run offers the same mix of work and distinct cache keys.
DECK = (
    ("easypap", "sandpile", {"variant": "frontier", "config": "center", "size": 16,
                             "grains": 300}),
    ("easypap", "sandpile", {"variant": "frontier", "config": "uniform", "size": 16,
                             "grains": 4}),
    ("easypap", "sandpile", {"variant": "frontier", "config": "sparse", "size": 20,
                             "n_piles": 3, "pile_grains": 200}),
    ("easypap", "sandpile", {"variant": "vec", "config": "center", "size": 20, "grains": 250}),
    ("easypap", "sandpile", {"variant": "vec", "config": "uniform", "size": 20, "grains": 4}),
    ("easypap", "sandpile", {"variant": "vec", "config": "sparse", "size": 16,
                             "n_piles": 3, "pile_grains": 200}),
    ("easypap", "sandpile", {"variant": "lazy", "config": "center", "size": 12, "grains": 200}),
    ("easypap", "sandpile", {"variant": "lazy", "config": "uniform", "size": 12, "grains": 4}),
    ("easypap", "sandpile", {"variant": "lazy", "config": "sparse", "size": 16,
                             "n_piles": 2, "pile_grains": 150}),
    ("easypap", "sandpile", {"variant": "frontier", "config": "uniform", "size": 24,
                             "grains": 4}),
    ("mapreduce", "wordcount", {"nsplits": 2, "lines_per_split": 2, "words_per_line": 4,
                                "num_reducers": 1}),
    ("mapreduce", "wordcount", {"nsplits": 3, "lines_per_split": 3, "words_per_line": 6,
                                "num_reducers": 2}),
    ("mapreduce", "wordcount", {"nsplits": 4, "lines_per_split": 4, "words_per_line": 8,
                                "num_reducers": 3}),
    ("mapreduce", "wordcount", {"nsplits": 2, "lines_per_split": 4, "words_per_line": 8,
                                "num_reducers": 2}),
    ("mapreduce", "wordcount", {"nsplits": 3, "lines_per_split": 2, "words_per_line": 4,
                                "num_reducers": 3}),
    ("wrench", "montage", {"n_projections": 2, "n_difffits": 2}),
    ("wrench", "montage", {"n_projections": 3, "n_difffits": 3}),
    ("wrench", "montage", {"n_projections": 3, "n_difffits": 4}),
    ("wrench", "montage", {"n_projections": 4, "n_difffits": 6}),
    ("wrench", "montage", {"n_projections": 5, "n_difffits": 8}),
)
#: simmpi worlds have no seed, so each of the two is fresh once per run; two
#: ranks, because a simulated world runs one thread per rank
SIMMPI = (
    ("simmpi", "world", {"world": "allreduce", "nranks": 2}),
    ("simmpi", "world", {"world": "ring", "nranks": 2}),
)


@dataclass
class Request:
    rid: int
    due: float
    tenant: str
    spec: JobSpec
    key: str
    repeat_of: int | None = None


def _fresh_specs(rng: random.Random):
    """Endless fresh specs: the simmpi worlds, then shuffled passes over DECK."""
    for substrate, workload, params in SIMMPI:
        yield JobSpec(substrate, workload, dict(params))
    while True:
        deck = list(DECK)
        rng.shuffle(deck)
        for substrate, workload, params in deck:
            yield JobSpec(substrate, workload, {**params, "seed": rng.randrange(10**9)})


def make_schedule(seed: int, seconds: float = BLOCK_SECONDS, rate: float = RATE) -> list[Request]:
    """The seeded request schedule (identical for a given seed)."""
    rng = random.Random(seed)
    n = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    # repeats go to random slots among those late enough to have an eligible original
    late = [i for i, d in enumerate(dues) if d >= dues[0] + REPEAT_GAP_S]
    repeat_slots = set(rng.sample(late, min(round(n * REPEAT_SHARE), len(late))))
    names = [t[0] for t in TENANTS]
    shares = [t[2] for t in TENANTS]
    specs = _fresh_specs(rng)
    seen: set[str] = set()
    fresh: list[Request] = []
    out: list[Request] = []
    for rid, due in enumerate(dues):
        tenant = rng.choices(names, shares)[0]
        eligible = [r for r in fresh if r.due <= due - REPEAT_GAP_S]
        if rid in repeat_slots and eligible:
            orig = rng.choice(eligible)
            out.append(Request(rid, due, tenant, orig.spec, orig.key, repeat_of=orig.rid))
            continue
        spec = next(specs)
        key = spec.key()
        while key in seen:  # a seed collision: deal the next spec
            spec = next(specs)
            key = spec.key()
        seen.add(key)
        req = Request(rid, due, tenant, spec, key)
        fresh.append(req)
        out.append(req)
    return out


def direct_fingerprints(schedule: list[Request]) -> dict[str, str]:
    """Fingerprint of a direct, unserved run of every distinct spec (the oracle)."""
    out: dict[str, str] = {}
    for req in schedule:
        if req.key not in out:
            with req.spec.build() as job:
                out[req.key] = result_fingerprint(job.run())
    return out


# -- benchmark-side probes (traced run only) -------------------------------------


class Probe:
    """Shared state of the traced run's timing wrappers."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.clock = spans.clock
        #: rid of the request currently inside ``JobService.submit``
        self.submitting: int | None = None
        self._lock = threading.Lock()
        self._running: dict[str, int] = {}
        # (job id, seconds) per call, or seconds per job id
        self.key_s: list[tuple[int, float]] = []
        self.get_s: list[tuple[int, float]] = []
        self.put_s: list[tuple[int, float]] = []
        self.build_s: dict[int, float] = {}
        self.step_s: dict[int, float] = {}

    def timed(self, name, layer, rid, sink, fn, *args, **kwargs):
        """Call ``fn`` as one span; ``(rid, duration)`` is appended to *sink*."""
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.spans.add(name, layer, rid, t0, t1)
            if sink is not None:
                sink.append((rid, t1 - t0))

    def running(self, key: str, rid: int) -> None:
        with self._lock:
            self._running[key] = rid

    def running_rid(self, key: str) -> int:
        with self._lock:
            return self._running.get(key, -1)


@dataclass(frozen=True)
class TimedSpec(JobSpec):
    """A JobSpec whose ``key`` and ``build`` calls are timed into spans."""

    rid: int = field(default=-1, compare=False)
    bench_key: str = field(default="", compare=False, repr=False)
    probe: Probe | None = field(default=None, compare=False, repr=False)

    def key(self) -> str:
        p = self.probe
        return p.timed("JobSpec.key", "serve.key", self.rid, p.key_s, super().key)

    def build(self) -> Job:
        p = self.probe
        t0 = p.clock()
        job = super().build()
        t1 = p.clock()
        p.spans.add("JobSpec.build", "serve.build", self.rid, t0, t1)
        p.build_s[self.rid] = t1 - t0
        p.running(self.bench_key, self.rid)
        return TimedJob(job, p, self.rid)


class TimedJob(Job):
    """Proxy over the built job; each ``step`` call is one span."""

    def __init__(self, job: Job, probe: Probe, rid: int) -> None:
        self._job = job
        self._probe = probe
        self._rid = rid
        self.name = job.name
        self.substrate = job.substrate
        self.retryable_steps = job.retryable_steps
        self.supports_checkpoint = job.supports_checkpoint

    def step(self) -> bool:
        p = self._probe
        t0 = p.clock()
        try:
            return self._job.step()
        finally:
            t1 = p.clock()
            p.spans.add("Job.step", "serve.step", self._rid, t0, t1, substrate=self.substrate)
            p.step_s[self._rid] = p.step_s.get(self._rid, 0.0) + (t1 - t0)

    def result(self):
        return self._job.result()

    def progress(self):
        return self._job.progress()

    def describe(self) -> dict:
        return self._job.describe()

    def checkpoint(self) -> dict:
        return self._job.checkpoint()

    def restore(self, state: dict) -> None:
        self._job.restore(state)

    def close(self) -> None:
        p = self._probe
        p.timed("Job.close", "serve.close", self._rid, None, self._job.close)


class TimedCache(ResultCache):
    """A memory ResultCache whose ``get`` and ``put`` calls are timed into spans."""

    def __init__(self, probe: Probe) -> None:
        super().__init__(None)
        self.probe = probe

    def get(self, key: str):
        p = self.probe
        return p.timed("ResultCache.get", "serve.cache_get", p.submitting, p.get_s,
                       super().get, key)

    def put(self, key: str, result, *, meta: dict | None = None) -> None:
        p = self.probe
        p.timed("ResultCache.put", "serve.cache_put", p.running_rid(key), p.put_s,
                super().put, key, result, meta=meta)


# -- the open loop ------------------------------------------------------------------


@dataclass
class Served:
    """Client-side record of one request."""

    req: Request
    sent: float = 0.0
    submit_end: float = 0.0
    resolved: float = 0.0
    status: str = ""
    cached: bool = False
    submitted_at: float | None = None
    admitted_at: float | None = None
    finished_at: float | None = None
    result: object = None
    reason: str = ""

    #: reference-time factor of the yardstick probes nearest this request
    factor: float = 1.0

    def wall_latency(self, t0: float) -> float:
        """Due-to-resolution latency in wall time."""
        return self.resolved - (t0 + self.req.due)

    def latency(self, t0: float) -> float:
        """Due-to-resolution latency in reference time."""
        return self.wall_latency(t0) * self.factor


@dataclass
class ServeRun:
    t0: float
    records: list[Served]
    wall: float
    stats: dict = field(default_factory=dict)
    #: span job ids of this repetition are ``jid0 + rid``
    jid0: int = 0
    #: median yardstick time over the repetition
    yard: float = 0.0


async def _watch(rec: Served, handle) -> None:
    try:
        result = await handle.result()
    except JobCancelled:
        rec.status = "cancelled"
    except Exception as exc:  # surfaced job errors count as failed
        rec.status = "failed"
        rec.reason = repr(exc)
    else:
        if isinstance(result, Rejected):
            rec.status = "rejected"
            rec.reason = result.reason
        else:
            rec.status = "completed"
            rec.result = result
    rec.resolved = time.monotonic()
    rec.cached = handle.cached
    rec.submitted_at = handle.submitted_at
    rec.admitted_at = handle.admitted_at
    rec.finished_at = handle.finished_at


async def _drive(schedule, specs, cache, metrics, probe, jid0, speed: Speed) -> ServeRun:
    tenants = [TenantPolicy(name, weight=w, max_active=WORKERS, max_queued=10_000)
               for name, w, _share in TENANTS]
    service = JobService(tenants, workers=WORKERS, cache=cache, metrics=metrics)
    records = [Served(req) for req in schedule]
    watchers = []
    unresolved = [0]

    async def watch(rec, handle):
        try:
            await _watch(rec, handle)
        finally:
            unresolved[0] -= 1

    t_first = time.monotonic()
    for _ in range(NEAREST):
        speed.probe()
    await service.start()
    try:
        t0 = time.monotonic() + 0.05
        last_probe = 0.0
        for rec, spec in zip(records, specs):
            due = t0 + rec.req.due
            while (delay := due - time.monotonic()) > 0:
                # the yardstick runs only while no request is in the service and
                # the next one is not due soon, so it neither delays nor slows one
                now = time.monotonic()
                if (unresolved[0] == 0 and delay > PROBE_GUARD_S
                        and now - last_probe > PROBE_SPACING_S):
                    speed.probe()
                    last_probe = now
                else:
                    await asyncio.sleep(min(delay, PROBE_GUARD_S))
            rec.sent = time.monotonic()
            if probe is not None:
                probe.submitting = jid0 + rec.req.rid
            handle = service.submit(spec, tenant=rec.req.tenant)
            rec.submit_end = time.monotonic()
            unresolved[0] += 1
            watchers.append(asyncio.ensure_future(watch(rec, handle)))
        await asyncio.gather(*watchers)
    finally:
        await service.stop()
    for _ in range(NEAREST):
        speed.probe()
    for rec in records:
        rec.factor = speed.factor(t0 + rec.req.due, rec.resolved)
    wall = max(r.resolved for r in records) - t0
    return ServeRun(t0, records, wall, service.stats(), jid0,
                    speed.median_between(t_first, time.monotonic()))


def serve(schedule: list[Request], speed: Speed, probe: Probe | None = None, metrics=None,
          rep: int = 0) -> ServeRun:
    """Run *schedule* against a fresh service and cache; traced when *probe* is given."""
    jid0 = rep * len(schedule)
    if probe is None:
        specs = [r.spec for r in schedule]
        cache = ResultCache(None)
    else:
        specs = [TimedSpec(r.spec.substrate, r.spec.workload, r.spec.params,
                           rid=jid0 + r.rid, bench_key=r.key, probe=probe) for r in schedule]
        cache = TimedCache(probe)
    return asyncio.run(_drive(schedule, specs, cache, metrics, probe, jid0, speed))


def utilisation(run: ServeRun) -> float:
    """Share of the run's wall time the service's workers spent running jobs.

    Busy time is admit-to-finish of every job a worker ran (cache hits run
    on none), summed and divided by ``WORKERS * wall``.
    """
    busy = sum(r.finished_at - r.admitted_at for r in run.records
               if not r.cached and r.admitted_at is not None and r.finished_at is not None)
    return busy / (WORKERS * run.wall)


def check(run: ServeRun, oracle: dict[str, str], out: Outcomes) -> Rep:
    """Outcome accounting with the correctness gate; latency per request.

    Every completed result must match the direct run of its spec, and every
    cache hit must match the fresh served result it replays.  The latency
    of a request without a correct result is None.
    """
    fresh: dict[str, str] = {}
    hits = []
    for rec in run.records:
        out.attempted += 1
        if rec.status != "completed":
            setattr(out, rec.status, getattr(out, rec.status) + 1)
            print(f"request {rec.req.rid} {rec.status}: {rec.reason}")
            continue
        fp = result_fingerprint(rec.result)
        rec.result = None
        ok = fp == oracle[rec.req.key]
        if rec.cached:
            hits.append((rec, fp))
        else:
            fresh.setdefault(rec.req.key, fp)
        rec.status = "ok" if ok else "wrong"
    for rec, fp in hits:
        if fresh.get(rec.req.key) not in (None, fp):
            rec.status = "wrong"
    for rec in run.records:
        if rec.status == "ok":
            out.ok += 1
        elif rec.status == "wrong":
            out.wrong += 1
            print(f"WRONG result: request {rec.req.rid} {rec.req.spec}")
    ok = [r.status == "ok" for r in run.records]
    return Rep([r.latency(run.t0) if good else None for r, good in zip(run.records, ok)],
               [r.wall_latency(run.t0) if good else None for r, good in zip(run.records, ok)],
               run.yard)


def record_spans(run: ServeRun, spans: Spans) -> None:
    """Add the client-side spans that bracket each request's program spans."""
    for rec in run.records:
        jid, due = run.jid0 + rec.req.rid, run.t0 + rec.req.due
        start = min(due, rec.sent)
        spans.add(f"request {rec.req.rid}", "job", jid, start, rec.resolved,
                  tenant=rec.req.tenant, substrate=rec.req.spec.substrate,
                  cached=rec.cached, status=rec.status)
        spans.add("generator lag", "client.gen_lag", jid, start, rec.sent)
        spans.add("JobService.submit", "serve.submit", jid, rec.sent, rec.submit_end)
        after_submit = rec.submit_end
        if rec.admitted_at is not None and not rec.cached:
            spans.add("queued", "serve.queue", jid, rec.submit_end, rec.admitted_at)
            spans.add("run", "serve.run", jid, rec.admitted_at, rec.finished_at)
            after_submit = rec.finished_at
        spans.add("resolve", "client.resolve", jid, after_submit, rec.resolved)


def layer_metrics(runs: list[ServeRun], probe: Probe, metrics) -> dict:
    """Per-layer serve and supervisor numbers from the traced repetitions.

    Times are in reference time, each scaled by its request's factor.
    Counts are per repetition: every repetition serves the same schedule.
    """
    factor = {run.jid0 + r.req.rid: r.factor for run in runs for r in run.records}

    def p50(pairs, unit):
        return percentile([dt * factor[jid] for jid, dt in pairs], 0.5) * unit

    m: dict = {}
    waits, overhead, hits, lags = [], [], [], []
    run_s = step_total = build_total = 0.0
    per_sub: dict[str, list[float]] = {}
    for run in runs:
        for r in run.records:
            lags.append((r.sent - (run.t0 + r.req.due)) * r.factor)
            if r.cached and r.status == "ok":
                hits.append(r.latency(run.t0))
            if r.cached or r.admitted_at is None:
                continue
            jid = run.jid0 + r.req.rid
            waits.append((r.admitted_at - r.submitted_at) * r.factor)
            run_time = (r.finished_at - r.admitted_at) * r.factor
            steps = probe.step_s.get(jid, 0.0) * r.factor
            build = probe.build_s.get(jid, 0.0) * r.factor
            overhead.append(run_time - build - steps)
            run_s += run_time
            step_total += steps
            build_total += build
            per_sub.setdefault(r.req.spec.substrate, []).append(steps)
    m["serve.queue_wait_ms_p50"] = percentile(waits, 0.5) * 1e3
    m["serve.queue_wait_ms_p90"] = percentile(waits, 0.9) * 1e3
    m["serve.overhead_ms_p50"] = percentile(overhead, 0.5) * 1e3
    m["serve.compute_share"] = step_total / run_s
    m["serve.overhead_share"] = (run_s - build_total - step_total) / run_s
    for sub, vals in per_sub.items():
        m[f"serve.compute_ms.{sub}"] = percentile(vals, 0.5) * 1e3
    m["serve.key_us"] = p50(probe.key_s, 1e6)
    m["serve.build_ms"] = p50(probe.build_s.items(), 1e3)
    m["serve.cache_get_us"] = p50(probe.get_s, 1e6)
    if probe.put_s:
        m["serve.cache_put_us"] = p50(probe.put_s, 1e6)
    if hits:
        m["serve.hit_latency_us_p50"] = percentile(hits, 0.5) * 1e6
    m["serve.gen_lag_ms_p90"] = percentile(lags, 0.9) * 1e3

    def series(name):
        fam = metrics.get(name)
        return fam.samples() if fam is not None else []

    by_result = {row["labels"]["result"]: row["value"]
                 for row in series("serve_cache_requests_total")}
    total = sum(by_result.values())
    m["serve.cache_lookups"] = total / len(runs)
    m["serve.cache_hit_ratio"] = by_result.get("hit", 0.0) / total if total else 0.0
    for reason in ("queue-full", "unknown-tenant", "invalid-spec", "shutting-down"):
        m[f"serve.rejected.{reason}"] = sum(
            row["value"] for row in series("serve_jobs_total")
            if row["labels"].get("outcome") == "rejected"
            and row["labels"].get("reason") == reason
        ) / len(runs)
    for name in ("steps", "retries"):
        m[f"supervisor.{name}"] = sum(
            row["value"] for row in series(f"supervisor_{name}_total")
        ) / len(runs)
    return m

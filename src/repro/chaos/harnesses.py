"""Per-substrate scenario harnesses.

Each harness runs one :class:`~repro.chaos.scenarios.Scenario` against a
small real workload on its substrate and returns the list of **violated
invariant names** (empty = the scenario passed) plus a detail dict.  The
invariants, by name:

``bit-identical``    faulted/resumed result differs from the fault-free baseline
``fault-fired``      the configured fault never actually happened (vacuous green)
``degradation-recorded``  recovery happened but left no audit trail
``bounded-retries``  more retries than the policy allows
``honest-work``      step/iteration accounting disagrees with the baseline
``resume-equivalence``    a resumed run did not complete or lost its snapshot
``diagnosable-error``     an expected failure surfaced without actionable detail
``fresh-lease``      a job ran on a pooled worker it must not lease: one of
                     a dead, failed or outdated set, or of a set another
                     running job holds
``pool-reused``      a clean idle set was not leased again, so a pool cell
                     checked nothing

Workloads are sized for sub-second runs so a full campaign stays cheap
enough for CI; seeds flow from the scenario so campaigns are
reproducible cell by cell.
"""

from __future__ import annotations

from repro.common.checkpoint import CheckpointStore
from repro.common.errors import CommunicationError
from repro.common.resilience import Deadline, DegradationLog, FaultInjector, RetryPolicy
from repro.common.rng import make_rng
from repro.common.supervisor import JobInterrupted, Supervisor
from repro.chaos.scenarios import POOL_KINDS, Scenario

__all__ = ["run_scenario", "HARNESSES"]

#: fast, deterministic retry budget used by every harness
_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _corrupt(path) -> None:
    """Flip bytes in the middle of a snapshot file (payload region)."""
    with open(path, "r+b") as fh:
        fh.seek(max(0, path.stat().st_size // 2))
        fh.write(b"\xde\xad\xbe\xef")


class _Ctx:
    """What a harness gets from the campaign runner."""

    def __init__(self, workdir, metrics=None, tracer=None) -> None:
        self.workdir = workdir
        self.metrics = metrics
        self.tracer = tracer

    def store(self, name: str, *, keep: int = 5) -> CheckpointStore:
        return CheckpointStore(self.workdir / name, keep=keep)

    def supervisor(self, job, **kwargs) -> Supervisor:
        kwargs.setdefault("retry", _RETRY)
        return Supervisor(job, metrics=self.metrics, tracer=self.tracer, **kwargs)


def _interrupt_then_resume(ctx, make_job, baseline_steps: int, *, sabotage=None):
    """Shared kill/corrupt/deadline skeleton: interrupt, maybe sabotage
    the store, resume on a fresh job; returns (result, detail, violations)."""
    store = ctx.store("ckpt")
    violations: list[str] = []
    detail: dict = {}
    with make_job() as job:
        sup = ctx.supervisor(job, store=store, checkpoint_every_steps=max(1, baseline_steps // 8))
        try:
            sup.run(stop_after_steps=max(1, baseline_steps // 2))
            violations.append("resume-equivalence")  # never interrupted
            return job.result(), detail, violations
        except JobInterrupted as intr:
            detail["interrupted_at"] = intr.steps_done
            if intr.snapshot_path is None:
                violations.append("resume-equivalence")
    if sabotage is not None:
        sabotage(store, detail)
    with make_job() as job2:
        sup2 = ctx.supervisor(job2, store=store)
        result = sup2.resume()
        detail["resumed_steps"] = sup2.steps_done
        detail["rejected_snapshots"] = len(store.rejected)
    return result, detail, violations


# -- easypap ------------------------------------------------------------------


def _easypap_grid(seed: int, n: int = 32):
    from repro.easypap.grid import Grid2D

    g = Grid2D(n, n)
    g.interior[:] = 0
    rng = make_rng(seed)
    r, c = int(rng.integers(n // 4, 3 * n // 4)), int(rng.integers(n // 4, 3 * n // 4))
    g.interior[r, c] = 1200
    return g


def _easypap_fingerprint(result: dict) -> tuple:
    return (result["iterations"], result["sink_absorbed"], result["grid"].tobytes())


def run_easypap(sc: Scenario, ctx: _Ctx) -> tuple[list[str], dict]:
    from repro.easypap.job import SandpileJob

    n = sc.params.get("n", 32)
    tile = sc.params.get("tile_size", 8)
    baseline_job = SandpileJob(_easypap_grid(sc.seed, n), variant="frontier")
    baseline = baseline_job.run()
    ref = _easypap_fingerprint(baseline)
    violations: list[str] = []
    detail: dict = {"baseline_iterations": baseline["iterations"]}

    if sc.kind in POOL_KINDS:
        return _run_easypap_pool(sc, n, tile, ref[1:]), detail

    if sc.kind in ("inject-raise", "worker-kill"):
        # pfrontier on real worker processes; the backend's own resilience
        # (PR 2) absorbs the fault, so the supervisor sees clean steps
        log = DegradationLog()
        injector = FaultInjector(
            kill_on_tasks={0} if sc.kind == "worker-kill" else frozenset(),
            raise_on_tasks={0} if sc.kind == "inject-raise" else frozenset(),
            max_fires=1,
        )
        with SandpileJob(
            _easypap_grid(sc.seed, n),
            variant="pfrontier",
            backend="process",
            nworkers=2,
            tile_size=tile,
            retry=_RETRY,
            fault_injector=injector,
            degradation=log,
        ) as job:
            result = ctx.supervisor(job, degradation=log).run()
        detail["fires"] = injector.fires
        detail["degradations"] = len(log)
        if injector.fires < 1:
            violations.append("fault-fired")
        if injector.fires > injector.max_fires:
            violations.append("bounded-retries")
        if sc.kind == "worker-kill" and not log.by_action("pool-rebuild"):
            violations.append("degradation-recorded")
        if _easypap_fingerprint(result) != ref:
            violations.append("bit-identical")
        if result["iterations"] != baseline["iterations"]:
            violations.append("honest-work")

        if sc.kind == "worker-kill":
            # fused temporal blocking must survive the same kill: the
            # rebuilt set re-runs the step the dead worker left, and the
            # Abelian fixpoint (grid + sink) matches the unfused reference
            # bit for bit.  Iteration counts are NOT compared — a k-fused
            # run takes ~1/k stepper calls by design.
            log_k = DegradationLog()
            injector_k = FaultInjector(kill_on_tasks={0}, max_fires=1)
            with SandpileJob(
                _easypap_grid(sc.seed, n),
                variant="pfrontier",
                backend="process",
                nworkers=2,
                tile_size=tile,
                k=2,
                retry=_RETRY,
                fault_injector=injector_k,
                degradation=log_k,
            ) as job_k:
                result_k = ctx.supervisor(job_k, degradation=log_k).run()
            detail["fused_fires"] = injector_k.fires
            if injector_k.fires < 1:
                violations.append("fault-fired")
            if not log_k.by_action("pool-rebuild"):
                violations.append("degradation-recorded")
            if (
                result_k["sink_absorbed"] != ref[1]
                or result_k["grid"].tobytes() != ref[2]
            ):
                violations.append("bit-identical")
        return violations, detail

    if sc.kind == "region-kill":
        # run_to_fixpoint runs the whole job as one segment: worker 1 dies
        # in step 5 (task 2 * 5 + 1) and the region resumes from step 5
        from repro.sandpile.simulate import run_to_fixpoint

        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2 * 5 + 1}, max_fires=1)
        grid = _easypap_grid(sc.seed, n)
        run = run_to_fixpoint(
            grid, "sandpile", "pfrontier", backend="process", nworkers=2, tile_size=tile,
            retry=_RETRY, fault_injector=injector, degradation=log,
        )
        result = {"iterations": run.iterations, "grid": grid.interior,
                  "sink_absorbed": grid.sink_absorbed}
        detail["fires"] = injector.fires
        detail["degradations"] = len(log)
        if injector.fires < 1:
            violations.append("fault-fired")
        if injector.fires > injector.max_fires:
            violations.append("bounded-retries")
        if not log.by_action("pool-rebuild"):
            violations.append("degradation-recorded")
        if _easypap_fingerprint(result) != ref:
            violations.append("bit-identical")
        if result["iterations"] != baseline["iterations"]:
            violations.append("honest-work")
        return violations, detail

    if sc.kind == "deadline":
        store = ctx.store("ckpt")
        with SandpileJob(_easypap_grid(sc.seed, n), variant="frontier") as job:
            sup = ctx.supervisor(job, store=store, checkpoint_every_steps=8)
            try:
                sup.run(deadline=Deadline(1e-6))
                detail["interrupted_at"] = None  # finished inside the budget
            except JobInterrupted as intr:
                detail["interrupted_at"] = intr.steps_done
        with SandpileJob(_easypap_grid(sc.seed, n), variant="frontier") as job2:
            result = ctx.supervisor(job2, store=store).resume()
        if _easypap_fingerprint(result) != ref:
            violations.append("bit-identical")
        return violations, detail

    # corrupt-checkpoint and kill-resume share the interrupt/resume skeleton
    def sabotage(store, d):
        newest = store.snapshot_paths()[-1]
        _corrupt(newest)
        d["corrupted"] = newest.name

    result, d, violations = _interrupt_then_resume(
        ctx,
        lambda: SandpileJob(_easypap_grid(sc.seed, n), variant="frontier"),
        baseline["iterations"],
        sabotage=sabotage if sc.kind == "corrupt-checkpoint" else None,
    )
    detail.update(d)
    if _easypap_fingerprint(result) != ref:
        violations.append("bit-identical")
    if result["iterations"] != baseline["iterations"]:
        violations.append("honest-work")
    if sc.kind == "corrupt-checkpoint" and detail.get("rejected_snapshots", 0) < 1:
        violations.append("fault-fired")  # the corruption was never even seen
    return violations, detail


def _leased_job(grid, tile: int, **opts):
    """pfrontier on 2 pooled workers: ``(job, its worker pids)`` after one step."""
    from repro.easypap.job import SandpileJob

    opts.setdefault("retry", _RETRY)
    job = SandpileJob(
        grid, variant="pfrontier", backend="process", nworkers=2, tile_size=tile, **opts
    )
    job.step()
    return job, set(job.stepper.backend.worker_pids)


def _run_easypap_pool(sc: Scenario, n: int, tile: int, want: tuple) -> list[str]:
    """The idle-pool cells: each job must reach *want* (sink, grid bytes)."""
    import multiprocessing
    import os
    import signal
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.easypap.executor import get_tile_kernel, register_tile_kernel, tile_kernel_tags
    from repro.easypap.job import SandpileJob

    violations: list[str] = []

    def check(result: dict, want: tuple = want) -> None:
        if (result["sink_absorbed"], result["grid"].tobytes()) != want:
            violations.append("bit-identical")

    def run(size: int = n, want: tuple = want, **opts) -> set[int]:
        job, pids = _leased_job(_easypap_grid(sc.seed, size), tile, **opts)
        with job:
            check(job.run(), want)
        return pids

    if sc.kind == "pool-kill":
        first = run()
        idle = [p for p in multiprocessing.active_children() if p.pid in first]
        if not idle:
            violations.append("pool-reused")
        for victim in idle[:1]:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
        if run() & first:
            violations.append("fresh-lease")
    elif sc.kind == "pool-failed-job":
        log = DegradationLog()
        job, failed = _leased_job(
            _easypap_grid(sc.seed, n), tile,
            retry=RetryPolicy(max_attempts=1), degradation=log,
        )
        with job:
            # worker 0 has a share of every region step (the deal gives it
            # the first rows): the next step finds it dead and, with one
            # attempt, the backend finishes the step in process
            os.kill(job.stepper.backend.worker_pids[0], signal.SIGKILL)
            check(job.run())
        if not log.by_action("thread-fallback"):
            violations.append("fault-fired")
        if run() & failed:
            violations.append("fresh-lease")
    elif sc.kind == "pool-isolation":
        # a smaller grid with fused bands first: the second job leases the
        # same set, attached to planes of another shape
        small = n // 2 + 4
        base = SandpileJob(_easypap_grid(sc.seed, small), variant="frontier").run()
        first = run(small, (base["sink_absorbed"], base["grid"].tobytes()), k=2)
        if run() != first:
            violations.append("pool-reused")
    elif sc.kind == "pool-late-kernel":
        first = run()
        name = "sync_tile_nc"  # re-registered unchanged: only the registry moves on
        register_tile_kernel(name, get_tile_kernel(name), tags=tile_kernel_tags(name))
        if run() & first:
            violations.append("fresh-lease")
    else:  # pool-concurrent
        run()  # one idle set for the two leases to race for
        start = threading.Barrier(2, timeout=60)
        lock = threading.Lock()
        busy: set[int] = set()  # workers of the jobs running right now

        def lease() -> None:
            start.wait()
            job, pids = _leased_job(_easypap_grid(sc.seed, n), tile)
            with job:
                with lock:
                    if pids & busy:
                        violations.append("fresh-lease")
                    busy.update(pids)
                check(job.run())
                with lock:
                    busy.difference_update(pids)

        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(lease) for _ in range(2)]:
                future.result(timeout=60)
    return violations


# -- mapreduce ----------------------------------------------------------------


def _wordcount(seed: int, nsplits: int = 6):
    from repro.mapreduce.job import MapReduceJob

    rng = make_rng(seed)
    words = ["ash", "beech", "cedar", "fir", "oak", "pine", "yew"]
    splits = [
        [(f"s{i}:{j}", " ".join(rng.choice(words, size=8))) for j in range(4)]
        for i in range(nsplits)
    ]

    def mapper(key, value):
        for w in value.split():
            yield (w, 1)

    def reducer(key, values):
        yield (key, sum(values))

    job = MapReduceJob(name="chaos-wc", mapper=mapper, reducer=reducer, num_reducers=3)
    return job, splits


def _mr_fingerprint(result) -> tuple:
    return (tuple(result.pairs), tuple(map(tuple, result.partitions)),
            tuple(sorted((g, tuple(sorted(ns.items()))) for g, ns in result.counters.as_dict().items())))


def run_mapreduce(sc: Scenario, ctx: _Ctx) -> tuple[list[str], dict]:
    from repro.mapreduce.engine import run_job
    from repro.mapreduce.stepjob import MapReduceStepJob

    job, splits = _wordcount(sc.seed, sc.params.get("nsplits", 6))
    baseline = run_job(job, splits)  # the sequential oracle
    ref = _mr_fingerprint(baseline)
    violations: list[str] = []
    detail: dict = {"splits": len(splits)}
    total_steps = len(splits) + 1 + job.num_reducers

    if sc.kind == "inject-raise":
        injector = FaultInjector(raise_on_tasks={1, len(splits)}, max_fires=2)
        sup = ctx.supervisor(MapReduceStepJob(job, splits, fault_injector=injector))
        result = sup.run()
        detail["fires"] = injector.fires
        detail["retries_used"] = sup.retries_used
        if injector.fires < 1:
            violations.append("fault-fired")
        if sup.retries_used < 1:
            violations.append("degradation-recorded")
        if sup.retries_used > injector.fires * (_RETRY.max_attempts - 1):
            violations.append("bounded-retries")
        if sup.steps_done != total_steps:
            violations.append("honest-work")
    elif sc.kind == "deadline":
        store = ctx.store("ckpt")
        sup = ctx.supervisor(MapReduceStepJob(job, splits), store=store, checkpoint_every_steps=2)
        try:
            sup.run(deadline=Deadline(1e-6))
            detail["interrupted_at"] = None
        except JobInterrupted as intr:
            detail["interrupted_at"] = intr.steps_done
        sup2 = ctx.supervisor(MapReduceStepJob(job, splits), store=store)
        result = sup2.resume()
        if sup2.steps_done != total_steps:
            violations.append("honest-work")
    else:  # corrupt-checkpoint, kill-resume
        def sabotage(store, d):
            newest = store.snapshot_paths()[-1]
            _corrupt(newest)
            d["corrupted"] = newest.name

        result, d, violations = _interrupt_then_resume(
            ctx,
            lambda: MapReduceStepJob(job, splits),
            total_steps,
            sabotage=sabotage if sc.kind == "corrupt-checkpoint" else None,
        )
        detail.update(d)
        if sc.kind == "corrupt-checkpoint" and detail.get("rejected_snapshots", 0) < 1:
            violations.append("fault-fired")

    if _mr_fingerprint(result) != ref:
        violations.append("bit-identical")
    return violations, detail


# -- simmpi -------------------------------------------------------------------


def _allreduce_world(comm):
    return comm.allreduce(comm.rank + 1)


def _raising_world(comm):
    if comm.rank == 1:
        raise ValueError("chaos: injected failure on rank 1")
    return comm.allreduce(comm.rank + 1)


def _deadlocked_world(comm):
    if comm.rank == 0:
        return comm.recv(source=1, tag=7)  # nobody ever sends: deadlock
    return None


def run_simmpi(sc: Scenario, ctx: _Ctx) -> tuple[list[str], dict]:
    from repro.simmpi.job import SimMpiJob

    nranks = sc.params.get("nranks", 4)
    baseline = SimMpiJob(nranks, _allreduce_world).run()
    violations: list[str] = []
    detail: dict = {"nranks": nranks}

    if sc.kind == "inject-raise":
        # every attempt fails by construction: the supervisor must exhaust
        # its bounded retries and surface the rank-attributed diagnostic
        sup = ctx.supervisor(SimMpiJob(nranks, _raising_world))
        try:
            sup.run()
            violations.append("fault-fired")
        except CommunicationError as exc:
            detail["error"] = str(exc)
            detail["retries_used"] = sup.retries_used
            if "rank 1" not in str(exc):
                violations.append("diagnosable-error")
            if sup.retries_used != _RETRY.max_attempts - 1:
                violations.append("bounded-retries")
        return violations, detail

    if sc.kind == "deadline":
        sup = ctx.supervisor(
            SimMpiJob(nranks, _deadlocked_world, deadlock_timeout=0.2, wall_timeout=5.0),
            retry=RetryPolicy(max_attempts=1),
        )
        try:
            sup.run()
            violations.append("fault-fired")
        except CommunicationError as exc:
            detail["error"] = str(exc)
            msg = str(exc)
            if not ("deadlock" in msg or "timeout" in msg or "blocked" in msg):
                violations.append("diagnosable-error")
        return violations, detail

    # kill-resume: an SPMD world only checkpoints at completion, so the
    # invariant is resume-from-nothing equivalence plus skip-on-restore
    store = ctx.store("ckpt")
    sup = ctx.supervisor(SimMpiJob(nranks, _allreduce_world), store=store)
    try:
        sup.run(stop_after_steps=0)
        violations.append("resume-equivalence")
    except JobInterrupted as intr:
        detail["interrupted_at"] = intr.steps_done
    sup2 = ctx.supervisor(SimMpiJob(nranks, _allreduce_world), store=store)
    result = sup2.resume()
    if result != baseline:
        violations.append("bit-identical")
    return violations, detail


# -- wrench -------------------------------------------------------------------


def run_wrench(sc: Scenario, ctx: _Ctx) -> tuple[list[str], dict]:
    from repro.wrench.job import WrenchJob
    from repro.wrench.platform import make_platform
    from repro.wrench.simulation import FaultModel
    from repro.wrench.workflow import montage_workflow

    wf = montage_workflow(
        n_projections=sc.params.get("n_projections", 6),
        n_difffits=sc.params.get("n_difffits", 8),
        seed=sc.seed,
    )
    factory = lambda: make_platform(cluster_nodes=8)  # noqa: E731
    baseline = WrenchJob(wf, factory).run()
    violations: list[str] = []
    detail: dict = {"tasks": len(baseline["executions"])}

    if sc.kind == "worker-kill":
        fm = FaultModel(failure_prob=0.25, max_attempts=6, seed=sc.seed)
        faulted = WrenchJob(wf, factory, fault_model=fm).run()
        detail["failures"] = faulted["failures"]
        if faulted["failures"] < 1:
            violations.append("fault-fired")
        if max(e[4] for e in faulted["executions"]) > fm.max_attempts:
            violations.append("bounded-retries")
        done = {e[0] for e in baseline["executions"] if not e[5]}
        done_f = {e[0] for e in faulted["executions"] if not e[5]}
        if done != done_f:
            violations.append("bit-identical")  # lost or phantom tasks
        # determinism: the same faulted cell must replay exactly
        replay = WrenchJob(wf, factory, fault_model=fm).run()
        if replay != faulted:
            violations.append("honest-work")
        return violations, detail

    # kill-resume (atomic substrate: completion-boundary semantics)
    store = ctx.store("ckpt")
    sup = ctx.supervisor(WrenchJob(wf, factory), store=store)
    try:
        sup.run(stop_after_steps=0)
        violations.append("resume-equivalence")
    except JobInterrupted as intr:
        detail["interrupted_at"] = intr.steps_done
    sup2 = ctx.supervisor(WrenchJob(wf, factory), store=store)
    result = sup2.resume()
    if result != baseline:
        violations.append("bit-identical")
    return violations, detail


HARNESSES = {
    "easypap": run_easypap,
    "mapreduce": run_mapreduce,
    "simmpi": run_simmpi,
    "wrench": run_wrench,
}


def run_scenario(sc: Scenario, ctx: _Ctx) -> tuple[list[str], dict]:
    """Dispatch *sc* to its substrate harness."""
    return HARNESSES[sc.substrate](sc, ctx)

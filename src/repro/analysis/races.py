"""Static and dynamic race checking over task batches and schedules.

The static checker answers: *given this batch of tasks, this chunk plan,
and these (declared) footprints, can any two tasks that the plan may run
concurrently touch the same cell with at least one write?*  It is sound
with respect to the declared footprints — they are data-independent upper
bounds — so a ``race-free`` verdict certifies every execution of the
schedule, not just the ones the tests happened to observe.

Concurrency is derived from the same :func:`~repro.easypap.schedule.chunk_plan`
the executors use:

* tasks inside one chunk run sequentially on one worker — never concurrent;
* ``static``/``cyclic``: chunk *k* is pinned to worker ``k % nworkers``,
  so chunks mapping to the same worker are also serialised;
* ``dynamic``/``guided``: any two distinct chunks may land on distinct
  workers — all cross-chunk pairs are potentially concurrent;
* one worker serialises everything.

The dynamic checker (:func:`dynamic_check`) applies the same conflict
logic to *observed* footprints from a shadow-memory replay
(:func:`~repro.analysis.shadow.trace_batch`), and :func:`cross_check`
confronts the two verdicts: observed accesses must stay inside the
declared sets (soundness), and on saturated inputs the verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from collections.abc import Sequence

import numpy as np

from repro.analysis.footprint import Footprint, footprint_for
from repro.analysis.shadow import ShadowTrace, trace_batch
from repro.easypap.executor import TileTask
from repro.easypap.schedule import chunk_plan_cached

__all__ = [
    "Conflict",
    "ConcurrencyModel",
    "RaceReport",
    "check_footprints",
    "check_phases",
    "check_batch",
    "dynamic_check",
    "CrossCheck",
    "cross_check",
]


@dataclass(frozen=True)
class Conflict:
    """Two concurrently-schedulable tasks touching one cell, >= 1 write."""

    kind: str  # "write-write" | "read-write"
    task_a: int
    task_b: int
    plane: int
    cell: tuple[int, int]  # framed (y, x)
    phase: int = 0

    def __str__(self) -> str:
        return (
            f"{self.kind} between task {self.task_a} and task {self.task_b} "
            f"on plane {self.plane} cell {self.cell} (phase {self.phase})"
        )


class ConcurrencyModel:
    """May-run-concurrently relation induced by one chunk plan.

    By default the plan is rebuilt from the scheduling parameters (the
    memoised static path).  Pass ``plan=`` to certify an *externally built*
    plan — e.g. the per-iteration frontier plans from
    :func:`~repro.easypap.schedule.dynamic_chunk_plan`, whose task counts
    vary every iteration and must not round-trip through the LRU.
    """

    def __init__(
        self,
        ntasks: int,
        nworkers: int,
        policy: str = "dynamic",
        chunk: int = 1,
        *,
        plan: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        self.ntasks = ntasks
        self.nworkers = nworkers
        self.policy = policy
        self.chunk = chunk
        chunks = plan if plan is not None else chunk_plan_cached(ntasks, nworkers, policy, chunk)
        self._chunk_of = np.empty(ntasks, dtype=np.int64)
        for k, ch in enumerate(chunks):
            for i in ch:
                self._chunk_of[i] = k

    def chunk_of(self, task: int) -> int:
        """Index of the chunk containing *task*."""
        return int(self._chunk_of[task])

    def worker_of(self, task: int) -> int | None:
        """Pinned worker for static/cyclic plans; None when queue-scheduled."""
        if self.policy in ("static", "cyclic"):
            return self.chunk_of(task) % self.nworkers
        return None

    def concurrent(self, a: int, b: int) -> bool:
        """True when tasks *a* and *b* may execute at the same time."""
        if a == b or self.nworkers <= 1:
            return False
        ca, cb = self.chunk_of(a), self.chunk_of(b)
        if ca == cb:
            return False  # same chunk: sequential on one worker
        if self.policy in ("static", "cyclic"):
            return ca % self.nworkers != cb % self.nworkers
        return True  # dynamic/guided: any cross-chunk pair may overlap


@dataclass
class RaceReport:
    """Verdict of checking one schedule (one or more parallel phases)."""

    nworkers: int
    policy: str
    chunk: int
    ntasks: int
    conflicts: list[Conflict] = field(default_factory=list)
    phases: int = 1
    mode: str = "static"  # "static" (declared) or "dynamic" (observed)

    @property
    def racy(self) -> bool:
        """True when at least one conflict was found."""
        return bool(self.conflicts)

    @property
    def verdict(self) -> str:
        """``"race-free"`` or ``"racy"``."""
        return "racy" if self.racy else "race-free"

    def summary(self, limit: int = 5) -> str:
        """One line verdict plus up to *limit* example conflicts."""
        head = (
            f"{self.mode} check: {self.verdict} "
            f"({self.ntasks} tasks, {self.phases} phase(s), "
            f"policy={self.policy} nworkers={self.nworkers} chunk={self.chunk})"
        )
        if not self.conflicts:
            return head
        lines = [head, f"{len(self.conflicts)} conflict(s), first {min(limit, len(self.conflicts))}:"]
        lines += [f"  - {c}" for c in self.conflicts[:limit]]
        return "\n".join(lines)


def check_footprints(
    footprints: Sequence[Footprint],
    concurrency: ConcurrencyModel,
    *,
    phase: int = 0,
) -> list[Conflict]:
    """All conflicts among *footprints* under the given concurrency relation.

    Conflicts are found per cell (a dict of writers/readers per cell), so
    the cost is proportional to footprint size plus conflicting pairs —
    not to all task pairs.
    """
    writers: dict[tuple[int, int, int], list[int]] = {}
    readers: dict[tuple[int, int, int], list[int]] = {}
    for i, fp in enumerate(footprints):
        for c in fp.writes:
            writers.setdefault(c, []).append(i)
        for c in fp.reads:
            readers.setdefault(c, []).append(i)

    conflicts: list[Conflict] = []
    seen: set[tuple[str, int, int, int, tuple[int, int]]] = set()

    def add(kind: str, a: int, b: int, cell: tuple[int, int, int]) -> None:
        a, b = (a, b) if a < b else (b, a)
        key = (kind, a, b, cell[0], (cell[1], cell[2]))
        if key not in seen:
            seen.add(key)
            conflicts.append(Conflict(kind, a, b, cell[0], (cell[1], cell[2]), phase))

    for cell, ws in writers.items():
        for a, b in combinations(ws, 2):
            if concurrency.concurrent(a, b):
                add("write-write", a, b, cell)
        wset = set(ws)
        for r in readers.get(cell, ()):  # read-write: reader vs every writer
            for w in ws:
                if r != w and r not in wset and concurrency.concurrent(r, w):
                    add("read-write", r, w, cell)
    conflicts.sort(key=lambda c: (c.phase, c.task_a, c.task_b, c.plane, c.cell))
    return conflicts


def check_phases(
    phases: Sequence[Sequence[Footprint]],
    *,
    nworkers: int,
    policy: str = "dynamic",
    chunk: int = 1,
    mode: str = "static",
    plans: Sequence[tuple[tuple[int, ...], ...] | None] | None = None,
) -> RaceReport:
    """Check a sequence of parallel phases (phases themselves are serialised).

    This models the executor contract exactly: every ``backend.run(batch)``
    call is one parallel phase; consecutive phases are separated by the
    implicit barrier of the call returning (e.g. the async stepper's
    checkerboard waves).  *plans*, when given, supplies a pre-built chunk
    plan per phase (None entries fall back to the cached builder) — this is
    how a frontier region step is certified, one chunk per participant.
    """
    conflicts: list[Conflict] = []
    ntasks = 0
    for p, fps in enumerate(phases):
        ntasks += len(fps)
        plan = plans[p] if plans is not None else None
        conc = ConcurrencyModel(len(fps), nworkers, policy, chunk, plan=plan)
        conflicts += check_footprints(fps, conc, phase=p)
    return RaceReport(
        nworkers=nworkers,
        policy=policy,
        chunk=chunk,
        ntasks=ntasks,
        conflicts=conflicts,
        phases=len(list(phases)),
        mode=mode,
    )


def check_batch(
    specs: Sequence[TileTask],
    shape: tuple[int, int],
    *,
    nworkers: int,
    policy: str = "dynamic",
    chunk: int = 1,
    plan: tuple[tuple[int, ...], ...] | None = None,
    allow_trace: bool = True,
) -> RaceReport:
    """Statically check one ``TaskBatch`` worth of tile specs.

    *shape* is the framed plane shape the specs index into; footprints
    follow the declared → inferred → traced resolution of
    :func:`~repro.analysis.footprint.footprint_for`.  ``allow_trace=False``
    demands a sound source (declaration or symbolic inference) and raises
    on kernels that have neither — certification paths use it so a verdict
    never rests on a single traced execution.  *plan* pins the exact chunk
    plan to certify (e.g. the ``omp`` steppers' dynamic lazy partials).
    """
    fps = [footprint_for(t, shape, allow_trace=allow_trace) for t in specs]
    return check_phases([fps], nworkers=nworkers, policy=policy, chunk=chunk, plans=[plan])


def dynamic_check(
    specs: Sequence[TileTask],
    planes: Sequence[np.ndarray],
    *,
    nworkers: int,
    policy: str = "dynamic",
    chunk: int = 1,
    iteration: int = 0,
    plan: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[RaceReport, ShadowTrace]:
    """Shadow-replay the batch and race-check the *observed* footprints.

    Returns the dynamic report plus the trace (for cross-checking against
    the static verdict).  The planes are mutated like a real run.  *plan*
    pins the replay (and the concurrency relation) to an externally built
    chunk plan.
    """
    trace = trace_batch(
        list(specs), list(planes),
        nworkers=nworkers, policy=policy, chunk=chunk, iteration=iteration, plan=plan,
    )
    fps = trace.footprints()
    report = check_phases(
        [fps], nworkers=nworkers, policy=policy, chunk=chunk, mode="dynamic", plans=[plan]
    )
    return report, trace


@dataclass
class CrossCheck:
    """Static-vs-dynamic confrontation for one schedule."""

    static: RaceReport
    dynamic: RaceReport
    #: dynamic conflicts with no static counterpart — a footprint
    #: under-declaration (must be empty for the static checker to be sound)
    undeclared: list[Conflict] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        """Static footprints covered every observed conflict."""
        return not self.undeclared

    @property
    def agree(self) -> bool:
        """Both checkers reached the same verdict."""
        return self.static.racy == self.dynamic.racy

    @property
    def ok(self) -> bool:
        """Sound, and dynamic races never exceed the static prediction."""
        return self.sound and (self.static.racy or not self.dynamic.racy)


def cross_check(static: RaceReport, dynamic: RaceReport) -> CrossCheck:
    """Verify the dynamic observation against the static certification.

    Every observed conflict must be predicted statically (declared
    footprints are upper bounds); a static ``race-free`` verdict with any
    dynamic conflict is a soundness bug and makes ``ok`` False.
    """
    static_keys = {
        (c.kind, c.task_a, c.task_b, c.plane, c.cell, c.phase) for c in static.conflicts
    }
    undeclared = [
        c
        for c in dynamic.conflicts
        if (c.kind, c.task_a, c.task_b, c.plane, c.cell, c.phase) not in static_keys
    ]
    return CrossCheck(static=static, dynamic=dynamic, undeclared=undeclared)

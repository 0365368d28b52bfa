"""OpenMP-style loop scheduling policies, simulated in virtual time.

The first sandpile assignment asks students to "experimentally determine the
most suitable OpenMP loop scheduling policy"; the second to fight the load
imbalance of sparse configurations "with various scheduling policies and
various tile sizes".  Real OpenMP is out of reach in pure Python, so this
module reproduces the *semantics* of the four classic policies over a list
of task costs and replays them through a virtual-time multi-worker
simulation:

* ``static``      — iteration space split into one contiguous block per worker;
* ``cyclic``      — chunks of ``chunk`` tasks dealt round-robin (OpenMP
  ``schedule(static, chunk)``);
* ``dynamic``     — free workers pull the next chunk from a shared queue;
* ``guided``      — like dynamic but with geometrically shrinking chunks
  (``max(remaining/nworkers, chunk)``).

The output (:class:`ScheduleResult`) carries per-task spans, from which the
monitor builds the execution traces of Fig. 3 and benchmarks compute
speedup, efficiency, and imbalance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

from repro.common.errors import SchedulingError

__all__ = [
    "POLICIES",
    "TaskSpan",
    "ScheduleResult",
    "simulate_schedule",
    "chunk_plan",
    "chunk_plan_cached",
    "dynamic_chunk_plan",
    "index_spans",
    "expand_spans",
]

POLICIES = ("static", "cyclic", "dynamic", "guided")


@dataclass(frozen=True)
class TaskSpan:
    """Placement of one task in the simulated execution."""

    task: int
    worker: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Outcome of :func:`simulate_schedule` (or of a real backend run).

    ``returns`` is filled by backends that execute out-of-process (the
    parent cannot observe closure side effects there): per-task return
    values, indexed like the batch.  In-process backends leave it None.
    """

    policy: str
    nworkers: int
    chunk: int
    spans: list[TaskSpan]
    returns: list | None = None

    @property
    def makespan(self) -> float:
        """Virtual finish time of the last task (0 for an empty task set)."""
        return max((s.end for s in self.spans), default=0.0)

    def worker_busy(self) -> list[float]:
        """Total busy time per worker."""
        busy = [0.0] * self.nworkers
        for s in self.spans:
            busy[s.worker] += s.duration
        return busy

    @property
    def total_work(self) -> float:
        """Sum of all task durations (serial-equivalent work)."""
        return sum(s.duration for s in self.spans)

    @property
    def imbalance(self) -> float:
        """Load imbalance ratio ``max(busy)/mean(busy) - 1`` (0 = perfect).

        This is the standard imbalance metric: how much longer the busiest
        worker runs compared to the average.
        """
        busy = self.worker_busy()
        mean = sum(busy) / len(busy) if busy else 0.0
        if mean == 0.0:
            return 0.0
        return max(busy) / mean - 1.0

    def speedup(self) -> float:
        """Speedup over running all tasks on one worker."""
        ms = self.makespan
        return self.total_work / ms if ms > 0 else 1.0

    def efficiency(self) -> float:
        """Parallel efficiency ``speedup / nworkers``."""
        return self.speedup() / self.nworkers

    def assignment(self) -> dict[int, int]:
        """Mapping task index -> worker index."""
        return {s.task: s.worker for s in self.spans}


def chunk_plan(ntasks: int, nworkers: int, policy: str, chunk: int) -> list[list[int]]:
    """Return the ordered list of chunks (task-index lists) a policy produces.

    For ``static``/``cyclic`` the worker of each chunk is fixed a priori; for
    ``dynamic``/``guided`` chunks are consumed in this order by whichever
    worker frees up first.

    Returns fresh mutable lists; hot paths that only *read* the plan should
    use :func:`chunk_plan_cached` instead, which memoises the (purely
    parameter-determined) plan across iterations.
    """
    return [list(c) for c in chunk_plan_cached(ntasks, nworkers, policy, chunk)]


def dynamic_chunk_plan(
    ntasks: int, nworkers: int, policy: str, chunk: int
) -> tuple[tuple[int, ...], ...]:
    """Uncached chunk plan for task counts that change every iteration.

    A frontier-windowed batch presents a *new* ``ntasks`` almost every
    step (the dirty bbox moves), so routing it through
    :func:`chunk_plan_cached` would fill the LRU with plans that are never
    reused and eventually evict the hot static (full-grid) plans.  Dynamic
    schedules call this fast path instead; only parameter-stable plans
    belong in the cache.
    """
    if ntasks < 0:
        raise SchedulingError("negative task count")
    if chunk < 1:
        raise SchedulingError(f"chunk must be >= 1, got {chunk}")
    tasks = tuple(range(ntasks))
    if policy == "static":
        block = -(-ntasks // nworkers) if ntasks else 0
        return tuple(tasks[i : i + block] for i in range(0, ntasks, block)) if block else ()
    if policy in ("cyclic", "dynamic"):
        return tuple(tasks[i : i + chunk] for i in range(0, ntasks, chunk))
    if policy == "guided":
        chunks: list[tuple[int, ...]] = []
        pos = 0
        while pos < ntasks:
            remaining = ntasks - pos
            size = max(remaining // nworkers, chunk)
            size = min(size, remaining)
            chunks.append(tasks[pos : pos + size])
            pos += size
        return tuple(chunks)
    raise SchedulingError(f"unknown policy {policy!r}; choose from {POLICIES}")


def index_spans(indices) -> tuple[tuple[int, ...], ...]:
    """Compress a set/list of task indices into sorted half-open runs.

    A run of consecutive indices is ``(lo, hi)``; one of a wider stride is
    ``(lo, hi, step)``, the arguments of the :class:`range` it expands to.
    A tile batch's worker command ships its tiles and the task positions
    still to run as such spans rather than explicit index lists: a
    selection of tiles is mostly contiguous, and a checkerboard wave is
    one strided run per tile row, so a command stays small however many
    tiles it covers.  Inverse of :func:`expand_spans`.
    """
    idxs = sorted(indices)
    spans: list[tuple[int, ...]] = []
    i = 0
    while i < len(idxs):
        j = i + 1
        step = idxs[j] - idxs[i] if j < len(idxs) else 1
        while j < len(idxs) and idxs[j] - idxs[j - 1] == step:
            j += 1
        spans.append((idxs[i], idxs[j - 1] + 1) + ((step,) if step > 1 else ()))
        i = j
    return tuple(spans)


def expand_spans(spans) -> list[int]:
    """Expand the runs of :func:`index_spans` back into an index list."""
    return [i for span in spans for i in range(*span)]


@lru_cache(maxsize=4096)
def chunk_plan_cached(
    ntasks: int, nworkers: int, policy: str, chunk: int
) -> tuple[tuple[int, ...], ...]:
    """Memoised, immutable form of :func:`chunk_plan` for *static* plans.

    A plan depends only on ``(ntasks, nworkers, policy, chunk)``, yet the
    steppers ask for it every iteration — caching removes that rebuild from
    the per-step hot path (backends reuse the identical tuple each step).
    Only use this for parameter-stable plans (full tile grids, fixed
    batches); schedules whose task count varies per iteration must use
    :func:`dynamic_chunk_plan`, or they thrash the cache.  Invalid
    parameters raise :class:`SchedulingError` and are not cached.
    """
    return dynamic_chunk_plan(ntasks, nworkers, policy, chunk)


def simulate_schedule(
    costs: Sequence[float],
    nworkers: int,
    policy: str = "static",
    *,
    chunk: int = 1,
    start_time: float = 0.0,
    plan: tuple[tuple[int, ...], ...] | None = None,
) -> ScheduleResult:
    """Simulate executing tasks with the given *costs* under a policy.

    Parameters
    ----------
    costs:
        Per-task execution cost in virtual seconds (any non-negative unit).
    nworkers:
        Number of simulated workers ("cores").
    policy:
        One of :data:`POLICIES`.
    chunk:
        Chunk size for cyclic/dynamic and minimum chunk for guided
        (ignored by ``static``).
    start_time:
        Virtual time at which all workers become available.
    plan:
        Optional prebuilt chunk plan (as returned by
        :func:`chunk_plan_cached` or :func:`dynamic_chunk_plan`) covering
        exactly ``len(costs)`` tasks; when omitted the cached plan for the
        parameters is used.
    """
    if nworkers < 1:
        raise SchedulingError(f"need at least one worker, got {nworkers}")
    costs = [float(c) for c in costs]
    for i, c in enumerate(costs):
        if c < 0:
            raise SchedulingError(f"task {i} has negative cost {c}")
    chunks = plan if plan is not None else chunk_plan_cached(len(costs), nworkers, policy, chunk)
    spans: list[TaskSpan] = []

    if policy in ("static", "cyclic"):
        # chunk k belongs to worker k % nworkers; each worker runs its chunks in order
        avail = [start_time] * nworkers
        for k, ch in enumerate(chunks):
            w = k % nworkers
            t = avail[w]
            for task in ch:
                spans.append(TaskSpan(task, w, t, t + costs[task]))
                t += costs[task]
            avail[w] = t
    else:  # dynamic, guided: earliest-available worker pulls the next chunk
        heap = [(start_time, w) for w in range(nworkers)]
        heapq.heapify(heap)
        for ch in chunks:
            t, w = heapq.heappop(heap)
            for task in ch:
                spans.append(TaskSpan(task, w, t, t + costs[task]))
                t += costs[task]
            heapq.heappush(heap, (t, w))

    spans.sort(key=lambda s: s.task)
    return ScheduleResult(policy=policy, nworkers=nworkers, chunk=chunk, spans=spans)

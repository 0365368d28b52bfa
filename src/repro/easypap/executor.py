"""Task-execution backends.

A tiled iteration produces a list of independent tile tasks; how they are
*executed* is orthogonal to what they compute.  Four backends cover the
assignment's needs:

* :class:`SequentialBackend` — runs tasks one by one; the reference.
* :class:`SimulatedBackend` — runs tasks (still sequentially, in-process)
  but *places* them on ``nworkers`` virtual workers under an OpenMP-style
  policy using per-task costs, yielding the virtual-time spans from which
  speedup/efficiency and the Fig. 3 traces are computed.  Costs may be
  supplied (cost model) or measured.
* :class:`ThreadBackend` — a real :class:`concurrent.futures.ThreadPoolExecutor`
  pool, demonstrating that the tasks genuinely are thread-safe (numpy
  releases the GIL for large array ops); wall-clock spans are recorded.
* :class:`ProcessBackend` — a **persistent-worker runtime** over
  :mod:`multiprocessing.shared_memory`-backed grid planes: the first
  backend whose speedup is measured on actual hardware rather than
  simulated.  Each worker is a long-lived forked process holding one end
  of a command/result pipe pair; worker sets are *leased* from an idle
  pool that outlives each backend and attach the job's planes once per
  lease.  Workers run one kind of work, the *parallel region*
  (:meth:`ProcessBackend.run_region`): one command per worker runs a
  kernel that may loop over many iterations, the workers meeting at a
  barrier the worker set owns and publishing per-iteration state to
  shared slots (:class:`RegionContext`).  A tile batch is a one-step
  region whose command names its tasks by value (:class:`BatchSpec` and
  index spans of tiles), a few hundred bytes whatever its tile count.
  Chunks follow the same ``static``/``cyclic``/``dynamic``/``guided``
  plans as :func:`~repro.easypap.schedule.simulate_schedule`:
  static/cyclic chunks are pre-assigned, dynamic/guided chunks are
  claimed by the workers from a shared queue.  When ``fork`` or shared
  memory is unavailable it degrades gracefully to a
  :class:`ThreadBackend`.

A region runs in process with the calling thread as its one participant:
that is how :class:`SequentialBackend` runs one, and how a
:class:`ProcessBackend` without ``fork``, or out of retries, finishes a
region or a tile batch.

All backends return the executed :class:`~repro.easypap.schedule.TaskSpan`
list and, given a :class:`~repro.obs.tracer.Tracer`, record one span per
executed tile (:func:`add_tile_span`).
"""

from __future__ import annotations

import functools
import mmap
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import NamedTuple

import numpy as np

from repro.common.errors import ConfigurationError, KernelError, SchedulingError
from repro.common.resilience import Deadline, DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.schedule import (
    POLICIES,
    ScheduleResult,
    TaskSpan,
    chunk_plan_cached,
    dynamic_chunk_plan,
    expand_spans,
    index_spans,
    simulate_schedule,
)
from repro.easypap.tiling import Tile, TileGrid
from repro.obs.tracer import Tracer

__all__ = [
    "TaskBatch",
    "TileTask",
    "BatchSpec",
    "register_tile_kernel",
    "get_tile_kernel",
    "registered_tile_kernels",
    "tile_kernel_tags",
    "registry_version",
    "SequentialBackend",
    "SimulatedBackend",
    "ThreadBackend",
    "ProcessBackend",
    "RegionContext",
    "shutdown_idle_pool",
    "make_backend",
    "TILE_PID",
    "add_tile_span",
]


@dataclass(frozen=True)
class TileTask:
    """Picklable description of one tile-kernel application.

    ``kernel`` names a function registered with :func:`register_tile_kernel`;
    ``src``/``dst`` index into the plane list bound to the executing
    :class:`ProcessBackend` (equal for in-place kernels).  ``arg`` carries
    an optional kernel parameter (the fused step count ``k`` for temporal
    blocking kernels); plain kernels ignore it.
    """

    kernel: str
    src: int
    dst: int
    tile: Tile
    arg: object = None


class BatchSpec(NamedTuple):
    """What every task of a batch runs, by value: task *i* of a
    :class:`TaskBatch` with this spec is ``TileTask(kernel, src, dst,
    tiles[i], arg)``, its tile one of ``TileGrid(*geometry)``.  A worker
    command names a batch's tasks by this tuple and index spans of the
    tiles; ``arg`` must be hashable (workers cache the tasks by value).
    """

    kernel: str
    src: int
    dst: int
    #: ``(height, width, tile_h, tile_w)`` of the tiles' grid (:attr:`TileGrid.geometry`)
    geometry: tuple[int, int, int, int]
    arg: object = None

    def task(self, tile: Tile) -> TileTask:
        """The :class:`TileTask` this spec runs on *tile*."""
        return TileTask(self.kernel, self.src, self.dst, tile, self.arg)


#: name -> fn(planes, task) for kernels executable from a TileTask spec.
#: Worker processes are forked after registration, so they inherit this.
_TILE_KERNELS: dict[str, Callable] = {}

#: name -> behavioural tags declared at registration (e.g. "racy-by-design")
_TILE_KERNEL_TAGS: dict[str, tuple[str, ...]] = {}

#: bumped on every (re-)registration; lets analysis caches keyed on the
#: registry's contents invalidate without holding function references
_REGISTRY_VERSION = 0


def register_tile_kernel(
    name: str,
    fn: Callable,
    *,
    overwrite: bool = False,
    tags: tuple[str, ...] = (),
) -> None:
    """Register *fn(planes, task)* as the executor of ``TileTask(kernel=name)``.

    *planes* is the list of shared arrays the backend bound; *task* the
    :class:`TileTask`.  The return value is surfaced in
    :attr:`ScheduleResult.returns` (steppers use it for changed flags).

    *tags* declare behaviour the analysis layer must reconcile with its
    static verdict — ``"racy-by-design"`` marks kernels whose adjacent-tile
    schedules conflict on purpose (in-place relaxation); an untagged kernel
    certified racy fails ``repro-check symbolic``.

    Re-registering a *different* function under an existing name raises
    :class:`~repro.common.errors.KernelError` unless ``overwrite=True`` —
    silently replacing a kernel would change what already-built batches
    execute.  Re-registering the *same* function is a no-op (module
    re-import safety).
    """
    global _REGISTRY_VERSION
    existing = _TILE_KERNELS.get(name)
    if existing is not None and existing is not fn and not overwrite:
        raise KernelError(
            f"tile kernel {name!r} already registered; pass overwrite=True to replace"
        )
    _TILE_KERNELS[name] = fn
    _TILE_KERNEL_TAGS[name] = tuple(tags)
    _REGISTRY_VERSION += 1


def registered_tile_kernels() -> dict[str, Callable]:
    """Snapshot of the tile-kernel registry (name -> executor function)."""
    return dict(_TILE_KERNELS)


def tile_kernel_tags(name: str) -> tuple[str, ...]:
    """Behavioural tags kernel *name* was registered with (may be empty)."""
    return _TILE_KERNEL_TAGS.get(name, ())


def registry_version() -> int:
    """Monotonic counter bumped on every registration (cache invalidation)."""
    return _REGISTRY_VERSION


def get_tile_kernel(name: str) -> Callable:
    """Look up a registered tile kernel; raises KernelError listing what exists."""
    try:
        return _TILE_KERNELS[name]
    except KeyError:
        avail = ", ".join(sorted(_TILE_KERNELS)) or "<none>"
        raise KernelError(
            f"unknown tile kernel {name!r}; registered: {avail}"
        ) from None


class TaskBatch:
    """A batch of independent tasks for one iteration.

    Parameters
    ----------
    tasks:
        Callables taking no arguments (typically closures over a tile).
    tiles:
        Optional parallel list of :class:`Tile` for trace annotation.
    costs:
        Optional virtual cost per task; backends that need costs but do not
        receive them fall back to measuring wall time or to tile area.
    spec:
        Optional :class:`BatchSpec` — a picklable description of every
        task, which :class:`ProcessBackend` ships to worker processes
        (closures cannot cross a process boundary).  It needs ``tiles``,
        tiles of the spec's grid in ascending index order.  Backends
        without process workers ignore it and run the closures.
    dynamic:
        Mark batches whose task count varies per iteration (frontier
        selections).  Plan-consuming backends then build the chunk plan
        through the uncached :func:`~repro.easypap.schedule.dynamic_chunk_plan`
        fast path instead of :func:`~repro.easypap.schedule.chunk_plan_cached`,
        so a moving frontier cannot thrash the static-plan cache.
    """

    def __init__(
        self,
        tasks: Sequence[Callable[[], object]],
        *,
        tiles: Sequence[Tile] | None = None,
        costs: Sequence[float] | None = None,
        spec: BatchSpec | None = None,
        dynamic: bool = False,
    ) -> None:
        self.tasks = list(tasks)
        if tiles is not None and len(tiles) != len(self.tasks):
            raise ConfigurationError("tiles and tasks must have equal length")
        if costs is not None and len(costs) != len(self.tasks):
            raise ConfigurationError("costs and tasks must have equal length")
        self.tiles = list(tiles) if tiles is not None else None
        self.costs = [float(c) for c in costs] if costs is not None else None
        self.spec = spec
        self.dynamic = bool(dynamic)
        if spec is not None:
            if not isinstance(spec, BatchSpec) or self.tiles is None:
                raise ConfigurationError("spec must be a BatchSpec, given with the batch's tiles")
            ids = [t.index for t in self.tiles]
            if any(b <= a for a, b in zip(ids, ids[1:])):
                raise ConfigurationError("a spec batch's tiles must ascend by tile index")
            #: the tiles as index spans: what a worker command carries
            self._tile_spans = index_spans(ids)

    def __len__(self) -> int:
        return len(self.tasks)

    def subset(self, indices: Sequence[int]) -> "TaskBatch":
        """The batch of tasks ``indices`` (strictly ascending) of this one.

        The selection is ``dynamic`` — its size changes per iteration, so
        its chunk plan bypasses the static-plan cache — and keeps this
        batch's spec: the ``omp`` steppers' lazy partials and waves ship
        as index spans of their tiles.  Spans, returns and tile spans of
        the selection use its own task positions.
        """
        idx = list(indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigurationError("subset indices must be strictly ascending")

        def pick(seq):
            return None if seq is None else [seq[i] for i in idx]

        return TaskBatch(
            pick(self.tasks),
            tiles=pick(self.tiles),
            costs=pick(self.costs),
            spec=self.spec,
            dynamic=True,
        )

    def tile_coords(self, i: int) -> tuple[int, int]:
        """The (ty, tx) of task *i*'s tile, or (-1, -1) when untracked."""
        if self.tiles is None:
            return (-1, -1)
        t = self.tiles[i]
        return (t.ty, t.tx)


def _plan_for(batch: TaskBatch, nworkers: int, policy: str, chunk: int):
    """The chunk plan for *batch*: cached for static batches, uncached for
    dynamic (per-iteration frontier) ones."""
    build = dynamic_chunk_plan if batch.dynamic else chunk_plan_cached
    return build(len(batch), nworkers, policy, chunk)


#: track group (``pid``) of the tile spans every easypap producer records
TILE_PID = "easypap"


def add_tile_span(
    tracer: Tracer,
    *,
    iteration: int,
    task: int,
    worker: int,
    start: float,
    end: float,
    kind: str = "compute",
    tile_ty: int = -1,
    tile_tx: int = -1,
) -> None:
    """Record one executed tile as a span on lane ``(TILE_PID, worker)``.

    The span is named ``i{iteration}:t{task}`` with *kind* (``compute``,
    ``gpu``, ``comm``) as its category; the iteration, the task position
    and the tile coordinates ride in its args, which is what the Fig. 3
    and Fig. 4 queries select on.
    """
    tracer.add_span(
        f"i{iteration}:t{task}",
        start=start,
        end=end,
        cat=kind,
        pid=TILE_PID,
        tid=worker,
        args={"iteration": iteration, "task": task, "tile_ty": tile_ty, "tile_tx": tile_tx},
    )


class _TileTimeline:
    """Records a backend's tile spans on one timeline for the whole run.

    Each batch's spans start from the batch's own zero.  They are recorded
    from where the previous batch ended, the implicit barrier after an
    OpenMP ``for``, so a run's worker lanes never overlap.
    """

    trace: Tracer | None = None
    _timeline_end = 0.0

    def record(
        self,
        spans: Sequence[TaskSpan],
        tiles: Sequence[Tile] | None,
        iteration: int,
        kind: str = "compute",
    ) -> None:
        """Record one batch's *spans* after the previous batch (no-op untraced).

        Span *i* names task ``spans[i].task``, whose tile is
        ``tiles[spans[i].task]`` (coordinates -1 when *tiles* is None).
        """
        if not self.trace:
            return
        t0 = self._timeline_end
        for s in spans:
            t = tiles[s.task] if tiles is not None else None
            add_tile_span(
                self.trace, iteration=iteration, task=s.task, worker=s.worker,
                start=t0 + s.start, end=t0 + s.end, kind=kind,
                tile_ty=t.ty if t is not None else -1, tile_tx=t.tx if t is not None else -1,
            )
        self._timeline_end = t0 + max((s.end for s in spans), default=0.0)


class SequentialBackend(_TileTimeline):
    """Execute tasks in index order on a single (virtual) worker."""

    nworkers = 1

    def __init__(self, *, trace: Tracer | None = None) -> None:
        self.trace = trace
        self._planes: list[np.ndarray] = []

    def bind_planes(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """Keep *arrays* as the planes a region steps on; returns them unchanged."""
        self._planes = list(arrays)
        return list(arrays)

    def run_region(self, fn, args, collect, *, nworkers: int | None = None, stop=None) -> None:
        """Run the region kernel *fn* in process, the calling thread its one
        participant whatever *nworkers* asks (see :meth:`ProcessBackend.run_region`)."""
        _run_region_alone(fn, args, collect, self._planes, stop)

    def run(self, batch: TaskBatch, *, iteration: int = 0, kind: str = "compute") -> ScheduleResult:
        """Execute the batch; returns the resulting schedule placement."""
        spans: list[TaskSpan] = []
        t = 0.0
        for i, task in enumerate(batch.tasks):
            t0 = time.perf_counter()
            ret = task()
            dt = time.perf_counter() - t0
            if batch.costs is not None:
                cost = batch.costs[i]
            elif isinstance(ret, (int, float)) and not isinstance(ret, bool):
                cost = float(ret)
            else:
                cost = dt
            spans.append(TaskSpan(i, 0, t, t + cost))
            t += cost
        result = ScheduleResult(policy="sequential", nworkers=1, chunk=1, spans=spans)
        self.record(spans, batch.tiles, iteration, kind)
        return result


class SimulatedBackend(_TileTimeline):
    """Execute tasks for real, place them on virtual workers for timing.

    The placement uses :func:`~repro.easypap.schedule.simulate_schedule`;
    tasks are *executed* in the order the scheduling policy consumes them,
    so dynamic-policy runs really do interleave chunks the way a work
    queue would (this matters for the in-place asynchronous sandpile, whose
    intermediate states depend on execution order even though the fixpoint
    does not).
    """

    def __init__(
        self,
        nworkers: int,
        policy: str = "dynamic",
        *,
        chunk: int = 1,
        trace: Tracer | None = None,
        measure: bool = False,
    ) -> None:
        if nworkers < 1:
            raise ConfigurationError("nworkers must be >= 1")
        self.nworkers = nworkers
        self.policy = policy
        self.chunk = chunk
        self.trace = trace
        #: when True and the batch has no costs, wall-time is measured per task
        self.measure = measure

    def run(self, batch: TaskBatch, *, iteration: int = 0, kind: str = "compute") -> ScheduleResult:
        # Execute in policy chunk order first (and measure if requested)...
        """Execute the batch; returns the resulting schedule placement."""
        plan = _plan_for(batch, self.nworkers, self.policy, self.chunk)
        order = [i for ch in plan for i in ch]
        measured: list[float] = [0.0] * len(batch)
        returned: list[object] = [None] * len(batch)
        for i in order:
            t0 = time.perf_counter()
            returned[i] = batch.tasks[i]()
            measured[i] = time.perf_counter() - t0
        # ...then place on virtual workers using, in order of preference:
        # supplied costs, measured wall times, numeric task return values
        # (deterministic work units), or a uniform unit cost.
        if batch.costs is not None:
            costs = batch.costs
        elif self.measure:
            costs = measured
        else:
            costs = [
                float(r) if isinstance(r, (int, float)) and not isinstance(r, bool) else 1.0
                for r in returned
            ]
        result = simulate_schedule(costs, self.nworkers, self.policy, chunk=self.chunk, plan=plan)
        self.record(result.spans, batch.tiles, iteration, kind)
        return result


class ThreadBackend(_TileTimeline):
    """Run tasks on a real thread pool; spans are wall-clock measurements.

    Only valid for batches whose tasks are mutually independent (the
    synchronous sandpile variant, or one colour wave of the multi-wave
    asynchronous variant).
    """

    def __init__(self, nworkers: int, *, trace: Tracer | None = None) -> None:
        if nworkers < 1:
            raise ConfigurationError("nworkers must be >= 1")
        self.nworkers = nworkers
        self.trace = trace

    def run(self, batch: TaskBatch, *, iteration: int = 0, kind: str = "compute") -> ScheduleResult:
        """Execute the batch; returns the resulting schedule placement."""
        spans: list[TaskSpan | None] = [None] * len(batch)
        epoch = time.perf_counter()
        worker_ids: dict[int, int] = {}
        # worker-ID assignment must be atomic: with a bare
        # ``setdefault(tid, len(worker_ids))`` the ``len()`` is evaluated
        # *before* the insert, so two threads could claim the same index
        # and corrupt worker_busy()/trace lanes
        id_lock = threading.Lock()

        def call(i: int) -> None:
            tid = threading.get_ident()
            w = worker_ids.get(tid)
            if w is None:
                with id_lock:
                    w = worker_ids.setdefault(tid, len(worker_ids))
            t0 = time.perf_counter() - epoch
            batch.tasks[i]()
            t1 = time.perf_counter() - epoch
            spans[i] = TaskSpan(i, w, t0, t1)

        with ThreadPoolExecutor(max_workers=self.nworkers) as pool:
            list(pool.map(call, range(len(batch))))

        done = [s for s in spans if s is not None]
        if len(done) != len(batch):
            unfinished = [i for i, s in enumerate(spans) if s is None]
            raise SchedulingError(
                f"{len(unfinished)} of {len(batch)} thread tasks did not complete: "
                f"tasks {unfinished[:20]}"
            )
        result = ScheduleResult(policy="threads", nworkers=self.nworkers, chunk=1, spans=done)
        self.record(done, batch.tiles, iteration, kind)
        return result


# -- ProcessBackend worker-side machinery (module level: picklable by name) ----

#: a worker that no lease has attached for this long exits on its own; the
#: parent leases an idle set only within half of it (see :func:`_lease`)
_IDLE_EXIT_S = 2.0


#: chunk ids are written to the claim queue as 4-byte little-endian ints,
#: at most this many per round: one write of at most ``PIPE_BUF`` bytes is
#: atomic and always fits in an empty pipe, so the parent never blocks
_CLAIMS_PER_ROUND = select.PIPE_BUF // 4
_CLAIM_IDS = b"".join(i.to_bytes(4, "little") for i in range(_CLAIMS_PER_ROUND))


def _claimed(claims: int, first: int):
    """Yield the chunk ids one participant runs in a claim round.

    It starts on chunk *first*, its own — the chunks a team takes when it
    starts together — then claims chunk ids from the shared queue until
    it is empty: the shared-queue ``dynamic`` schedule.  The pipe read end
    is non-blocking and each 4-byte read is atomic, so no two workers
    claim one id, and no lock exists for a killed worker to leave held.
    Every worker holds the write end from its fork on, so a read never
    sees end-of-file.
    """
    c = first
    while True:
        yield c
        try:
            raw = os.read(claims, 4)
        except BlockingIOError:  # queue empty: every chunk is taken
            return
        c = int.from_bytes(raw, "little")


@functools.lru_cache(maxsize=8)
def _spec_tasks(spec: BatchSpec) -> list[TileTask]:
    """The :class:`TileTask` of *spec* on every tile of its grid, by tile index."""
    return [spec.task(t) for t in TileGrid(*spec.geometry)]


def _attach(plane_specs: list[tuple[str, tuple, str]]) -> tuple[list, list[np.ndarray]]:
    """Map the shared planes named by *plane_specs*: ``(segments, arrays)``."""
    from multiprocessing import shared_memory

    segments = [shared_memory.SharedMemory(name=name) for name, _, _ in plane_specs]
    arrays = [
        np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        for seg, (_, shape, dtype) in zip(segments, plane_specs)
    ]
    return segments, arrays


#: int64 words of one region slot: what one worker publishes for one step
#: (the last word: its stop vote at the barrier after the step)
_SLOT_WORDS = 16
#: a worker waiting at a region barrier polls its semaphore this many times
#: before it blocks on it: a short spin catches a peer that is about to
#: arrive, and blocking frees the core when the host is oversubscribed
_BARRIER_SPINS = 200


class _RegionShared:
    """The barrier, slots and abort word a worker set's regions share.

    Made with the set, before its workers fork, so every worker inherits
    it: one fork-context semaphore per worker per round of a dissemination
    barrier (``ceil(log2 n)`` rounds; in round *r* worker *w* posts to
    worker ``w + 2**r`` and waits on its own, so no lock exists for a
    killed worker to leave held), and an anonymous shared mapping holding
    the abort word, the stop word and ``slots[2, n, _SLOT_WORDS]``.  Slots
    are double buffered: step *i* writes row ``i % 2``, so a peer still
    reading step *i* - 1's slots never sees them overwritten.  Word 0 of a
    slot names the step it was published for (-1: none yet).  The parent
    sets the abort word to cancel the region.  The stop word is the
    ``time.monotonic_ns()`` instant past which the region ends at a
    barrier, 0 once its :class:`~repro.common.job.StopSignal` is
    requested.  Nothing here has a name or a file descriptor: the memory
    goes with the set's last reference.
    """

    def __init__(self, ctx, nworkers: int) -> None:
        rounds = (nworkers - 1).bit_length()
        self.sems = [[ctx.Semaphore(0) for _ in range(rounds)] for _ in range(nworkers)]
        mapping = mmap.mmap(-1, 8 * (2 + 2 * nworkers * _SLOT_WORDS))
        #: abort word, stop word, slots as Python ints (cheap to touch at a barrier)
        self.words = words = memoryview(mapping).cast("q")
        self.slots = np.frombuffer(mapping, np.int64, offset=16).reshape(2, nworkers, _SLOT_WORDS)
        #: the stop votes of either slot row: each slot's last word
        self.votes = [words[1 + (r * nworkers + 1) * _SLOT_WORDS :: _SLOT_WORDS] for r in (0, 1)]

    def reset(self, stop=None) -> None:
        """Clear the abort word and every slot before a region starts, and
        set the stop word from *stop*, bound to it from now on."""
        self.words[0] = 0
        self.slots[...] = -1
        at = None if stop is None else stop.at
        self.words[1] = np.iinfo(np.int64).max if at is None else int(at * 1e9)
        if stop is not None:
            stop.bind(self.words[1:2])

    def published(self, p: int) -> int:
        """The last step every one of the first *p* workers published (-1: none)."""
        return int(self.slots[:, :p, 0].max(axis=0).min())

    def cancel(self) -> None:
        """Abort the running region: every worker leaves at its next barrier.

        The abort word is set before one token is posted to every
        semaphore, so a worker released by a posted token sees it.  The set
        is never leased again (the tokens left behind would break its
        barrier).
        """
        self.words[0] = 1
        for row in self.sems:
            for sem in row:
                sem.release()


class RegionContext:
    """What a region kernel running in one worker sees.

    A region kernel is a module-level function ``fn(ctx, args)`` shipped to
    each participating worker by :meth:`ProcessBackend.run_region`; it
    steps on the shared :attr:`planes` on its own, publishes each step to
    :meth:`slot`, and meets its peers at :meth:`wait`.  Its return value is
    the participant's reply; if it raises, the reply carries what it left
    in :attr:`partial` instead.
    """

    def __init__(
        self, shared: _RegionShared, wid: int, nworkers: int, planes, injector, epoch,
        parent: int | None, claims: int | None = None,
    ):
        #: this worker's index among the region's participants
        self.wid = wid
        #: participants: the first ``nworkers`` workers of the set
        self.nworkers = nworkers
        #: the planes the lease attached
        self.planes = planes
        #: the command's send time; ``perf_counter() - epoch`` is comparable across workers
        self.epoch = epoch
        #: read end of the set's chunk-id claim queue (None in process)
        self.claims = claims
        #: the value a kernel that raises replies with (None unless it sets one)
        self.partial = None
        self._shared = shared
        self._injector = injector
        self._parent = parent
        self._rounds = [
            (shared.sems[(wid + (1 << r)) % nworkers][r], shared.sems[wid][r])
            for r in range((nworkers - 1).bit_length())
        ]

    def check(self, step: int) -> None:
        """Fault-injection point: this worker's share of *step* is task
        ``step * len(set) + wid`` for the backend's ``FaultInjector``."""
        if self._injector is not None:
            self._injector.check(step * len(self._shared.sems) + self.wid)

    def slot(self, step: int) -> np.ndarray:
        """This worker's slot for *step*: 16 int64 words, word 0 naming the
        step (write it last; -1 until then), the last one :meth:`wait`'s."""
        return self._shared.slots[step % 2, self.wid]

    def slots(self, step: int) -> np.ndarray:
        """Every participant's slot for *step* (read them after :meth:`wait`)."""
        return self._shared.slots[step % 2, : self.nworkers]

    def wait(self, step: int, *, leave: bool = False) -> bool:
        """The barrier after *step*, spin then block; False when the region ends there.

        Before the barrier each participant votes, in its slot's last word,
        to *leave* (it failed the step) or whether the stop word's instant
        has passed; after it all read the same votes and leave if any says
        so.  So every participant ends the region after the same step,
        while a peer still leaving the barrier before carries on to meet
        them, and a stop requested as they pass a barrier reaches all of
        them or none.  The abort word ends the region at any barrier.

        A worker whose parent is gone exits here, at every barrier and every
        :data:`_IDLE_EXIT_S` while blocked: no one will read the rest of
        the region, and nothing else would wake a blocked worker.  The
        in-process participant (*parent* None) has no parent to watch: its
        own process reads the region.
        """
        words, votes = self._shared.words, self._shared.votes[step % 2]
        votes[self.wid] = leave or time.monotonic_ns() >= words[1]
        if self._parent is not None and os.getppid() != self._parent:
            os._exit(1)
        for post, own in self._rounds:
            post.release()
            for _ in range(_BARRIER_SPINS):
                if own.acquire(False):
                    break
            else:
                while not own.acquire(timeout=_IDLE_EXIT_S):
                    if os.getppid() != self._parent:
                        os._exit(1)
        return not (words[0] or any(votes[: self.nworkers]))


def _run_region_alone(fn, args, collect, planes: list[np.ndarray], stop=None) -> None:
    """Run the region kernel *fn* on *planes* as its one participant, in process.

    The calling thread is participant 0 of 1: ``_RegionShared(None, 1)``
    makes no semaphore, so every barrier returns at once, and there is no
    fault injector and no parent to watch.  ``collect(step, slots,
    [value])`` is called as :meth:`ProcessBackend.run_region` calls it,
    also when *fn* raises, so the caller keeps the steps it published.
    """
    if not planes:
        raise SchedulingError("bind_planes() must be called before running a region")
    shared = _RegionShared(None, 1)
    shared.reset(stop)
    value = None
    try:
        value = fn(RegionContext(shared, 0, 1, planes, None, time.perf_counter(), None), args())
    finally:
        if stop is not None:
            stop.bind(None)
        collect(shared.published(1), shared.slots, [value])


def _tile_batch(ctx: RegionContext, args) -> list[tuple[int, float, float, object]]:
    """Region kernel of a tile batch: run this participant's share of one round.

    *args* is ``(spec, tile_spans, plan, todo)``: the batch's
    :class:`BatchSpec`, its tiles as index spans, the ``(ntasks, nworkers,
    policy, chunk, dynamic)`` its chunk plan is built from, and the spans
    of the task positions still to run (None: all).  ``static``/``cyclic``
    chunk *k* belongs to participant ``k % nworkers``; under
    ``dynamic``/``guided`` participant *w* starts on the *w*-th chunk with
    tasks left, then claims chunk ids (:func:`_claimed`).  In process, with
    no claim queue, the one participant runs every chunk.  Returns
    ``(position, start, end, return)`` rows, times from ``ctx.epoch``; a
    tile that raises ends the share, and the rows before it still reach
    the parent as :attr:`RegionContext.partial`.
    """
    spec, tile_spans, (ntasks, nworkers, policy, chunk, dynamic), todo = args
    fn = get_tile_kernel(spec.kernel)
    tasks = _spec_tasks(spec)
    tiles = expand_spans(tile_spans)
    chunks = (dynamic_chunk_plan if dynamic else chunk_plan_cached)(ntasks, nworkers, policy, chunk)
    if todo is not None:
        keep = set(expand_spans(todo))
        chunks = [[i for i in ch if i in keep] for ch in chunks]
    if ctx.claims is None:
        share = chunks
    elif policy in ("static", "cyclic"):
        share = chunks[ctx.wid :: nworkers]
    else:
        left = [ch for ch in chunks if ch]
        share = (left[c] for c in _claimed(ctx.claims, ctx.wid) if c < len(left))
    rows = ctx.partial = []
    injector, epoch = ctx._injector, ctx.epoch
    for ch in share:
        for pos in ch:
            if injector is not None:
                injector.check(pos)
            t0 = time.perf_counter() - epoch
            ret = fn(ctx.planes, tasks[tiles[pos]])
            rows.append((pos, t0, time.perf_counter() - epoch, ret))
    return rows


def _worker_main(
    conn,
    wid: int,
    fault_injector: FaultInjector | None,
    claims: int,
    shared: _RegionShared,
) -> None:
    """Persistent worker loop: serve commands for one lease after another.

    Commands arrive pre-pickled over *conn* (one duplex pipe per worker):

    * ``("stop",)`` — exit the loop;
    * ``("attach", plane_specs)`` — drop the previous lease's planes and
      map the new lease's planes;
    * ``("detach",)`` — drop the planes: the set is idle, and exits on its
      own if no attach comes within :data:`_IDLE_EXIT_S`;
    * ``("region", seq, epoch, fn, nworkers, args)`` — run the region
      kernel ``fn(RegionContext, args)`` with the first *nworkers* workers
      of the set (see :meth:`ProcessBackend.run_region`) and reply once
      ``(seq, wid, (start, value), err)``, *start* offset from *epoch*
      (CLOCK_MONOTONIC is system-wide where fork exists, so offsets are
      comparable across workers).  A tile batch is such a region
      (:func:`_tile_batch`), and the claim queue *claims* is its
      ``dynamic`` schedule.

    ``seq`` is the parent's epoch tag: replies from a previous attempt
    are discarded by the barrier, so a slow worker can never corrupt a
    retried attempt's bookkeeping.  A kernel that raises replies with the
    exception in ``err`` and :attr:`RegionContext.partial` as its value.
    """
    # the parent creates, tracks and unlinks every plane; a worker only maps
    # them.  Mapping one registers it with the resource tracker too (before
    # Python 3.13), and a registration arriving after the parent's unlink
    # would be reported, and unlinked again, as a leak at exit.
    resource_tracker.register = lambda name, rtype: None
    parent = os.getppid()
    segments: list = []
    arrays: list[np.ndarray] = []
    leased = False
    while True:
        try:
            if not leased and not conn.poll(_IDLE_EXIT_S):
                return  # idle past any lease the parent may still grant
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):  # parent went away: nothing left to serve
            return
        op = msg[0]
        if op == "stop":
            return
        if op in ("attach", "detach"):
            arrays = []
            for seg in segments:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - a kernel kept a view
                    pass
            segments, leased = [], op == "attach"
            if leased:
                try:
                    segments, arrays = _attach(msg[1])
                except FileNotFoundError:  # unlinked already: the lease ended unused
                    pass
            continue
        _, seq, epoch, fn, nworkers, args = msg
        err: Exception | None = None
        start = time.perf_counter() - epoch
        ctx = RegionContext(shared, wid, nworkers, arrays, fault_injector, epoch, parent, claims)
        try:
            value = fn(ctx, args)
        except Exception as exc:
            err, value = exc, ctx.partial
        try:
            buf = pickle.dumps((seq, wid, (start, value), err))
        except Exception as exc:  # unpicklable value or exception: ship a repr instead
            buf = pickle.dumps((seq, wid, None, SchedulingError(repr(err or exc))))
        try:
            conn.send_bytes(buf)
        except Exception:  # parent pipe gone mid-reply
            return


class _Worker:
    """Parent-side handle for one persistent worker slot."""

    __slots__ = ("proc", "conn", "wid", "alive")

    def __init__(self, proc, conn, wid: int) -> None:
        self.proc = proc
        self.conn = conn
        self.wid = wid
        self.alive = True


class _WorkerSet:
    """Forked workers with their claim queue, region barrier and ``seq`` counter.

    A set outlives the backend that leased it: :func:`_park` keeps a
    clean one in the idle pool and the next backend with as many workers
    leases it again (:func:`_lease`), so ``seq`` keeps counting across
    leases and no reply of an earlier lease can match a later barrier.
    """

    __slots__ = ("workers", "claims", "shared", "seq", "version", "private", "ok")

    def __init__(self, nworkers: int, fault_injector: FaultInjector | None) -> None:
        ctx = multiprocessing.get_context("fork")
        claims, claims_w = os.pipe()
        os.set_blocking(claims, False)
        #: (read, write) ends of the chunk-id claim queue
        self.claims = (claims, claims_w)
        #: the regions' barrier, slots and abort word, inherited at fork
        self.shared = _RegionShared(ctx, nworkers)
        self.seq = 0
        #: the tile-kernel registry the workers inherited
        self.version = _REGISTRY_VERSION
        #: forked with a fault injector: never pooled (its shared counter
        #: reaches a worker only at fork)
        self.private = fault_injector is not None
        #: the last attempt dispatched on this set succeeded
        self.ok = True
        self.workers: list[_Worker] = []
        for wid in range(nworkers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, wid, fault_injector, claims, self.shared),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.workers.append(_Worker(proc, parent_conn, wid))

    def reusable(self) -> bool:
        """True when another lease may take this set over as it is."""
        return (
            not self.private
            and self.ok
            and self.version == _REGISTRY_VERSION
            and all(wk.alive and wk.proc.is_alive() for wk in self.workers)
            and not multiprocessing.connection.wait([self.claims[0]], 0)
        )

    def shutdown(self, *, terminate: bool = False) -> None:
        """Stop the workers and close the claim queue.

        Never raises: shutdown runs on error paths (dead workers, timed-out
        attempts, ``close()`` after a failed ``run``) where a secondary
        exception would mask the original failure.  With ``terminate``,
        worker processes are killed outright so a hung worker cannot stall
        the join.
        """
        for fd in self.claims:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
        stop = pickle.dumps(("stop",))
        for wk in self.workers:
            if terminate or not wk.alive:
                try:
                    wk.proc.terminate()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
            else:
                try:
                    wk.conn.send_bytes(stop)
                except Exception:
                    pass
        for wk in self.workers:
            try:
                wk.proc.join(timeout=1.0)
                if wk.proc.is_alive():  # ignored the stop command: kill it
                    wk.proc.terminate()
                    wk.proc.join(timeout=1.0)
                wk.proc.close()  # its sentinel pipe, even while a traceback holds the set
            except Exception:  # pragma: no cover - pathological process state
                pass
            try:
                wk.conn.close()
            except Exception:  # pragma: no cover - double close
                pass


#: worker count -> (idle set, release time); at most one idle set per count
_idle: dict[int, tuple[_WorkerSet, float]] = {}
_idle_lock = threading.Lock()


def _forget_idle_pool() -> None:
    """In a forked child: the parent's idle workers are not ours to lease."""
    global _idle_lock
    _idle_lock = threading.Lock()
    _idle.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_pool)


def _lease(nworkers: int, fault_injector: FaultInjector | None) -> _WorkerSet:
    """An idle set of *nworkers* workers if a fresh, clean one waits; else a new fork.

    A set idle for more than half of :data:`_IDLE_EXIT_S` is about to exit
    on its own and is shut down instead.
    """
    if fault_injector is None:
        with _idle_lock:
            entry = _idle.pop(nworkers, None)
        if entry is not None:
            ws, since = entry
            if time.monotonic() - since <= _IDLE_EXIT_S / 2 and ws.reusable():
                return ws
            ws.shutdown(terminate=True)
    return _WorkerSet(nworkers, fault_injector)


def _park(ws: _WorkerSet) -> None:
    """Make a clean, detached set the idle set of its worker count."""
    with _idle_lock:
        old = _idle.get(len(ws.workers))
        _idle[len(ws.workers)] = (ws, time.monotonic())
    if old is not None:  # keep the fresher set
        old[0].shutdown()


def shutdown_idle_pool() -> int:
    """Stop every idle pooled worker now; returns how many were stopped.

    Idle workers also exit on their own after :data:`_IDLE_EXIT_S`, and
    daemonic ones at interpreter exit; this is for callers that must see
    no child process or open pipe left, such as leak checks.
    """
    with _idle_lock:
        sets = [ws for ws, _ in _idle.values()]
        _idle.clear()
    for ws in sets:
        ws.shutdown()
    return sum(len(ws.workers) for ws in sets)


class ProcessBackend(_TileTimeline):
    """Run tile batches and parallel regions on persistent worker processes.

    Usage contract (what the tiled steppers implement):

    1. construct the backend and check :attr:`uses_processes`;
    2. :meth:`bind_planes` the grid buffers — the arrays are copied into
       :mod:`multiprocessing.shared_memory` segments and the returned
       shm-backed replacements must be installed in their place (e.g. via
       :meth:`Grid2D.swap_buffer <repro.easypap.grid.Grid2D.swap_buffer>`);
    3. per iteration, pass a :class:`TaskBatch` with a :class:`BatchSpec`;
       per-task return values come back in :attr:`ScheduleResult.returns`.
       Or run a whole loop of iterations as one :meth:`run_region`;
    4. :meth:`close` when done (also a context manager): it unlinks the
       planes and returns the lease.

    **Leases.**  Each of the ``nworkers`` slots is one forked
    :class:`multiprocessing.Process` running :func:`_worker_main` behind a
    duplex pipe.  The workers, their claim queue and the command ``seq``
    counter form a worker set that outlives the backend: :meth:`bind_planes`
    leases the idle set of as many workers when a clean one waits (else
    forks one) and attaches it to the new planes; :meth:`close` detaches
    it and parks it idle when it is clean — no ``fault_injector``, every
    worker alive, the last attempt succeeded, the claim queue empty and
    the tile-kernel registry unchanged since the fork — and kills it
    otherwise.  Idle workers exit on their own after :data:`_IDLE_EXIT_S`;
    :func:`shutdown_idle_pool` stops them at once.

    **One kind of command.**  :meth:`run_region` sends one ``region``
    command per participating worker: a module-level kernel and its
    arguments.  The workers then loop on their own, publishing each step
    to a double-buffered slot and meeting at a spin-then-block
    dissemination barrier, which ends the region early when a stop word
    says so (:meth:`RegionContext.wait`); barrier, slots, abort and stop
    words belong to the worker set (:class:`_RegionShared`), made before
    its workers fork.  ``pfrontier`` runs its fixpoint loop this way.  A
    tile batch (:meth:`run`) is a one-step region of :func:`_tile_batch`
    whose command names the tasks by value — the :class:`BatchSpec`, the
    tiles as index spans, the chunk plan's parameters — so it stays a few
    hundred bytes whatever the tile count.  ``static``/``cyclic`` chunk
    *k* runs on worker ``k % nworkers``; under ``dynamic``/``guided``
    worker *w* starts on chunk *w* (so a worker that wakes first cannot
    take the whole plan) and the remaining chunk ids wait, in plan order,
    in a claim queue (a pipe shared by the workers) that the workers drain
    — OpenMP's shared-queue ``dynamic``.  A plan with more than
    :data:`_CLAIMS_PER_ROUND` chunks runs as one region per round of that
    many.

    **One attempt loop.**  Every attempt posts its commands and collects
    one reply per worker the same way (:meth:`_round_trip`), ``seq``
    tagged, so a reply to an earlier attempt or lease is discarded.  A
    worker that is gone, dies (``BrokenProcessPool``) or raises fails the
    attempt, and so does ``task_timeout``, which bounds each step a region
    publishes (a tile batch: each claim round).  A failed attempt is
    re-sent on a rebuilt pool per ``retry`` (a
    :class:`~repro.common.resilience.RetryPolicy`, :meth:`_with_retries`):
    a batch re-sends only the tasks with no row (tile kernels are
    idempotent; a worker whose tile raised reports the rows before it), a
    region resumes from the slots its caller collected.  Once retries are
    exhausted the set is killed and the backend degrades for good
    (``allow_fallback=True``, the default: the region or batch finishes in
    process, the calling thread its one participant, and later batches
    run on threads), or a :class:`SchedulingError` naming the unfinished
    tasks, or the region, is raised.  A set is leased only with an empty
    claim queue, so a stale chunk id never runs in a later batch.  Every
    recovery step is recorded in ``degradation`` (a
    :class:`~repro.common.resilience.DegradationLog`) when one is
    supplied.

    When ``fork`` or shared memory is unavailable the backend degrades to
    a :class:`ThreadBackend` (``uses_processes`` is False and closures run
    in-process) and regions run in process; batches without a ``spec``
    take the same thread path.

    **Dispatch metrics.**  Pass ``metrics`` (a
    :class:`repro.obs.metrics.MetricsRegistry`) to count commands and
    serialized bytes (``easypap_dispatch_commands_total``,
    ``easypap_dispatch_bytes_total``, labelled ``mode=region``, and
    ``attach``/``detach`` once per worker per lease), batches
    (``easypap_dispatch_batches_total``), and observe the delay from a
    command's send to its kernel's start
    (``easypap_dispatch_queue_wait_seconds``).
    """

    def __init__(
        self,
        nworkers: int,
        policy: str = "static",
        *,
        chunk: int = 1,
        trace: Tracer | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        allow_fallback: bool = True,
        degradation: DegradationLog | None = None,
        fault_injector: FaultInjector | None = None,
        metrics=None,
    ) -> None:
        if nworkers < 1:
            raise ConfigurationError("nworkers must be >= 1")
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(f"task_timeout must be > 0, got {task_timeout}")
        self.nworkers = nworkers
        self.policy = policy
        self.chunk = chunk
        self.trace = trace
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.allow_fallback = allow_fallback
        self.degradation = degradation
        self.fault_injector = fault_injector
        self.metrics = metrics
        self._m_commands = self._m_bytes = self._m_batches = self._m_wait = None
        if metrics is not None:
            self._m_commands = metrics.counter(
                "easypap_dispatch_commands_total",
                "commands sent to persistent workers, by dispatch mode",
            )
            self._m_bytes = metrics.counter(
                "easypap_dispatch_bytes_total",
                "serialized command bytes shipped to workers, by dispatch mode",
            )
            self._m_batches = metrics.counter(
                "easypap_dispatch_batches_total",
                "batches dispatched on worker processes (one per iteration)",
            )
            self._m_wait = metrics.histogram(
                "easypap_dispatch_queue_wait_seconds",
                "delay between command send and its kernel starting",
                buckets=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0),
            )
        #: the leased worker set, between bind_planes and close
        self._set: _WorkerSet | None = None
        self._shm: list = []
        self._planes: list[np.ndarray] = []
        self._plane_specs: list[tuple[str, tuple, str]] = []
        #: the thread pool of the thread path
        self._threads = ThreadBackend(nworkers)
        self._closed = False
        self._reported_thread_degradation = False
        self._degraded = False
        #: True when real worker processes will execute tile specs; False
        #: means every batch degrades to the thread path.
        self.uses_processes = self.available()

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the leased workers (empty before bind_planes and after close)."""
        return tuple(wk.proc.pid for wk in self._set.workers) if self._set else ()

    @staticmethod
    def available() -> bool:
        """True when fork + shared memory exist on this host."""
        try:
            from multiprocessing import shared_memory  # noqa: F401
        except ImportError:  # pragma: no cover - always present on CPython/Linux
            return False
        return "fork" in multiprocessing.get_all_start_methods()

    # -- plane management -------------------------------------------------------

    def bind_planes(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """Copy *arrays* into shared memory and lease workers attached to them.

        Returns shm-backed arrays of identical shape/dtype/contents; the
        caller must use these in place of the originals so parent-side
        writes are visible to the workers.  In fallback mode this is a
        no-op returning the arrays unchanged (regions then run on them in
        process).
        """
        if self._closed:
            raise ConfigurationError("backend is closed")
        if not self.uses_processes:
            self._planes = list(arrays)
            return list(arrays)
        from multiprocessing import shared_memory

        self._release_pool_and_planes()
        specs: list[tuple[str, tuple, str]] = []
        for arr in arrays:
            seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
            plane = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            plane[...] = arr
            self._shm.append(seg)
            self._planes.append(plane)
            specs.append((seg.name, arr.shape, arr.dtype.str))
        self._plane_specs = specs
        self._start_pool()
        return list(self._planes)

    def _post(self, wk: _Worker, buf: bytes, *, mode: str) -> None:
        """Ship one pre-pickled command; counts dispatch metrics."""
        wk.conn.send_bytes(buf)
        if self._m_commands is not None:
            self._m_commands.inc(mode=mode)
            self._m_bytes.inc(len(buf), mode=mode)

    def _start_pool(self) -> None:
        """Lease a worker set and attach it to the current planes."""
        self._set = _lease(self.nworkers, self.fault_injector)
        attach = pickle.dumps(("attach", self._plane_specs))
        for wk in self._set.workers:
            self._post(wk, attach, mode="attach")

    # -- lifecycle --------------------------------------------------------------

    def _teardown_pool(self) -> None:
        """Kill the leased workers without touching the shared planes."""
        ws, self._set = self._set, None
        if ws is not None:
            ws.shutdown(terminate=True)

    def _rebuild_pool(self) -> None:
        """Replace a broken/hung pool; workers re-attach the live planes."""
        self._teardown_pool()
        self._start_pool()

    def _return_lease(self) -> None:
        """Detach a clean leased set and return it to the idle pool."""
        ws, self._set = self._set, None
        if ws is None:
            return
        if ws.reusable():
            detach = pickle.dumps(("detach",))
            try:
                for wk in ws.workers:
                    self._post(wk, detach, mode="detach")
            except OSError:  # a worker died since the check
                pass
            else:
                _park(ws)
                return
        ws.shutdown(terminate=True)

    def _release_pool_and_planes(self) -> None:
        self._return_lease()
        # drop our own views before closing, else close() raises BufferError
        self._planes = []
        self._plane_specs = []
        for seg in self._shm:
            try:
                seg.close()
            except BufferError:  # a caller still holds a view; unlink anyway
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
        self._shm = []

    def close(self) -> None:
        """Return the lease and release the shared planes.

        A clean worker set goes back to the idle pool for the next backend
        with as many workers; any other is killed.  Idempotent and
        exception-safe: callable any number of times, after a failed
        ``run``, and with a broken or hung pool — the shared memory
        segments are always unlinked.  Callers still holding
        shm-backed arrays from :meth:`bind_planes` must replace them with
        private copies *before* closing.
        """
        if self._closed:
            return
        self._closed = True
        self._release_pool_and_planes()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------------

    def _log_degradation(self, action: str, reason: str, *, attempt: int = 0, **detail) -> None:
        if self.degradation is not None:
            self.degradation.record("ProcessBackend", action, reason, attempt=attempt, **detail)

    def _report_off_processes(self) -> None:
        """Log ``thread-execution`` the first time work runs in the parent."""
        if not self._reported_thread_degradation:
            self._reported_thread_degradation = True
            if self._degraded:
                reason = "backend degraded after retry exhaustion"
            elif not self.uses_processes:
                reason = "fork/shared memory unavailable on this host"
            else:
                reason = "batch carries no BatchSpec"
            self._log_degradation("thread-execution", reason)

    def _run_threads(self, batch: TaskBatch, iteration: int, kind: str) -> ScheduleResult:
        self._report_off_processes()
        result = self._threads.run(batch, iteration=iteration, kind=kind)
        self.record(result.spans, batch.tiles, iteration, kind)
        return result

    def _describe_missing(self, batch: TaskBatch, missing: set[int], chunks) -> str:
        """Name the unfinished tasks, their tiles, and where they were scheduled."""
        idxs = sorted(missing)
        chunk_of = {i: k for k, ch in enumerate(chunks) for i in ch}
        parts = []
        for i in idxs[:20]:
            ty, tx = batch.tile_coords(i)
            tile = f" tile(ty={ty},tx={tx})" if ty >= 0 else ""
            k = chunk_of.get(i, -1)
            if self.policy in ("static", "cyclic"):
                where = f"chunk {k} on worker {k % self.nworkers}"
            else:
                where = f"chunk {k} (shared queue)"
            parts.append(f"task {i}{tile} [{where}]")
        more = f" (+{len(idxs) - 20} more)" if len(idxs) > 20 else ""
        return (
            f"{len(idxs)} of {len(batch)} tasks did not complete under "
            f"policy={self.policy!r} nworkers={self.nworkers} chunk={self.chunk}: "
            + "; ".join(parts)
            + more
        )

    def _round_trip(self, sends, epoch: float, take) -> Exception | None:
        """Post each ``(worker, command)`` of *sends*, then collect one reply
        per worker under the epoch-tagged barrier (tag: the leased set's ``seq``).

        ``take(worker, payload)`` gets each reply to this ``seq`` and
        returns when, after *epoch*, its kernel started (None: unknown), for
        the queue-wait histogram; replies to earlier commands are
        discarded.  A worker that is gone, dies or raises fails the
        attempt; a reply a dead worker sent first is still taken.  The
        ``task_timeout`` deadline restarts whenever the last step every
        participant published moves on, so it bounds a step.  The first
        failure cancels the region, and the survivors' replies, which carry
        what their kernels did, are still collected for another
        ``task_timeout`` at most.  Returns the first failure (or None).
        """
        seq, shared = self._set.seq, self._set.shared
        deadline = Deadline(self.task_timeout)
        failure: Exception | None = None
        #: worker -> send offset from epoch, until its reply arrives
        waiting: dict[_Worker, float] = {}
        for wk, buf in sends:
            if wk.alive:
                try:
                    self._post(wk, buf, mode="region")
                    waiting[wk] = time.perf_counter() - epoch
                    continue
                except OSError:
                    wk.alive = False
            failure = failure or BrokenProcessPool(f"worker {wk.wid} is gone")

        def recv_one(wk: _Worker) -> bool:
            """Consume one reply from *wk*; False when the pipe is dead."""
            nonlocal failure
            try:
                rseq, _rwid, out, err = pickle.loads(wk.conn.recv_bytes())
            except (EOFError, OSError):
                return False
            if rseq != seq:  # stale reply from an earlier command
                return True
            send_off = waiting.pop(wk)
            start = take(wk, out)
            if start is not None and self._m_wait is not None:
                self._m_wait.observe(max(start - send_off, 0.0))
            if err is not None:
                failure = failure or err
            return True

        cancelled = False
        progress = -1
        while waiting:
            if failure is not None and not cancelled:
                shared.cancel()
                cancelled = True
                deadline = Deadline(self.task_timeout)
            conns = {wk.conn: wk for wk in waiting}
            sentinels = {wk.proc.sentinel: wk for wk in waiting}
            ready = multiprocessing.connection.wait(
                list(conns) + list(sentinels), timeout=deadline.remaining()
            )
            if not ready:
                if cancelled:
                    # the workers still owed are hung: the rebuild kills them
                    failure = failure or SchedulingError(
                        f"attempt exceeded task_timeout={self.task_timeout}s"
                    )
                    break
                now = shared.published(len(sends))
                if now <= progress:
                    failure = SchedulingError(
                        f"region step {now + 1} exceeded task_timeout={self.task_timeout}s"
                    )
                progress = now
                deadline = Deadline(self.task_timeout)
            for obj in ready:
                wk = conns.get(obj) or sentinels[obj]
                if wk not in waiting:  # answered (or buried) earlier in this loop
                    continue
                if obj is wk.conn and recv_one(wk):
                    continue
                # dead: take a reply it managed to send first
                wk.alive = False
                try:
                    while wk in waiting and wk.conn.poll(0) and recv_one(wk):
                        pass
                except OSError:
                    pass
                if waiting.pop(wk, None) is not None:
                    failure = failure or BrokenProcessPool(
                        f"worker {wk.wid} (pid {wk.proc.pid}) died mid-region"
                    )
        return failure

    def _with_retries(self, attempt, describe, tasks: set[int] | None = None) -> bool:
        """Run ``attempt()`` on the leased set until one returns no failure.

        Returns True then, with the set fit for a later lease.  Each failed
        attempt is logged ``pool-rebuild`` and retried on a rebuilt set per
        :attr:`retry`.  When retries are exhausted the set is killed, so no
        half-dead worker writes into the shared planes, and either the
        backend degrades for good (``thread-fallback``; returns False and
        the caller finishes the work in-process) or, without
        ``allow_fallback``, ``give-up`` raises a :class:`SchedulingError`
        ending in ``describe(failure)``.  *tasks*, the positions still
        missing, is named in every log entry when given.
        """
        attempt_no = 1
        while True:
            ws = self._set
            # an attempt that ends any other way leaves the set unfit for a later lease
            ws.ok = False
            failure = attempt()
            if failure is None:
                ws.ok = True
                return True
            detail = {} if tasks is None else {"tasks": sorted(tasks)}
            if attempt_no >= self.retry.max_attempts:
                self._teardown_pool()
                if not self.allow_fallback:
                    self._log_degradation(
                        "give-up", f"retries exhausted: {failure}", attempt=attempt_no, **detail
                    )
                    raise SchedulingError(
                        f"retries exhausted ({self.retry.max_attempts} attempts) and "
                        f"fallback disabled: {describe(failure)}"
                    ) from failure
                self._log_degradation(
                    "thread-fallback", f"retries exhausted: {failure}", attempt=attempt_no, **detail
                )
                # stay degraded: later batches take the thread path outright
                self.uses_processes = False
                self._degraded = True
                return False
            self._log_degradation(
                "pool-rebuild", f"{type(failure).__name__}: {failure}", attempt=attempt_no, **detail
            )
            self.retry.sleep(attempt_no)
            self._rebuild_pool()
            attempt_no += 1

    def _region(self, fn, args, collect, p: int, describe, *, stop=None, epoch=None,
                tasks: set[int] | None = None) -> None:
        """Run the region kernel *fn* on the first *p* workers, attempt by
        attempt (see :meth:`run_region`), and in process once retries are
        exhausted or without worker processes.

        Each attempt's commands carry *epoch* as their time origin, or the
        attempt's own send time when it is None; *describe* and *tasks*
        go to :meth:`_with_retries`.
        """
        if self.uses_processes and self._set is None:
            raise SchedulingError("bind_planes() must be called before running a region or batch")

        def attempt() -> Exception | None:
            ws = self._set
            ws.shared.reset(stop)
            ws.seq += 1
            t0 = time.perf_counter() if epoch is None else epoch
            buf = pickle.dumps(("region", ws.seq, t0, fn, p, args()))
            values: list = [None] * p

            def take(wk: _Worker, out) -> float | None:
                if out is None:
                    return None
                start, values[wk.wid] = out
                return start

            failure = self._round_trip([(wk, buf) for wk in ws.workers[:p]], t0, take)
            if stop is not None:
                stop.bind(None)
            collect(ws.shared.published(p), ws.shared.slots.copy(), values)
            return failure

        if not self.uses_processes or not self._with_retries(attempt, describe, tasks):
            self._report_off_processes()
            _run_region_alone(fn, args, collect, self._planes, stop)

    def run(self, batch: TaskBatch, *, iteration: int = 0, kind: str = "compute") -> ScheduleResult:
        """Execute the batch; returns the schedule with per-task returns.

        A batch with a ``spec`` runs on the workers as one-step regions of
        :func:`_tile_batch`, one per claim round, until every task has a
        row.  Survives worker crashes and hangs: the tasks with no row are
        retried on a rebuilt pool per :attr:`retry`, then finish in process
        (or raise, per :attr:`allow_fallback`).  See the class docstring.
        """
        if self._closed:
            raise ConfigurationError("backend is closed")
        if not self.uses_processes or batch.spec is None:
            return self._run_threads(batch, iteration, kind)
        n = len(batch)
        chunks = _plan_for(batch, self.nworkers, self.policy, self.chunk)
        plan = (n, self.nworkers, self.policy, self.chunk, batch.dynamic)
        claimed = self.policy in ("dynamic", "guided")
        spans: list[TaskSpan | None] = [None] * n
        returns: list[object] = [None] * n
        missing: set[int] = set(range(n))
        if self._m_batches is not None and n:
            self._m_batches.inc()

        def left() -> int:
            """How many chunks still have tasks to run."""
            if len(missing) == n:
                return len(chunks)
            return sum(1 for ch in chunks if not missing.isdisjoint(ch))

        def args():
            if claimed and self._set is not None:
                # each participant starts on its own chunk; the rest of the round is claimed
                os.write(self._set.claims[1], _CLAIM_IDS[4 * p : 4 * min(left(), _CLAIMS_PER_ROUND)])
            todo = None if len(missing) == n else index_spans(missing)
            return (batch.spec, batch._tile_spans, plan, todo)

        def collect(_step, _slots, values) -> None:
            for wid, rows in enumerate(values):
                for pos, t0, t1, ret in rows or ():
                    spans[pos] = TaskSpan(pos, wid, t0, t1)
                    returns[pos] = ret
                    missing.discard(pos)

        def describe(_failure) -> str:
            return self._describe_missing(batch, missing, chunks)

        epoch = time.perf_counter()
        while missing:
            before = len(missing)
            p = min(self.nworkers, left() if claimed else len(chunks))
            self._region(_tile_batch, args, collect, p, describe, epoch=epoch, tasks=missing)
            if len(missing) == before:
                # every worker replied, yet no task has a row: a kernel bug,
                # not a crash, so another round would loop forever
                raise SchedulingError(describe(None))
        self.record(spans, batch.tiles, iteration, kind)
        return ScheduleResult(self.policy, self.nworkers, self.chunk, spans, returns)

    # -- parallel regions ---------------------------------------------------------

    def run_region(
        self,
        fn: Callable[[RegionContext, object], object],
        args: Callable[[], object],
        collect: Callable[[int, np.ndarray, list], None],
        *,
        nworkers: int | None = None,
        stop=None,
    ) -> None:
        """Run the region kernel *fn* on the first *nworkers* leased workers.

        One ``region`` command per participant ships ``fn`` (pickled by
        name) and ``args()``; each participant runs ``fn(ctx, args)`` (see
        :class:`RegionContext`) and replies once.  After every attempt,
        ``collect(step, slots, values)`` gets the last step every
        participant published (-1: none), a copy of their slots and each
        participant's return value (None where no reply came; one entry
        per participant), so it can advance the state that ``args()``
        sends next.  *stop*, a :class:`~repro.common.job.StopSignal`, ends
        the region at the first barrier after its request or its time
        (see :meth:`RegionContext.wait`).  A failed attempt takes the retry
        ladder (see the class docstring): the region is re-sent with the
        new ``args()``, the kernel resuming from its slots.
        """
        if self._closed:
            raise ConfigurationError("backend is closed")
        self._region(
            fn, args, collect, self.nworkers if nworkers is None else nworkers,
            lambda exc: f"region {fn.__name__} failed: {exc}", stop=stop,
        )


def make_backend(
    name: str,
    nworkers: int = 1,
    *,
    policy: str = "dynamic",
    chunk: int = 1,
    trace: Tracer | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    allow_fallback: bool = True,
    degradation: DegradationLog | None = None,
    fault_injector: FaultInjector | None = None,
    metrics=None,
):
    """Factory: ``sequential``, ``simulated``, ``threads``, or ``process``.

    The resilience knobs (``retry``, ``task_timeout``, ``allow_fallback``,
    ``degradation``, ``fault_injector``) and the dispatch ``metrics``
    registry apply to the ``process`` backend — the only one with workers
    that can crash, hang, or receive commands — and are ignored by the
    others.
    """
    if name == "sequential":
        return SequentialBackend(trace=trace)
    if name == "simulated":
        return SimulatedBackend(nworkers, policy, chunk=chunk, trace=trace)
    if name == "threads":
        return ThreadBackend(nworkers, trace=trace)
    if name in ("process", "processes"):
        return ProcessBackend(
            nworkers,
            policy,
            chunk=chunk,
            trace=trace,
            retry=retry,
            task_timeout=task_timeout,
            allow_fallback=allow_fallback,
            degradation=degradation,
            fault_injector=fault_injector,
            metrics=metrics,
        )
    raise ConfigurationError(f"unknown backend {name!r}")

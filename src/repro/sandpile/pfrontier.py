"""Parallel active frontier: frontier-aware steps on real workers.

PR 3's frontier steppers are ~4x faster than lazy but single-worker; the
process backend is multi-worker but steps the full tile grid.  This module
fuses them: each iteration, only the tiles intersecting the current dirty
bounding box (grown by one cell — the exactness invariant of the windowed
synchronous step) are computed, so work follows the bbox as it moves.

Key design points:

* **A parallel region around the fixpoint loop (process backend).**  A
  *segment* of up to ``limit`` grid iterations is one ``region`` command
  per worker (:meth:`~repro.easypap.executor.ProcessBackend.run_region`),
  the OpenMP ``parallel`` region around the loop rather than a
  ``parallel for`` per iteration.  The workers step on their own over the
  two shared planes, ping-pong: step *i* reads plane ``i % 2`` and writes
  the other.  Each step, each worker computes its contiguous tile rows of
  the window's tile cover as one merged gather (``k == 1``) or its
  :func:`~repro.easypap.tiling.band_tiles` band(s) of the window as one
  fused trapezoid (``k > 1``) — contiguous rows whatever ``policy`` the
  backend was given — then copies forward its rows of the previous cover
  that left the cover, so both planes agree outside it; publishes its
  unstable bbox, sink deficit and counters to its slot, and meets the
  others at the barrier, after which every worker derives the same next
  window from the slots.  The segment ends at the fixpoint or at its step
  limit (the last step skips the barrier) with one reply per worker
  carrying the window log (and the per-step times when the backend
  traces); the grid then takes the plane the last step wrote
  (:meth:`~repro.easypap.grid.Grid2D.swap_buffer`, as a double-buffered
  stepper flips), so no copy ever writes a plane a peer may still read,
  and the next segment carries on from the last cover, outside which both
  planes agree.  :meth:`ParallelFrontierStepper.advance` runs one
  segment; a plain call is a one-step region that commands only the
  workers with rows to compute.
* **Resume from the slots.**  If a worker dies, raises or stalls
  mid-segment, the backend rebuilds its set and the segment resumes from
  the last step every worker published: that step's output plane is only
  read by the next step, so re-running the next step is exact, and its
  slots carry the bbox, the cover and the counters to resume with.  When
  retries are exhausted the segment finishes in-process on the thread
  fallback.
* **In process: single live plane + scratch, no parity flip.**  Off the
  process backend (and after degradation) each step is a
  :class:`~repro.easypap.executor.TaskBatch` of the window's tiles: tasks
  read plane 0 (the live grid) and write plane 1 — a pure gather, so any
  schedule is race-free — and the parent copies the *window* back.
  Closures and picklable :class:`~repro.easypap.executor.TileTask` specs
  are built once, indexed by tile id; a shrinking frontier is a
  :meth:`~repro.easypap.executor.TaskBatch.subset` of the all-tiles batch
  (``dynamic=True``, so it bypasses the static-plan LRU).  The analysis
  layer certifies exactly these batches.
* **Optional compiled inner loop.**  With ``use_compiled=True`` tiles run
  the ``sync_tile_cnc``/``sync_tile_kc`` kernels from
  :mod:`repro.sandpile.compiled` — numba-fused when the ``[compiled]``
  extra is installed, bit-identical pure NumPy otherwise.
* **Temporal blocking (``k > 1``).**  With fused step count *k* each
  step advances the grid *k* iterations: the window is the bbox grown by
  ``k`` (halo depth ``radius x k``), cut into ``nbands`` row bands (one
  per worker by default), each running the ``sync_tile_k``/``sync_tile_kc``
  trapezoid.  A step reports progress while the bbox is not empty, because
  a parallel sandpile can sit on a periodic orbit whose period divides
  ``k`` (``f^k(x) == x`` with ``x`` unstable must not report a fixpoint).

``window_log`` records ``(iteration, window, active_tiles)`` per step so
the obs adapter can render the shrinking frontier as counter tracks next
to the worker lanes.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

import repro.sandpile.compiled  # noqa: F401 - registers sync_tile_cnc/_kc for forked workers
from repro.common.errors import ConfigurationError
from repro.easypap.executor import SequentialBackend, TaskBatch, TileTask
from repro.easypap.grid import Grid2D
from repro.easypap.schedule import TaskSpan
from repro.easypap.tiling import Tile, TileGrid, band_tiles, deal
from repro.sandpile.compiled import sync_window, sync_window_k, sync_window_k_numpy
from repro.sandpile.kernels import (
    Window,
    grow_window,
    sync_gather,
    sync_tile_k_array,
    sync_tile_nc,
    unstable_bbox,
)

__all__ = ["ParallelFrontierStepper"]

#: relative cost of merely touching a tile vs. computing one cell
_TOUCH_COST = 1.0


def _minus(a: Window, b: Window) -> list[Window]:
    """Rectangle *a* less rectangle *b*, as at most four disjoint rectangles."""
    ay0, ay1, ax0, ax1 = a
    iy0, iy1 = max(ay0, b[0]), min(ay1, b[1])
    ix0, ix1 = max(ax0, b[2]), min(ax1, b[3])
    if iy0 >= iy1 or ix0 >= ix1:
        return [a]
    out = []
    if ay0 < iy0:
        out.append((ay0, iy0, ax0, ax1))
    if iy1 < ay1:
        out.append((iy1, ay1, ax0, ax1))
    if ax0 < ix0:
        out.append((iy0, iy1, ax0, ix0))
    if ix1 < ax1:
        out.append((iy0, iy1, ix1, ax1))
    return out


def _union(boxes) -> Window | None:
    """Bounding box of the ``(y0, y1, x0, x1)`` rows of *boxes* (y0 < 0: empty)."""
    live = [b for b in boxes.tolist() if b[0] >= 0]
    if not live:
        return None
    return (
        min(b[0] for b in live), max(b[1] for b in live),
        min(b[2] for b in live), max(b[3] for b in live),
    )


class _Geometry(NamedTuple):
    """How a step's window is cut into work: what a region worker needs."""

    height: int
    width: int
    tile_h: int
    tile_w: int
    k: int
    nbands: int
    compiled: bool

    def cover(self, window: Window) -> tuple[Window, int, int, int]:
        """``(cover, tiles, shares, tiles_per_share)`` of one step's *window*.

        ``k == 1``: the cover is the rectangle of the tiles the window
        intersects, and a share is one row of those tiles.  ``k > 1``: the
        cover is the window itself, and a share is one of its bands.
        """
        y0, y1, x0, x1 = window
        if self.k > 1:
            n = min(self.nbands, y1 - y0)
            return window, n, n, 1
        th, tw = self.tile_h, self.tile_w
        ty0, ty1 = y0 // th, -(-y1 // th)
        tx0, tx1 = x0 // tw, -(-x1 // tw)
        cover = (ty0 * th, min(ty1 * th, self.height), tx0 * tw, min(tx1 * tw, self.width))
        return cover, (ty1 - ty0) * (tx1 - tx0), ty1 - ty0, tx1 - tx0

    def rows(self, cover: Window, shares: int, lo: int, hi: int) -> list[tuple[int, int]]:
        """Interior row runs of shares ``[lo, hi)`` of *cover* (``lo < hi``):
        one merged run of tile rows (``k == 1``), or one run per band."""
        y0, y1 = cover[0], cover[1]
        if self.k > 1:
            return [(y0 + a, y0 + b) for a, b in (deal(y1 - y0, shares, j) for j in range(lo, hi))]
        return [(y0 + lo * self.tile_h, min(y0 + hi * self.tile_h, y1))]


def _frontier_region(ctx, args):
    """Region kernel: up to ``nsteps`` frontier steps on the shared planes.

    Runs in every participating worker (see the module docstring for the
    protocol); step *i* of the segment reads plane ``(live + i) % 2`` of
    the bound pair and writes the other.  Slot words: ``[step, bbox y0 y1
    x0 x1, cover y0 y1 x0 x1, sink deficit, tiles computed, tiles
    skipped, window cells]``, the last four summed from this attempt's
    first step.  Returns the window log of the steps this worker
    published and, when traced, their ``(step, start, end)`` times.
    """
    geo, base, live, step, nsteps, bbox, prev, traced = args
    p, w, planes = ctx.nworkers, ctx.wid, ctx.planes
    H, W, k = geo.height, geo.width, geo.k
    all_tiles = -(-H // geo.tile_h) * -(-W // geo.tile_w)
    div = np.empty_like(planes[0]) if k == 1 and not geo.compiled else None
    gather_k = sync_window_k if geo.compiled else sync_window_k_numpy
    log: list[tuple[int, Window, int]] = []
    times: list[tuple[int, float, float]] = []
    deficit = tiles = skipped = cells = 0
    while bbox is not None and step < nsteps:
        window = grow_window(bbox, H, W, k)
        # only a window touching the grid edge can lose grains to the sink
        border = window[0] == 0 or window[2] == 0 or window[1] == H or window[3] == W
        cover, ntiles, shares, _ = geo.cover(window)
        src, dst = planes[(live + step) % 2], planes[(live + step + 1) % 2]
        t0 = time.perf_counter() - ctx.epoch if traced else 0.0
        part = None
        try:
            ctx.check(step)
            if prev is not None and prev != cover:
                # cells that left the cover keep their value: carry it forward
                for y0, y1, x0, x1 in _minus(prev, cover):
                    lo, hi = deal(y1 - y0, p, w)
                    ys, xs = slice(y0 + lo + 1, y0 + hi + 1), slice(x0 + 1, x1 + 1)
                    dst[ys, xs] = src[ys, xs]
            lo, hi = deal(shares, p, w)
            if lo < hi:
                runs = geo.rows(cover, shares, lo, hi)
                x0, x1 = cover[2], cover[3]
                for r0, r1 in runs:
                    if k > 1:
                        gather_k(src, dst, r0, r1, x0, x1, k)
                    elif geo.compiled:
                        sync_window(src, dst, r0, r1, x0, x1)
                    else:
                        grown = (slice(r0, r1 + 2), slice(x0, x1 + 2))
                        np.right_shift(src[grown], 2, out=div[grown])
                        sync_gather(src, div, dst, (r0, r1, x0, x1))
                r0, r1 = max(runs[0][0], window[0]), min(runs[-1][1], window[1])
                part = unstable_bbox(dst[1:-1, 1:-1], (r0, r1, window[2], window[3]))
                if r0 < r1 and border:
                    ys, xs = slice(r0 + 1, r1 + 1), slice(window[2] + 1, window[3] + 1)
                    deficit += int(src[ys, xs].sum()) - int(dst[ys, xs].sum())
        except Exception:
            ctx.abort(step)
            if step + 1 < nsteps:
                ctx.wait(step)  # the others are waiting for this step: release them
            raise
        tiles += ntiles
        if k == 1:
            skipped += all_tiles - ntiles
        cells += (window[1] - window[0]) * (window[3] - window[2])
        slot = ctx.slot(step)
        slot[1:13] = (*(part or (-1, -1, -1, -1)), *cover, deficit, tiles, skipped, cells)
        slot[0] = step
        log.append((base + step * k, window, ntiles))
        if traced:
            times.append((step, t0, time.perf_counter() - ctx.epoch))
        prev = cover
        step += 1
        if step == nsteps or not ctx.wait(step - 1):
            break
        bbox = _union(ctx.slots(step - 1)[:, 1:5])
    return log, times


class _Segment:
    """Where a region segment stands: the next step, its bbox, the last cover."""

    __slots__ = ("step", "bbox", "prev")

    def __init__(self, bbox: Window | None, prev: Window | None) -> None:
        self.step = 0
        self.bbox = bbox
        self.prev = prev


class ParallelFrontierStepper:
    """Synchronous frontier stepper dispatching active tiles to a backend.

    Step-for-step equivalent to
    :class:`~repro.sandpile.vectorized.FrontierSyncStepper` (same iteration
    count, same fixpoint, same sink accounting), with the window's tile
    cover executed by the backend instead of one monolithic slice update.
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        use_compiled: bool = False,
        k: int = 1,
        nbands: int | None = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"fused step count k must be >= 1, got {k}")
        if nbands is not None and nbands < 1:
            raise ConfigurationError(f"nbands must be >= 1, got {nbands}")
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self.k = k
        #: band count for the fused (k > 1) decomposition; defaults to one
        #: band per backend worker so every worker owns one contiguous strip
        self.nbands = nbands if nbands is not None else max(
            1, getattr(self.backend, "nworkers", 1)
        )
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0
        self.window_cells = 0
        #: per-iteration ``(iteration, window, active_tiles)`` — the obs
        #: adapter turns this into frontier counter tracks
        self.window_log: list[tuple[int, Window, int]] = []
        self.use_compiled = use_compiled
        self._scratch = grid.data.copy()
        self._shared = False
        if getattr(self.backend, "uses_processes", False):
            plane0, plane1 = self.backend.bind_planes(grid.data, self._scratch)
            grid.swap_buffer(plane0)
            self._scratch = plane1
            self._shared = True
        #: True when :meth:`advance` runs a whole segment as one parallel
        #: region (the process backend); drivers then ask for segments
        self.segmented = self._shared
        #: which bound plane the grid holds (regions flip it), and the last
        #: region step's cover: outside it both planes hold the grid
        self._live = 0
        self._prev: Window | None = None
        self._geo = _Geometry(
            grid.height, grid.width, self.tiles.tile_h, self.tiles.tile_w,
            k, self.nbands, use_compiled,
        )
        # -- zero-rebuild caches: per-tile closures and specs, built once,
        # indexed by tile id; iterations only *select* from them
        kernel = "sync_tile_cnc" if use_compiled else "sync_tile_nc"
        self._band_kernel = "sync_tile_kc" if use_compiled else "sync_tile_k"
        self._all_tiles = list(self.tiles)
        self._tasks = [self._make_task(t) for t in self._all_tiles]
        # specs are built even off the process backend: the analysis layer
        # certifies the exact batches the stepper submits
        self._specs: list[TileTask] = [TileTask(kernel, 0, 1, t) for t in self._all_tiles]
        # the all-tiles batch is parameter-stable: the backend uses the
        # memoised static chunk plan for it, and frontier batches select from it
        self._full_batch = TaskBatch(self._tasks, tiles=self._all_tiles, spec=self._specs)
        self._bbox = unstable_bbox(grid.interior)

    def _make_task(self, tile: Tile):
        if self.use_compiled:
            def task() -> float:
                sync_window(self.grid.data, self._scratch, tile.y0, tile.y1, tile.x0, tile.x1)
                return _TOUCH_COST + tile.area
        else:
            def task() -> float:
                sync_tile_nc(self.grid.data, self._scratch, tile)
                return _TOUCH_COST + tile.area
        return task

    def _make_band_task(self, tile: Tile):
        k = self.k
        if self.use_compiled:
            def task() -> float:
                sync_window_k(self.grid.data, self._scratch, tile.y0, tile.y1, tile.x0, tile.x1, k)
                return _TOUCH_COST + tile.area
        else:
            def task() -> float:
                sync_tile_k_array(self.grid.data, self._scratch, tile, k)
                return _TOUCH_COST + tile.area
        return task

    def _band_batch_for(self, window: Window) -> tuple[TaskBatch, int]:
        """Fused-k batch over *window* cut into row bands."""
        tiles = band_tiles(window, self.nbands)
        kernel = self._band_kernel
        batch = TaskBatch(
            [self._make_band_task(t) for t in tiles],
            tiles=tiles,
            spec=[TileTask(kernel, 0, 1, t, arg=self.k) for t in tiles],
            dynamic=True,
        )
        return batch, len(tiles)

    def _batch_for(self, active: list[Tile]) -> TaskBatch:
        if len(active) == len(self._all_tiles):
            return self._full_batch
        return self._full_batch.subset([t.index for t in active])

    @property
    def planes(self) -> list:
        """The two framed planes the batches index (0 = live, 1 = scratch)."""
        return [self.grid.data, self._scratch]

    def reset(self) -> None:
        """Rescan the whole grid (e.g. after an external grid edit)."""
        np.copyto(self._scratch, self.grid.data)
        self._prev = None
        self._bbox = unstable_bbox(self.grid.interior)

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._scratch = self._scratch.copy()
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ParallelFrontierStepper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self) -> bool:
        """One step of *k* grid iterations; False once the grid is stable."""
        return self.advance(self.k) > 0

    def advance(self, limit: int) -> int:
        """Run up to *limit* grid iterations, ``ceil(limit / k)`` steps.

        Returns the grid iterations run (*k* per step); fewer steps than
        that means the grid reached its fixpoint.  On the process backend
        the steps run as one parallel region.
        """
        nsteps = -(-limit // self.k)
        if self._shared and self.backend.uses_processes:
            steps = self._run_region(nsteps)
        else:
            steps = 0
            while steps < nsteps and self._bbox is not None:
                self._step(self.iterations + steps * self.k)
                steps += 1
        # a call that finds the grid stable still counts its k, as a plain call does
        self.iterations += self.k * (steps + (steps < nsteps))
        return self.k * steps

    def _step(self, iteration: int) -> None:
        """One in-process step: a batch of the window's tiles, window copy-back."""
        grid = self.grid
        k = self.k
        window = grow_window(self._bbox, grid.height, grid.width, k)
        if k == 1:
            active = self.tiles.tiles_in_window(window)
            batch = self._batch_for(active)
            ntiles = len(active)
            self.tiles_skipped += len(self.tiles) - ntiles
        else:
            batch, ntiles = self._band_batch_for(window)
        self.tiles_computed += ntiles
        self.window_cells += (window[1] - window[0]) * (window[3] - window[2])
        self.window_log.append((iteration, window, ntiles))

        self.backend.run(batch, iteration=iteration)

        # window slices in frame coordinates
        y0, y1, x0, x1 = window
        ys = slice(y0 + 1, y1 + 1)
        xs = slice(x0 + 1, x1 + 1)
        live = grid.data
        new = self._scratch[ys, xs]
        old = live[ys, xs]
        if y0 == 0 or x0 == 0 or y1 == grid.height or x1 == grid.width:
            # net window deficit == grains that toppled into the sink frame
            # during all k fused sub-steps (no grain crosses the window rim:
            # activity at sub-step s stays inside the bbox grown by s <= k)
            grid.sink_absorbed += int(old.sum()) - int(new.sum())
        live[ys, xs] = new
        self._bbox = unstable_bbox(grid.interior, window)

    # -- the process backend: segments as parallel regions ------------------------

    def _run_region(self, nsteps: int) -> int:
        """Up to *nsteps* steps as one region on the process backend; returns the steps run.

        The grid then holds whichever plane the last step wrote, flipped
        in like a double-buffered stepper's, and :attr:`_prev` the cover
        outside which both planes agree, for the next segment to carry on.
        """
        if self._bbox is None or nsteps < 1:
            return 0
        geo = self._geo
        n = self.backend.nworkers
        if nsteps == 1:  # a one-step region needs only the workers with rows
            window = grow_window(self._bbox, geo.height, geo.width, geo.k)
            n = min(n, geo.cover(window)[2])
        seg = _Segment(self._bbox, self._prev)
        base, live = self.iterations, self._live
        traced = bool(self.backend.trace)

        def args():
            return (geo, base, live, seg.step, nsteps, seg.bbox, seg.prev, traced)

        def collect(m, slots, values):
            self._collect(seg, m, slots, values, n)

        done = self.backend.run_region(_frontier_region, args, collect, nworkers=n)
        if seg.step % 2:
            self._scratch = self.grid.swap_buffer(self._scratch)
            self._live ^= 1
        self._bbox, self._prev = seg.bbox, seg.prev
        if not done:
            # degraded to threads: the grid holds the last step every worker
            # published; the in-process steps never read scratch off their tiles
            while seg.step < nsteps and self._bbox is not None:
                self._step(base + seg.step * self.k)
                seg.step += 1
        return seg.step

    def _collect(self, seg: _Segment, m: int, slots: np.ndarray, values: list, p: int) -> None:
        """Advance *seg* to step *m*, the last step every worker published.

        Counters, sink and window log take that step's slots and any
        reply's log; if no worker replied (every one was lost), the
        window log misses the attempt's steps while the rest stays exact.
        """
        start = seg.step
        if m < start:
            return
        recs = slots[m % 2, :p]
        seg.bbox = _union(recs[:, 1:5])
        seg.prev = tuple(int(v) for v in recs[0, 5:9])
        self.grid.sink_absorbed += int(recs[:, 9].sum())
        self.tiles_computed += int(recs[0, 10])
        self.tiles_skipped += int(recs[0, 11])
        self.window_cells += int(recs[0, 12])
        seg.step = m + 1
        replied = [v for v in values if v is not None]
        if replied:
            entries = replied[0][0][: m + 1 - start]
            self.window_log.extend(entries)
            if self.backend.trace:
                self._record_region(entries, start, values, p)

    def _record_region(self, entries, start: int, values: list, p: int) -> None:
        """Record the tile spans of region steps, one batch per step.

        A worker times its whole share of a step; the share's tiles split
        that time evenly, in tile order, on the worker's lane.
        """
        times: dict[int, list[tuple[int, float, float]]] = {}
        for w, v in enumerate(values):
            for step, t0, t1 in v[1] if v is not None else ():
                times.setdefault(step, []).append((w, t0, t1))
        for step, (iteration, window, _) in enumerate(entries, start):
            rows = times.get(step)
            if not rows:
                continue
            _, _, shares, per = self._geo.cover(window)
            if self.k == 1:
                tiles = self.tiles.tiles_in_window(window)
            else:
                tiles = band_tiles(window, self.nbands)
            zero = min(t0 for _, t0, _ in rows)
            spans = []
            for w, t0, t1 in rows:
                lo, hi = deal(shares, p, w)
                dt = (t1 - t0) / max((hi - lo) * per, 1)
                for j, task in enumerate(range(lo * per, hi * per)):
                    spans.append(TaskSpan(task, w, t0 - zero + j * dt, t0 - zero + (j + 1) * dt))
            self.backend.record(spans, tiles, iteration)

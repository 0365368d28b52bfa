"""Parallel active frontier: frontier-aware steps on real workers.

PR 3's frontier steppers are ~4x faster than lazy but single-worker; the
process backend is multi-worker but steps the full tile grid.  This module
fuses them: each iteration, only the tiles intersecting the current dirty
bounding box (grown by one cell — the exactness invariant of the windowed
synchronous step) are computed, so work follows the bbox as it moves.

Key design points:

* **A parallel region around the fixpoint loop.**  A *segment* of up to
  ``limit`` grid iterations is one run of the region kernel
  :func:`_frontier_region` (``backend.run_region``), the OpenMP
  ``parallel`` region around the loop rather than a ``parallel for`` per
  iteration.  The participants step on their own over the two bound
  planes, ping-pong: step *i* reads plane ``i % 2`` and writes the
  other.  Each step, each participant computes its contiguous tile rows
  of the window's tile cover as one merged gather (``k == 1``) or its
  :func:`~repro.easypap.tiling.band_tiles` band(s) of the window as one
  fused trapezoid (``k > 1``), then copies forward its rows of the
  previous cover that left the cover, so both planes agree outside it;
  publishes its unstable bbox, sink deficit and counters to its slot,
  and meets the others at the barrier, after which every participant
  derives the same next window from the slots.  The segment ends at the
  fixpoint, at its step limit (the last step skips the barrier), or at
  a barrier where a participant voted to stop (its
  :class:`~repro.common.job.StopSignal` was requested or its time had
  passed), with one return value per participant carrying the window
  log (and the per-step times when the backend traces); the grid then
  takes the plane the last step wrote
  (:meth:`~repro.easypap.grid.Grid2D.swap_buffer`, as a double-buffered
  stepper flips), so no copy ever writes a plane a peer may still read,
  and the next segment carries on from the last cover, outside which
  both planes agree.
  :meth:`ParallelFrontierStepper.advance` runs one segment; a plain call
  is a one-step region that asks only for the participants with rows.
* **One kernel on every backend.**  On the process backend
  (:meth:`~repro.easypap.executor.ProcessBackend.run_region`) each worker
  is a participant, sent one ``region`` command per segment.  The
  sequential backend runs the same kernel in process, the calling thread
  its one participant computing every share of each step, and so does a
  process backend without ``fork`` or out of retries.  The region's
  row shares are what ``repro-check`` certifies
  (:func:`~repro.analysis.variants.certify_dynamic_frontier`).
* **Resume from the slots.**  If a worker dies, raises or stalls
  mid-segment, the backend rebuilds its set and the segment resumes from
  the last step every worker published: that step's output plane is only
  read by the next step, so re-running the next step is exact, and its
  slots carry the bbox, the cover and the counters to resume with.  When
  retries are exhausted the backend finishes the segment in process.
* **Optional compiled inner loop.**  With ``use_compiled=True`` shares
  run the ``sync_window``/``sync_window_k`` loops from
  :mod:`repro.sandpile.compiled` — numba-fused when the ``[compiled]``
  extra is installed, bit-identical pure NumPy otherwise.
* **Temporal blocking (``k > 1``).**  With fused step count *k* each
  step advances the grid *k* iterations: the window is the bbox grown by
  ``k`` (halo depth ``radius x k``), cut into ``nbands`` row bands (one
  per worker by default), each running the fused trapezoid of the
  ``sync_tile_k``/``sync_tile_kc`` tile kernels.  A step reports
  progress while the bbox is not empty, because a parallel sandpile can
  sit on a periodic orbit whose period divides ``k`` (``f^k(x) == x``
  with ``x`` unstable must not report a fixpoint).

``window_log`` records ``(iteration, window, active_tiles)`` per step so
the obs adapter can render the shrinking frontier as counter tracks next
to the worker lanes.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.easypap.executor import SequentialBackend
from repro.easypap.grid import Grid2D
from repro.easypap.schedule import TaskSpan
from repro.easypap.tiling import TileGrid, band_tiles, deal
from repro.sandpile.compiled import sync_window, sync_window_k, sync_window_k_numpy
from repro.sandpile.kernels import Window, grow_window, sync_gather, unstable_bbox

__all__ = ["ParallelFrontierStepper"]


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
            if step + 1 < nsteps:  # the others wait for this step: all leave after it
                ctx.wait(step, leave=True)
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


class ParallelFrontierStepper:
    """Synchronous frontier stepper running its steps as parallel regions.

    Step-for-step equivalent to
    :class:`~repro.sandpile.vectorized.FrontierSyncStepper` (same iteration
    count, same fixpoint, same sink accounting), with the window's tile
    cover split among the region's participants instead of one monolithic
    slice update.  *backend* is a
    :class:`~repro.easypap.executor.SequentialBackend` (the default: the
    region runs in process) or a
    :class:`~repro.easypap.executor.ProcessBackend`.
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
        plane0, self._scratch = self.backend.bind_planes(grid.data, grid.data.copy())
        #: True when the bound planes are shared memory, which close() leaves
        self._shared = plane0 is not grid.data
        grid.swap_buffer(plane0)
        #: which bound plane the grid holds (regions flip it), the last
        #: region step's cover (outside it both planes hold the grid), and
        #: the next step of the running region
        self._live = 0
        self._prev: Window | None = None
        self._step = 0
        self._geo = _Geometry(
            grid.height, grid.width, self.tiles.tile_h, self.tiles.tile_w,
            k, self.nbands, use_compiled,
        )
        self._bbox = unstable_bbox(grid.interior)

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

    def advance(self, limit: int, stop=None) -> int:
        """Run up to *limit* grid iterations, ``ceil(limit / k)`` steps, as one region.

        Returns the grid iterations run (*k* per step).  The region ends
        short of that at the fixpoint, or at a step boundary every
        participant agrees on once *stop* (a
        :class:`~repro.common.job.StopSignal`) is requested or its time
        has passed.
        """
        nsteps = -(-limit // self.k)
        steps = self._run_region(nsteps, stop)
        if steps < nsteps and self._bbox is None:
            # a call that finds the grid stable still counts its k, as a plain call does
            self.iterations += self.k
        return self.k * steps

    def _run_region(self, nsteps: int, stop=None) -> int:
        """Up to *nsteps* steps as one region; returns the steps run.

        The stepper is left at the last step every participant published,
        also when the region raises: :meth:`_collect` keeps its bbox, its
        cover (outside which both planes agree) and the counters, and the
        grid takes the plane it wrote, flipped in like a double-buffered
        stepper's.
        """
        if self._bbox is None or nsteps < 1:
            return 0
        geo = self._geo
        n = self.backend.nworkers
        if nsteps == 1:  # a one-step region needs only the workers with rows
            window = grow_window(self._bbox, geo.height, geo.width, geo.k)
            n = min(n, geo.cover(window)[2])
        self._step = 0
        base, live = self.iterations, self._live
        traced = bool(self.backend.trace)

        def args():
            return (geo, base, live, self._step, nsteps, self._bbox, self._prev, traced)

        try:
            self.backend.run_region(_frontier_region, args, self._collect, nworkers=n, stop=stop)
        finally:
            if self._step % 2:
                self._scratch = self.grid.swap_buffer(self._scratch)
                self._live ^= 1
            self.iterations += self.k * self._step
        return self._step

    def _collect(self, m: int, slots: np.ndarray, values: list) -> None:
        """Advance the region to step *m*, the last step every participant published.

        Counters, sink and window log take that step's slots and any
        participant's log (*values*: one per participant); if none
        replied (every worker was lost), the window log misses the
        attempt's steps while the rest stays exact.
        """
        start = self._step
        if m < start:
            return
        recs = slots[m % 2, : len(values)]
        self._bbox = _union(recs[:, 1:5])
        self._prev = tuple(int(v) for v in recs[0, 5:9])
        self.grid.sink_absorbed += int(recs[:, 9].sum())
        self.tiles_computed += int(recs[0, 10])
        self.tiles_skipped += int(recs[0, 11])
        self.window_cells += int(recs[0, 12])
        self._step = m + 1
        replied = [v for v in values if v is not None]
        if replied:
            entries = replied[0][0][: m + 1 - start]
            self.window_log.extend(entries)
            if self.backend.trace:
                self._record_region(entries, start, values)

    def _record_region(self, entries, start: int, values: list) -> None:
        """Record the tile spans of region steps, one batch per step.

        A participant times its whole share of a step; the share's tiles
        split that time evenly, in tile order, on the participant's lane.
        """
        p = len(values)
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

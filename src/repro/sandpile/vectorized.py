"""Whole-grid vectorised steppers, frontier (bounding-box) steppers, and
the in-process tiled steppers: ``tiled``/``lazy`` and the inner/outer split.

Assignment 3's SIMD lesson: "outer tiles need special attention, because
they contain border cells which should not be computed (sink)...  students
are invited to implement a separate variant for inner tiles to enable
aggressive compiler optimisations".  In numpy terms the analogue is: inner
tiles run a branch-free slice expression, outer tiles the careful path
(here the same expression — the frame makes it safe — but routed separately
so the split's bookkeeping and benchmarks mirror the C exercise).

No synchronous stepper here writes the sink frame: each drains it once,
when built.  ``vec``, ``split`` and ``tiled`` share one whole-interior
step (:func:`~repro.sandpile.kernels.sync_whole_step`), and all but
``lazy``, whose flags need the per-tile diff, read whether a step changed
the grid off its ``>> 2`` plane
(:func:`~repro.sandpile.kernels.sync_changed`), not by comparing planes.

In C a tile is a cache-sized loop nest; in NumPy one call per tile pays
the interpreter once per tile, which on small tiles costs more than the
arithmetic.  So the in-process tiled steppers keep the tile decomposition
for what it decides — which tiles compute, the skip counters, the lazy
change flags, the tile spans — and do the arithmetic over merged
rectangles of tiles, a few :func:`sync_gather` calls per iteration.

The frontier steppers realise the "as fast as the hardware allows" goal of
assignment 2 at the whole-grid level: activity moves at most one cell per
iteration, so the bounding box of unstable cells, grown by one, bounds
everything the next step can touch.  Tracking that box and slicing every
update (and the sink accounting) to it is exact — bit-identical fixpoints
— while making concentrated configurations like Fig. 1a's centre pile
asymptotically cheaper than full-grid sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.easypap.grid import Grid2D
from repro.easypap.executor import add_tile_span
from repro.easypap.tiling import TileGrid
from repro.obs.tracer import Tracer
from repro.sandpile.kernels import (
    Window,
    async_sweep,
    grow_window,
    share_views,
    sync_gather,
    sync_step,
    sync_whole_step,
    unstable_bbox,
)
from repro.sandpile.lazy import LazyFlags
from repro.sandpile.omp import _TOUCH_COST

__all__ = [
    "SyncVecStepper",
    "AsyncVecStepper",
    "FrontierSyncStepper",
    "FrontierAsyncStepper",
    "SplitSyncStepper",
    "MergedTiledStepper",
]


class SyncVecStepper:
    """Whole-grid synchronous stepper (variant ``vec``).

    One :func:`sync_whole_step` of the whole interior into the other
    plane, through views of a reused ``>> 2`` plane sliced once, then the
    planes swap.  The step never writes the sink frame, so the frame
    drained at construction stays empty on both planes.
    """

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        grid.drain_sink()
        self._scratch = np.zeros_like(grid.data)
        self._div = np.empty_like(grid.data)
        self._shares = (share_views(self._div, (0, grid.height, 0, grid.width)),)
        self.iterations = 0

    def __call__(self) -> bool:
        changed = sync_whole_step(self.grid, self._scratch, self._div, self._shares)
        self._scratch = self.grid.swap_buffer(self._scratch)
        self.iterations += 1
        return changed


class AsyncVecStepper:
    """Whole-grid asynchronous stepper (variant ``avec``): one topple sweep per call."""

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        grid.drain_sink()
        self.iterations = 0

    def __call__(self) -> bool:
        changed = async_sweep(self.grid)
        self.iterations += 1
        return changed


class FrontierSyncStepper:
    """Synchronous stepper sliced to the active frontier (variant ``frontier``).

    Tracks the bounding box of unstable cells across iterations; each step
    computes only that box grown by one cell (exact: topplers sit strictly
    inside the window, receivers inside it too, so cells outside cannot
    change): :func:`sync_step` with the window, shifting it once into a
    reused ``>> 2`` plane.  The next box is rescanned *within* the old
    window only, so per-iteration cost is O(window), not O(grid).

    ``window_cells`` accumulates the number of cells actually computed —
    divide by ``iterations * H * W`` for the fraction of full-grid work
    the frontier avoided.
    """

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self._scratch = np.empty_like(grid.data)
        self._div = np.empty_like(grid.data)
        self.iterations = 0
        self.window_cells = 0
        self.reset()

    def reset(self) -> None:
        """Drain the sink frame and rescan the whole grid (e.g. after an
        external grid edit)."""
        self.grid.drain_sink()
        self._bbox = unstable_bbox(self.grid.interior)

    def __call__(self) -> bool:
        bbox = self._bbox
        self.iterations += 1
        if bbox is None:
            # no unstable cell anywhere: the synchronous step is the identity
            return False
        grid = self.grid
        window = grow_window(bbox, grid.height, grid.width)
        changed = sync_step(grid, out=self._scratch, window=window, div=self._div)
        self.window_cells += (window[1] - window[0]) * (window[3] - window[2])
        self._bbox = unstable_bbox(grid.interior, window)
        return changed


class FrontierAsyncStepper:
    """Asynchronous topple sweeps sliced to the active frontier.

    Same bounding-box tracking as :class:`FrontierSyncStepper`, applied to
    the in-place scatter sweep: the window is the unstable box itself (the
    scatter's offset slices already write into the one-cell halo), and the
    rescan after the sweep covers the box grown by one.
    """

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self.iterations = 0
        self.window_cells = 0
        self.reset()

    def reset(self) -> None:
        """Drain the sink frame and rescan the whole grid (e.g. after an
        external grid edit)."""
        self.grid.drain_sink()
        self._bbox = unstable_bbox(self.grid.interior)

    def __call__(self) -> bool:
        bbox = self._bbox
        self.iterations += 1
        if bbox is None:
            return False
        grid = self.grid
        changed = async_sweep(grid, window=bbox)
        self.window_cells += (bbox[1] - bbox[0]) * (bbox[3] - bbox[2])
        self._bbox = unstable_bbox(grid.interior, grow_window(bbox, grid.height, grid.width))
        return changed


class SplitSyncStepper:
    """Synchronous tiled stepper with distinct inner/outer tile paths.

    Inner tiles (no sink contact) take the fast path: together they form
    one rectangle, updated in one gather.  Outer tiles take the careful
    path: the border strips they form, one by one, after it.  Both are
    windows of one :func:`sync_whole_step`, reading one ``>> 2`` plane
    through views sliced once, and the planes swap instead of copying the
    interior back.  Counters expose how many tiles ran on each path, which
    the A3 benchmark reports.
    """

    def __init__(self, grid: Grid2D, tile_size: int = 32) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        # the planes swap and no gather writes a frame: both frames start,
        # and so stay, empty
        grid.drain_sink()
        self._scratch = np.zeros_like(grid.data)
        self._div = np.empty_like(grid.data)
        self._inner = self.tiles.inner_tiles()
        self._outer = self.tiles.outer_tiles()
        outer = np.zeros((self.tiles.tiles_y, self.tiles.tiles_x), dtype=bool)
        for t in self._outer:
            outer[t.ty, t.tx] = True
        # the tile set never changes: the inner rectangle (none when every
        # tile touches the edge), then up to four border strips
        windows = self.tiles.merged_windows(~outer) + self.tiles.merged_windows(outer)
        self._shares = tuple(share_views(self._div, w) for w in windows)
        self.iterations = 0
        self.inner_tile_updates = 0
        self.outer_tile_updates = 0

    def __call__(self) -> bool:
        changed = sync_whole_step(self.grid, self._scratch, self._div, self._shares)
        self.inner_tile_updates += len(self._inner)
        self.outer_tile_updates += len(self._outer)
        self._scratch = self.grid.swap_buffer(self._scratch)
        self.iterations += 1
        return changed


class MergedTiledStepper:
    """In-process ``tiled`` and ``lazy`` synchronous stepper.

    The tile decomposition decides which cells an iteration computes and
    what it reports; the work itself runs in a few NumPy calls.  With every
    tile active the whole interior is updated as ``vec`` updates it
    (:func:`sync_whole_step`); otherwise the active tiles are merged into
    rectangles (:meth:`TileGrid.merged_windows`) and each rectangle is one
    :func:`sync_gather` from a ``>> 2`` plane shifted once over their
    bounding box.

    What the tiles teach stays per tile: the ``tiles_computed`` and
    ``tiles_skipped`` counters, the :class:`LazyFlags` change tracking, and,
    with a *trace*, one tile span per computed tile, as
    :class:`~repro.easypap.executor.SequentialBackend` records a tile batch
    (row-major tasks on worker 0, each costing one touch plus its area,
    every iteration starting where the previous one ended).

    Skipped tiles are never written, and neither is the sink frame, which
    is drained at construction.  The planes swap every iteration, so
    the scratch plane holds the state of two iterations back; a tile is
    skipped only when it did not change in the previous iteration, so that
    older state already equals the current one there.  An edit to the grid
    between calls therefore needs ``lazy_flags.reset()``, as the lazy
    flags themselves do.  With every tile computed (``tiled``), the shift
    plane answers the change test in one call (see :func:`sync_changed`);
    ``lazy`` needs its per-tile diff for the flags anyway, and a step
    that skips tiles counts its sink loss as its box's grain deficit.

    :class:`~repro.sandpile.omp.TiledSyncStepper` runs the same variants
    one task per tile on any executor backend (the ``omp`` variant).
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        lazy: bool = False,
        trace: Tracer | None = None,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        self.trace = trace
        #: where the next iteration's tile spans start (batch time, as recorded
        #: by the executor backends)
        self._timeline_end = 0.0
        grid.drain_sink()
        self._scratch = grid.data.copy()
        self._div = np.empty_like(grid.data)
        self._whole = (share_views(self._div, (0, grid.height, 0, grid.width)),)
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0

    def __call__(self) -> bool:
        grid = self.grid
        src, dst, div = grid.data, self._scratch, self._div
        ntiles = len(self.tiles)
        flags = self.lazy_flags
        need, active = (None, ntiles) if flags is None else flags.active_mask()
        self.tiles_computed += active
        self.tiles_skipped += ntiles - active
        box = None
        if active == ntiles:
            changed = sync_whole_step(grid, dst, div, self._whole)
        else:
            windows = self.tiles.merged_windows(need)
            box = _bounding_box(windows)
            if box is not None:
                y0, y1, x0, x1 = box
                grown = (slice(y0, y1 + 2), slice(x0, x1 + 2))
                np.right_shift(src[grown], 2, out=div[grown])
                for window in windows:
                    sync_gather(src, div, dst, window)
        if self.trace:
            self._record(need)

        if flags is not None:
            # lazy: the flags need the per-tile diff, which also answers the change test
            flags.mark_from_diff(src, dst)
            changed = flags.advance()
            if changed and box is not None:
                # cells outside the box are equal on both planes
                grid.sink_absorbed += int(_view(src, box).sum()) - int(_view(dst, box).sum())
        self._scratch = grid.swap_buffer(dst)
        self.iterations += 1
        return changed

    def _record(self, need: np.ndarray | None) -> None:
        tiles = self.tiles
        order = range(len(tiles)) if need is None else np.flatnonzero(need).tolist()
        t0, t = self._timeline_end, 0.0
        for task, index in enumerate(order):
            tile = tiles[index]
            cost = _TOUCH_COST + tile.area
            add_tile_span(
                self.trace, iteration=self.iterations, task=task, worker=0,
                start=t0 + t, end=t0 + (t + cost), tile_ty=tile.ty, tile_tx=tile.tx,
            )
            t += cost
        self._timeline_end = t0 + t


def _view(plane: np.ndarray, window: Window) -> np.ndarray:
    """The interior *window* of a framed plane."""
    y0, y1, x0, x1 = window
    return plane[y0 + 1 : y1 + 1, x0 + 1 : x1 + 1]


def _bounding_box(windows: list[Window]) -> Window | None:
    if not windows:
        return None
    if len(windows) == 1:
        return windows[0]
    return (
        min(w[0] for w in windows),
        max(w[1] for w in windows),
        min(w[2] for w in windows),
        max(w[3] for w in windows),
    )

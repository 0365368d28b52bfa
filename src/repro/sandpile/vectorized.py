"""Whole-grid vectorised steppers, frontier (bounding-box) steppers, and
the in-process tiled steppers: ``tiled``/``lazy`` and the inner/outer split.

Assignment 3's SIMD lesson: "outer tiles need special attention, because
they contain border cells which should not be computed (sink)...  students
are invited to implement a separate variant for inner tiles to enable
aggressive compiler optimisations".  In numpy terms the analogue is: inner
tiles run a branch-free slice expression, outer tiles the careful path
(here the same expression — the frame makes it safe — but routed separately
so the split's bookkeeping and benchmarks mirror the C exercise; the
fast path skips the changed-test that the careful path performs).

In C a tile is a cache-sized loop nest; in NumPy one call per tile pays
the interpreter once per tile, which on small tiles costs more than the
arithmetic.  So the in-process tiled steppers keep the tile decomposition
for what it decides — which tiles compute, the skip counters, the lazy
change flags, the trace rows — and do the arithmetic over merged
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
from repro.easypap.monitor import TaskRecord, Trace
from repro.easypap.tiling import TileGrid
from repro.sandpile.kernels import (
    Window,
    async_sweep,
    grow_window,
    sink_loss,
    sync_gather,
    sync_step,
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
    """Whole-grid synchronous stepper (variant ``vec``) with a reused scratch buffer."""

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self._scratch = np.empty_like(grid.data)
        self.iterations = 0

    def __call__(self) -> bool:
        changed = sync_step(self.grid, out=self._scratch)
        self.iterations += 1
        return changed


class AsyncVecStepper:
    """Whole-grid asynchronous stepper (variant ``avec``): one topple sweep per call."""

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
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
    change).  The next box is rescanned *within* the old window only, so
    per-iteration cost is O(window), not O(grid).

    ``window_cells`` accumulates the number of cells actually computed —
    divide by ``iterations * H * W`` for the fraction of full-grid work
    the frontier avoided.
    """

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self._scratch = np.empty_like(grid.data)
        self._bbox = unstable_bbox(grid.interior)
        self.iterations = 0
        self.window_cells = 0

    def reset(self) -> None:
        """Rescan the whole grid (e.g. after an external grid edit)."""
        self._bbox = unstable_bbox(self.grid.interior)

    def __call__(self) -> bool:
        bbox = self._bbox
        self.iterations += 1
        if bbox is None:
            # no unstable cell anywhere: the synchronous step is the identity
            return False
        grid = self.grid
        window = grow_window(bbox, grid.height, grid.width)
        changed = sync_step(grid, out=self._scratch, window=window)
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
        self._bbox = unstable_bbox(grid.interior)
        self.iterations = 0
        self.window_cells = 0

    def reset(self) -> None:
        """Rescan the whole grid (e.g. after an external grid edit)."""
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
    one rectangle, updated in one gather with no change test.  Outer tiles
    take the careful path: the border strips they form are gathered one by
    one and change-tested until one has changed, and the inner rectangle is
    compared only when no strip changed.  Both paths read one shared
    ``>> 2`` plane, and the planes swap instead of copying the interior
    back.  Counters expose how many tiles ran on each path, which the A3
    benchmark reports.
    """

    def __init__(self, grid: Grid2D, tile_size: int = 32) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        # the planes swap, and drain_sink counts whatever the live plane's
        # frame holds: the scratch frame must start at zero
        self._scratch = np.zeros_like(grid.data)
        self._div = np.empty_like(grid.data)
        self._inner = self.tiles.inner_tiles()
        self._outer = self.tiles.outer_tiles()
        outer = np.zeros((self.tiles.tiles_y, self.tiles.tiles_x), dtype=bool)
        for t in self._outer:
            outer[t.ty, t.tx] = True
        # the tile set never changes: one inner rectangle (none when every
        # tile touches the edge) and up to four border strips
        self._inner_windows = self.tiles.merged_windows(~outer)
        self._outer_windows = self.tiles.merged_windows(outer)
        self.iterations = 0
        self.inner_tile_updates = 0
        self.outer_tile_updates = 0

    def __call__(self) -> bool:
        grid = self.grid
        src, dst, div = grid.data, self._scratch, self._div
        np.right_shift(src, 2, out=div)

        for window in self._inner_windows:
            sync_gather(src, div, dst, window)
        self.inner_tile_updates += len(self._inner)

        changed = False
        for window in self._outer_windows:
            new = sync_gather(src, div, dst, window)
            changed = changed or bool((new != _view(src, window)).any())
        self.outer_tile_updates += len(self._outer)

        if not changed:
            changed = any(
                bool((_view(dst, window) != _view(src, window)).any())
                for window in self._inner_windows
            )

        if changed:
            grid.sink_absorbed += sink_loss(div)
        self._scratch = grid.swap_buffer(dst)
        grid.drain_sink()
        self.iterations += 1
        return changed


class MergedTiledStepper:
    """In-process ``tiled`` and ``lazy`` synchronous stepper.

    The tile decomposition decides which cells an iteration computes and
    what it reports; the work itself runs in a few NumPy calls.  The active
    tiles are merged into rectangles (:meth:`TileGrid.merged_windows`) and
    each rectangle is one :func:`sync_gather` from a ``>> 2`` plane shifted
    once over their bounding box.  With every tile active that is a single
    whole-interior gather, as in :func:`sync_step`.

    What the tiles teach stays per tile: the ``tiles_computed`` and
    ``tiles_skipped`` counters, the :class:`LazyFlags` change tracking, and,
    with a *trace*, one :class:`TaskRecord` per computed tile, as
    :class:`~repro.easypap.executor.SequentialBackend` records a tile batch
    (row-major tasks on worker 0, each costing one touch plus its area).

    Skipped tiles are never written.  The planes swap every iteration, so
    the scratch plane holds the state of two iterations back; a tile is
    skipped only when it did not change in the previous iteration, so that
    older state already equals the current one there.  An edit to the grid
    between calls therefore needs ``lazy_flags.reset()``, as the lazy
    flags themselves do.

    :class:`~repro.sandpile.omp.TiledSyncStepper` runs the same variants
    one task per tile on any executor backend (the ``omp`` variant).
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        lazy: bool = False,
        trace: Trace | None = None,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        self.trace = trace
        self._scratch = grid.data.copy()
        self._div = np.empty_like(grid.data)
        self._whole = [(0, grid.height, 0, grid.width)]
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
        windows = self._whole if active == ntiles else self.tiles.merged_windows(need)
        box = _bounding_box(windows)
        if box is not None:
            y0, y1, x0, x1 = box
            np.right_shift(src[y0 : y1 + 2, x0 : x1 + 2], 2, out=div[y0 : y1 + 2, x0 : x1 + 2])
            for window in windows:
                sync_gather(src, div, dst, window)
        if self.trace is not None:
            self._record(need)

        if flags is None:
            changed = bool((_view(dst, box) != _view(src, box)).any())
        else:
            flags.mark_from_diff(src, dst)
            changed = flags.advance()
        if changed:
            # cells outside the box are equal on both planes
            grid.sink_absorbed += int(_view(src, box).sum()) - int(_view(dst, box).sum())
        self._scratch = grid.swap_buffer(dst)
        grid.drain_sink()
        self.iterations += 1
        return changed

    def _record(self, need: np.ndarray | None) -> None:
        tiles = self.tiles
        order = range(len(tiles)) if need is None else np.flatnonzero(need).tolist()
        t = 0.0
        for task, index in enumerate(order):
            tile = tiles[index]
            cost = _TOUCH_COST + tile.area
            self.trace.add(
                TaskRecord(self.iterations, task, 0, t, t + cost, "compute", tile.ty, tile.tx)
            )
            t += cost


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

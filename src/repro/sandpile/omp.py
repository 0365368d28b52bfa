"""Tiled steppers with OpenMP-style parallel execution.

This module realises assignments 1-2: tile the stencil, run the tiles under
an OpenMP-like scheduling policy, optionally skip steady tiles (lazy).

Two families:

* :class:`TiledSyncStepper` — synchronous: tiles are pure gathers from the
  previous state into a scratch array, hence mutually independent; any
  schedule is safe ("can be easily parallelized").
* :class:`TiledAsyncStepper` — asynchronous: a tile's relaxation writes
  into its one-cell halo, so edge-adjacent tiles conflict.  Following the
  paper's "multi-wave task scheduling policies", tiles are partitioned into
  four checkerboard waves ``(ty % 2, tx % 2)``; tiles within one wave are
  write-disjoint and run in parallel, waves run in sequence.

Per-tile *work* is reported as the task's return value so the simulated
backend places tasks deterministically: a computed sync tile costs its
area (plus a touch overhead), an async tile costs ``rounds x area``.

Both steppers also speak the :class:`~repro.easypap.executor.ProcessBackend`
protocol: when the backend advertises ``uses_processes``, the grid buffers
are rebound onto shared memory at construction and each batch additionally
carries a picklable :class:`~repro.easypap.executor.BatchSpec` (closures
cannot cross a process boundary; changed flags come back through
``ScheduleResult.returns`` instead).  Steppers owning such a backend hold
OS resources — call :meth:`close` (or rely on
:func:`~repro.sandpile.simulate.run_to_fixpoint`, which always does).

**Zero-rebuild batches**: task closures and the all-tiles ``TaskBatch``
objects are built once at construction and reused every iteration — only
the src/dst plane *parity* alternates (two pre-built batches), so no
per-iteration task construction remains on the hot path.  Closures read
the live planes through the stepper (``self._cur_src``/``self._cur_dst``),
which is what makes them reusable across plane flips.
"""

from __future__ import annotations

from repro.easypap.executor import BatchSpec, SequentialBackend, TaskBatch
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import Tile, TileGrid
from repro.sandpile.kernels import async_tile_relax, sync_tile, sync_tile_nc
from repro.sandpile.lazy import LazyFlags

__all__ = ["TiledSyncStepper", "TiledAsyncStepper", "wave_partition"]

#: relative cost of merely touching a tile vs. computing one cell
_TOUCH_COST = 1.0


def wave_partition(tiles: list[Tile]) -> list[list[Tile]]:
    """Partition tiles into <= 4 checkerboard waves safe for async updates."""
    waves: dict[tuple[int, int], list[Tile]] = {}
    for t in tiles:
        waves.setdefault((t.ty % 2, t.tx % 2), []).append(t)
    return [waves[k] for k in sorted(waves)]


class TiledSyncStepper:
    """Synchronous tiled stepper; one parallel batch of tile tasks per iteration."""

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        lazy: bool = False,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        # no tile writes the sink frame: drained now, it stays empty on both planes
        grid.drain_sink()
        self._scratch = grid.data.copy()
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0
        self._shared = False
        self._src_plane = 0
        if getattr(self.backend, "uses_processes", False):
            # move both planes into shared memory so worker processes see them
            plane0, plane1 = self.backend.bind_planes(grid.data, self._scratch)
            grid.swap_buffer(plane0)
            self._scratch = plane1
            self._shared = True
        # -- zero-rebuild caches: closures and all-tiles batches are built
        # once; iterations only alternate the plane parity
        self._all_tiles = list(self.tiles)
        self._changed_flags: dict[int, bool] = {}
        self._cur_src = grid.data
        self._cur_dst = self._scratch
        self._tasks = [self._make_task(t) for t in self._all_tiles]
        kernel, geometry = "sync_tile_nc" if lazy else "sync_tile", self.tiles.geometry
        specs = (
            (BatchSpec(kernel, 0, 1, geometry), BatchSpec(kernel, 1, 0, geometry))
            if self._shared
            else (None, None)
        )
        self._full_batches = [
            TaskBatch(self._tasks, tiles=self._all_tiles, spec=spec) for spec in specs
        ]

    def _make_task(self, tile: Tile):
        if self.lazy_flags is not None:
            # lazy path: change detection happens once per batch, vectorised
            # (LazyFlags.mark_from_diff), so the kernel skips its .any()
            def task() -> float:
                sync_tile_nc(self._cur_src, self._cur_dst, tile)
                return _TOUCH_COST + tile.area
        else:
            def task() -> float:
                self._changed_flags[tile.index] = sync_tile(self._cur_src, self._cur_dst, tile)
                return _TOUCH_COST + tile.area
        return task

    def _batch_for(self, active: list[Tile]) -> TaskBatch:
        full = self._full_batches[self._src_plane]
        if len(active) == len(self._all_tiles):
            return full
        # a lazily-selected partial is a subset of the all-tiles batch: it
        # plans outside the static-plan LRU and ships as index spans of tiles
        return full.subset([t.index for t in active])

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._scratch = self._scratch.copy()
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def _active_tiles(self) -> list[Tile]:
        if self.lazy_flags is None:
            return self._all_tiles
        return self.lazy_flags.active_tiles()

    def __call__(self) -> bool:
        src = self.grid.data
        dst = self._scratch
        self._cur_src = src
        self._cur_dst = dst
        active = self._active_tiles()
        self.tiles_computed += len(active)
        self.tiles_skipped += len(self.tiles) - len(active)
        # Skipped tiles keep their old contents: copy them wholesale first.
        # (Cheaper: copy everything, then overwrite active tiles.)
        if len(active) < len(self.tiles):
            dst[...] = src
        self._changed_flags.clear()

        batch = self._batch_for(active)
        result = self.backend.run(batch, iteration=self.iterations)

        if self.lazy_flags is not None:
            # one vectorised diff over the active frontier replaces both the
            # per-tile change tests and the per-tile mark() loop
            self.lazy_flags.mark_from_diff(src, dst)
            changed = self.lazy_flags.advance()
        else:
            if result.returns is not None:
                for t, ret in zip(active, result.returns):
                    self._changed_flags[t.index] = bool(ret)
            changed = any(self._changed_flags.values())
        # Account grains that toppled off the edge before flipping planes.
        if changed:
            lost = int(src[1:-1, 1:-1].sum()) - int(dst[1:-1, 1:-1].sum())
            self.grid.sink_absorbed += lost
        # Swap the planes: dst becomes the live state.
        self._scratch = self.grid.swap_buffer(self._scratch)
        if self._shared:
            self._src_plane = 1 - self._src_plane
        self.iterations += 1
        return changed


class TiledAsyncStepper:
    """Asynchronous tiled stepper with 4-colour wave scheduling.

    Each active tile is relaxed to internal stability in place
    (:func:`async_tile_relax`); grains pushed into a neighbouring tile make
    that tile active next iteration (tracked exactly by comparing the
    neighbour-halo contributions, conservatively via the lazy flags).
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        lazy: bool = False,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        grid.drain_sink()
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0
        self._shared = False
        if getattr(self.backend, "uses_processes", False):
            # the async kernel is in-place: a single shared plane suffices
            (plane,) = self.backend.bind_planes(grid.data)
            grid.swap_buffer(plane)
            self._shared = True
        # -- zero-rebuild caches (the async kernel is in-place, so the spec
        # planes never alternate and the all-tiles waves are fully static)
        self._all_tiles = list(self.tiles)
        self._changed_flags: dict[int, bool] = {}
        self._tasks = [self._make_task(t) for t in self._all_tiles]
        self._spec = (
            BatchSpec("async_tile_relax", 0, 0, self.tiles.geometry) if self._shared else None
        )
        waves = wave_partition(self._all_tiles)
        self._full_wave_batches = [self._wave_batch(w) for w in waves]
        #: tile index -> (wave, position of the tile in that wave's batch)
        self._wave_slot = {
            t.index: (w, i) for w, wave in enumerate(waves) for i, t in enumerate(wave)
        }

    def _make_task(self, tile: Tile):
        def task() -> float:
            rounds = async_tile_relax(self.grid, tile)
            self._changed_flags[tile.index] = rounds > 0
            return _TOUCH_COST + rounds * tile.area
        return task

    def _wave_batch(self, wave: list[Tile]) -> TaskBatch:
        return TaskBatch([self._tasks[t.index] for t in wave], tiles=wave, spec=self._spec)

    def _wave_batches(self, active: list[Tile]) -> list[TaskBatch]:
        if len(active) == len(self._all_tiles):
            return self._full_wave_batches
        # a lazily-selected wave is a subset of its full wave
        picks: list[list[int]] = [[] for _ in self._full_wave_batches]
        for t in active:
            w, i = self._wave_slot[t.index]
            picks[w].append(i)
        return [self._full_wave_batches[w].subset(p) for w, p in enumerate(picks) if p]

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def _active_tiles(self) -> list[Tile]:
        if self.lazy_flags is None:
            return self._all_tiles
        return self.lazy_flags.active_tiles()

    def __call__(self) -> bool:
        active = self._active_tiles()
        self.tiles_computed += len(active)
        self.tiles_skipped += len(self.tiles) - len(active)
        self._changed_flags.clear()

        for batch in self._wave_batches(active):
            result = self.backend.run(batch, iteration=self.iterations)
            if result.returns is not None:
                for t, rounds in zip(batch.tiles, result.returns):
                    self._changed_flags[t.index] = rounds > 0
        changed = any(self._changed_flags.values())

        if self.lazy_flags is not None:
            for t in active:
                self.lazy_flags.mark(t, self._changed_flags.get(t.index, False))
            self.lazy_flags.advance()
        self.grid.drain_sink()
        self.iterations += 1
        return changed

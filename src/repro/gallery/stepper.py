"""Generic double-buffered tiled stepper for gallery kernels.

The sandpile steppers in :mod:`repro.sandpile.omp` are specialised (lazy
flags, sink accounting, wave partitions); gallery kernels only need the
core shape — tile the interior, run one batch of pure gather tasks per
iteration through a backend, flip the planes.  The tasks use the kernel
*registry* (``TileTask`` + :func:`~repro.easypap.executor.get_tile_kernel`)
rather than direct calls, so a stepper exercises exactly the code path the
symbolic certifier reasons about.  On worker processes the planes move
into shared memory and each batch carries a
:class:`~repro.easypap.executor.BatchSpec`, as the ``omp`` steppers do.
"""

from __future__ import annotations

import numpy as np

from repro.easypap.executor import (
    BatchSpec,
    SequentialBackend,
    TaskBatch,
    TileTask,
    get_tile_kernel,
)
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import TileGrid

__all__ = ["TiledKernelStepper"]


class TiledKernelStepper:
    """Run a registered double-buffered tile kernel over every tile.

    The kernel must be a pure gather: read source plane, write only its own
    tile on the destination plane (the certifier enforces this — see
    ``repro-check symbolic``).  Tasks and batches are built once; iterations
    rebind ``_cur_src``/``_cur_dst`` and swap buffers, following the
    zero-rebuild idiom of :class:`~repro.sandpile.omp.TiledSyncStepper`.
    """

    def __init__(
        self,
        grid: Grid2D,
        kernel: str,
        tile_size: int = 32,
        *,
        backend=None,
    ) -> None:
        self.grid = grid
        self.kernel = kernel
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self._fn = get_tile_kernel(kernel)
        self._scratch = grid.data.copy()
        self._shared = False
        #: the plane the live grid is on (0 or 1): which batch runs next
        self._src_plane = 0
        if getattr(self.backend, "uses_processes", False):
            # move both planes into shared memory so worker processes see them
            plane0, plane1 = self.backend.bind_planes(grid.data, self._scratch)
            grid.swap_buffer(plane0)
            self._scratch = plane1
            self._shared = True
        self._cur_src = grid.data
        self._cur_dst = self._scratch
        self.iterations = 0
        self.tiles_computed = 0
        all_tiles = list(self.tiles)

        def make_task(spec: TileTask):
            def task() -> float:
                self._fn([self._cur_src, self._cur_dst], spec)
                return float(spec.tile.area)

            return task

        tasks = [make_task(TileTask(kernel, 0, 1, t)) for t in all_tiles]
        geometry = self.tiles.geometry
        self._batches = [
            TaskBatch(tasks, tiles=all_tiles, spec=BatchSpec(kernel, src, 1 - src, geometry))
            for src in (0, 1)
        ]

    def __call__(self) -> bool:
        self._cur_src = self.grid.data
        self._cur_dst = self._scratch
        self.backend.run(self._batches[self._src_plane], iteration=self.iterations)
        self.tiles_computed += len(self.tiles)
        changed = not np.array_equal(
            self._cur_dst[1:-1, 1:-1], self._cur_src[1:-1, 1:-1]
        )
        self._scratch = self.grid.swap_buffer(self._scratch)
        if self._shared:
            self._src_plane = 1 - self._src_plane
        self.iterations += 1
        return changed

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._scratch = self._scratch.copy()
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

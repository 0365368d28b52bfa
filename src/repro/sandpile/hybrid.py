"""Hybrid CPU+GPU execution with dynamic load balancing (assignment 4).

The grid is split along rows: tiles above the split line run on CPU
workers (under a scheduling policy, in virtual time), tiles below run on
the simulated device as one batched launch.  After every iteration the
split is nudged towards equalising the two sides' virtual times — the
"smart dynamic algorithm to load balance between CPUs and GPUs" the
paper's feedback section credits the best students with.

Both sides compute synchronously from the same source plane into a
destination plane (double buffering), so the hybrid run is bit-identical
to the plain synchronous variant regardless of the split position.

The per-tile owner map after each iteration is exactly the data of Fig. 4:
CPU tiles coloured by worker, GPU tiles by the device pseudo-worker, and
(under lazy evaluation) stable tiles black.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.easypap.grid import Grid2D
from repro.easypap.executor import add_tile_span
from repro.easypap.schedule import simulate_schedule
from repro.easypap.tiling import Tile, TileGrid
from repro.obs.tracer import Tracer
from repro.sandpile.gpu import DeviceModel
from repro.sandpile.kernels import sync_tile
from repro.sandpile.lazy import LazyFlags

__all__ = ["HybridStepper", "CpuModel"]


class CpuModel:
    """Per-core CPU throughput in cells per virtual second."""

    def __init__(self, cell_rate: float = 1e9) -> None:
        if cell_rate <= 0:
            raise ConfigurationError("cell rate must be positive")
        self.cell_rate = cell_rate

    def tile_cost(self, tile: Tile) -> float:
        """Virtual seconds one core needs for the tile."""
        return tile.area / self.cell_rate


class HybridStepper:
    """Row-split hybrid stepper with feedback-driven rebalancing."""

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        nworkers: int = 4,
        policy: str = "dynamic",
        chunk: int = 1,
        cpu: CpuModel | None = None,
        device: DeviceModel | None = None,
        lazy: bool = False,
        trace: Tracer | None = None,
        rebalance: bool = True,
    ) -> None:
        if nworkers < 1:
            raise ConfigurationError("nworkers must be >= 1")
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.nworkers = nworkers
        self.policy = policy
        self.chunk = chunk
        self.cpu = cpu or CpuModel()
        self.device = device or DeviceModel()
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        self.trace = trace
        self.rebalance = rebalance
        self._scratch = grid.data.copy()
        #: tile-row index of the CPU/GPU frontier: tile rows < split on CPU
        self.split = max(self.tiles.tiles_y // 2, 1)
        self.iterations = 0
        self.virtual_time = 0.0
        self.cpu_time_last = 0.0
        self.gpu_time_last = 0.0
        self.last_owner_map = np.full((self.tiles.tiles_y, self.tiles.tiles_x), -1, np.int32)
        self.gpu_worker_id = nworkers  # pseudo-worker index used in traces

    # -- internals ---------------------------------------------------------------

    def _active_tiles(self) -> list[Tile]:
        if self.lazy_flags is None:
            return list(self.tiles)
        return self.lazy_flags.active_tiles()

    def __call__(self) -> bool:
        src = self.grid.data
        dst = self._scratch
        active = self._active_tiles()
        if self.lazy_flags is not None and len(active) < len(self.tiles):
            dst[...] = src
        cpu_tiles = [t for t in active if t.ty < self.split]
        gpu_tiles = [t for t in active if t.ty >= self.split]
        owners = self.last_owner_map
        owners[...] = -1
        changed = False

        # CPU side: schedule tiles over virtual workers.  Trace spans start
        # at this iteration's virtual time, so iterations lie end to end.
        t0 = self.virtual_time
        cpu_changed: dict[int, bool] = {}
        for t in cpu_tiles:
            cpu_changed[t.index] = sync_tile(src, dst, t)
        cpu_costs = [self.cpu.tile_cost(t) for t in cpu_tiles]
        cpu_time = 0.0
        if cpu_tiles:
            sched = simulate_schedule(cpu_costs, self.nworkers, self.policy, chunk=self.chunk)
            cpu_time = sched.makespan
            for span in sched.spans:
                t = cpu_tiles[span.task]
                owners[t.ty, t.tx] = span.worker
                if self.trace:
                    add_tile_span(
                        self.trace, iteration=self.iterations, task=t.index,
                        worker=span.worker, start=t0 + span.start, end=t0 + span.end,
                        tile_ty=t.ty, tile_tx=t.tx,
                    )

        # GPU side: one batched launch over all device tiles.
        gpu_time = 0.0
        if gpu_tiles:
            gpu_cells = 0
            for t in gpu_tiles:
                ch = sync_tile(src, dst, t)
                changed = changed or ch
                owners[t.ty, t.tx] = self.gpu_worker_id
                gpu_cells += t.area
            gpu_time = self.device.launch_cost(gpu_cells)
            if self.trace:
                for t in gpu_tiles:
                    add_tile_span(
                        self.trace, iteration=self.iterations, task=t.index,
                        worker=self.gpu_worker_id, start=t0, end=t0 + gpu_time,
                        kind="gpu", tile_ty=t.ty, tile_tx=t.tx,
                    )

        changed = changed or any(cpu_changed.values())
        if self.lazy_flags is not None:
            for t in cpu_tiles:
                self.lazy_flags.mark(t, cpu_changed.get(t.index, False))
            for t in gpu_tiles:
                # GPU-side change detection is per-launch, not per-tile, in
                # real OpenCL; be conservative and mark all launched tiles.
                self.lazy_flags.mark(t, changed)
            self.lazy_flags.advance()

        # grains lost off the edge this iteration (synchronous semantics)
        if changed:
            lost = int(src[1:-1, 1:-1].sum()) - int(dst[1:-1, 1:-1].sum())
            self.grid.sink_absorbed += lost
        self._scratch = self.grid.swap_buffer(self._scratch)
        self.grid.drain_sink()

        # Dynamic rebalancing: move the frontier one tile row towards the
        # slower side (hysteresis: only when the imbalance exceeds 20%).
        self.cpu_time_last, self.gpu_time_last = cpu_time, gpu_time
        iter_time = max(cpu_time, gpu_time)
        self.virtual_time += iter_time
        if self.rebalance and cpu_tiles and gpu_tiles:
            if cpu_time > 1.2 * gpu_time and self.split > 1:
                self.split -= 1  # shrink CPU share
            elif gpu_time > 1.2 * cpu_time and self.split < self.tiles.tiles_y - 1:
                self.split += 1  # grow CPU share
        self.iterations += 1
        return changed

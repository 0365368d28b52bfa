"""Rendering helpers connecting simulation state to images.

EASYPAP's interactive SDL window is replaced by functions producing RGB
numpy arrays (writable as PPM via :func:`repro.common.colors.write_ppm`):

* :func:`render_grid` — the sandpile state with the Fig. 1 palette;
* :func:`tile_owners` — the per-tile worker map of one traced iteration,
  queried from the tile spans of a :class:`~repro.obs.tracer.Tracer`;
* :func:`render_tile_owners` — the Fig. 4 view: tiles coloured by the
  worker that computed them, black for skipped (stable) tiles, with GPU
  workers in a distinct hue band;
* :func:`upscale` — nearest-neighbour zoom so small grids remain visible.
"""

from __future__ import annotations

import numpy as np

from repro.common.colors import sandpile_to_rgb
from repro.easypap.executor import TILE_PID

__all__ = ["render_grid", "tile_owners", "render_tile_owners", "upscale", "WORKER_PALETTE"]

#: Distinct, readable worker colours (cycled when there are more workers).
WORKER_PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 60, 60),
    (60, 160, 230),
    (90, 200, 90),
    (240, 180, 40),
    (180, 100, 240),
    (60, 220, 200),
    (240, 120, 190),
    (160, 160, 80),
)

#: Hue used for GPU workers in hybrid runs (bright orange family).
GPU_COLOR = (255, 140, 0)


def render_grid(grid) -> np.ndarray:
    """Render a :class:`~repro.easypap.grid.Grid2D` (or raw 2D array) to RGB."""
    interior = grid.interior if hasattr(grid, "interior") else np.asarray(grid)
    return sandpile_to_rgb(interior)


def tile_owners(tracer, tiles_y: int, tiles_x: int, iteration: int) -> np.ndarray:
    """Per-tile worker index for one iteration (-1 = tile not computed).

    This is exactly the data behind Fig. 4: tiles that were skipped
    (stable, under lazy evaluation) stay at -1 and render black; others
    hold the worker lane of the tile span that computed them.
    """
    owners = np.full((tiles_y, tiles_x), -1, dtype=np.int32)
    for s in tracer.spans():
        if s.pid != TILE_PID or s.args.get("iteration") != iteration:
            continue
        ty, tx = s.args["tile_ty"], s.args["tile_tx"]
        if 0 <= ty < tiles_y and 0 <= tx < tiles_x:
            owners[ty, tx] = s.tid
    return owners


def render_tile_owners(
    owners: np.ndarray,
    *,
    tile_pixels: int = 8,
    gpu_workers: frozenset[int] | set[int] = frozenset(),
) -> np.ndarray:
    """Render a tile-owner map (from :func:`tile_owners`) to RGB.

    ``owners[ty, tx] == -1`` means the tile was not computed (stable under
    lazy evaluation) and is drawn black, exactly as in Fig. 4.  Workers in
    *gpu_workers* are drawn in the GPU hue to visualise the CPU/GPU split.
    """
    o = np.asarray(owners)
    if o.ndim != 2:
        raise ValueError("owners must be a 2D array")
    h, w = o.shape
    img = np.zeros((h * tile_pixels, w * tile_pixels, 3), dtype=np.uint8)
    for ty in range(h):
        for tx in range(w):
            worker = int(o[ty, tx])
            if worker < 0:
                colour = (0, 0, 0)
            elif worker in gpu_workers:
                # shade GPU hue slightly per device index for multi-GPU runs
                shade = 200 + (worker % 3) * 18
                colour = (min(shade + 55, 255), 140, 0)
            else:
                colour = WORKER_PALETTE[worker % len(WORKER_PALETTE)]
            ys = slice(ty * tile_pixels, (ty + 1) * tile_pixels)
            xs = slice(tx * tile_pixels, (tx + 1) * tile_pixels)
            img[ys, xs] = colour
    return img


def upscale(image: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upscaling of an RGB image by an integer factor."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return np.repeat(np.repeat(image, factor, axis=0), factor, axis=1)

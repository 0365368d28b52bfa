"""Tile decomposition of a 2D grid.

The second sandpile assignment has students tile the stencil to maximise
cache reuse and to enable lazy evaluation; the traces of Fig. 3 compare
32x32 against 64x64 tiles.  :class:`TileGrid` cuts an ``H x W`` interior
into rectangular tiles (edge tiles may be smaller when the dimensions do
not divide evenly) and exposes the adjacency needed by the lazy algorithm
("a tile must be recomputed when it, or a neighbour, changed").
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.common.errors import ConfigurationError

__all__ = ["Tile", "TileGrid", "band_tiles", "deal"]


@dataclass(frozen=True)
class Tile:
    """One rectangular tile of the interior.

    ``y0``/``x0`` are interior coordinates (0-based, sink frame excluded);
    the tile covers rows ``y0 : y0+h`` and columns ``x0 : x0+w``.
    ``index`` is the tile's row-major rank in its :class:`TileGrid`.
    """

    index: int
    ty: int
    tx: int
    y0: int
    x0: int
    h: int
    w: int

    @property
    def y1(self) -> int:
        """One past the last row."""
        return self.y0 + self.h

    @property
    def x1(self) -> int:
        """One past the last column."""
        return self.x0 + self.w

    @property
    def area(self) -> int:
        """Cell count of the tile."""
        return self.h * self.w

    def slices(self) -> tuple[slice, slice]:
        """Interior-coordinate slices selecting this tile."""
        return slice(self.y0, self.y1), slice(self.x0, self.x1)


def deal(count: int, n: int, i: int) -> tuple[int, int]:
    """Items ``[lo, hi)`` of *count* that part *i* of *n* takes: contiguous
    runs as even as possible, earlier parts taking the remainder."""
    base, rem = divmod(count, n)
    lo = i * base + min(i, rem)
    return lo, lo + base + (i < rem)


def band_tiles(window: tuple[int, int, int, int], nbands: int) -> list[Tile]:
    """Cut the interior rectangle *window* into ``nbands`` full-width row bands.

    Band decomposition is the persistent-worker dispatch shape: a command
    tuple carries only ``(window, nbands)`` and both sides rebuild the same
    tile list deterministically, so nothing per-tile ever crosses the pipe.
    Full-window-wide bands also keep every row contiguous in memory, which
    is what lets the fused stencil kernels vectorise across the whole
    window width.

    ``nbands`` is clamped to the window height (never returns an empty
    band); rows are dealt as evenly as possible, earlier bands taking the
    remainder.  Degenerate windows return no tiles.
    """
    y0, y1, x0, x1 = window
    height, width = y1 - y0, x1 - x0
    if height <= 0 or width <= 0:
        return []
    if nbands < 1:
        raise ConfigurationError(f"nbands must be >= 1, got {nbands}")
    n = min(nbands, height)
    tiles: list[Tile] = []
    for i in range(n):
        lo, hi = deal(height, n, i)
        tiles.append(Tile(index=i, ty=i, tx=0, y0=y0 + lo, x0=x0, h=hi - lo, w=width))
    return tiles


class TileGrid:
    """Decomposition of an ``H x W`` interior into ``tile_h x tile_w`` tiles."""

    def __init__(self, height: int, width: int, tile_h: int, tile_w: int | None = None) -> None:
        if tile_w is None:
            tile_w = tile_h
        if height < 1 or width < 1:
            raise ConfigurationError("grid dimensions must be >= 1")
        if tile_h < 1 or tile_w < 1:
            raise ConfigurationError("tile dimensions must be >= 1")
        self.height = height
        self.width = width
        self.tile_h = tile_h
        self.tile_w = tile_w
        self.tiles_y = -(-height // tile_h)  # ceil division
        self.tiles_x = -(-width // tile_w)
        self._tiles: list[Tile] = []
        idx = 0
        for ty in range(self.tiles_y):
            for tx in range(self.tiles_x):
                y0 = ty * tile_h
                x0 = tx * tile_w
                h = min(tile_h, height - y0)
                w = min(tile_w, width - x0)
                self._tiles.append(Tile(idx, ty, tx, y0, x0, h, w))
                idx += 1

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tiles)

    def __iter__(self) -> Iterator[Tile]:
        return iter(self._tiles)

    def __getitem__(self, index: int) -> Tile:
        return self._tiles[index]

    def at(self, ty: int, tx: int) -> Tile:
        """Tile at tile-coordinates ``(ty, tx)``."""
        if not (0 <= ty < self.tiles_y and 0 <= tx < self.tiles_x):
            raise IndexError(f"tile ({ty}, {tx}) outside {self.tiles_y}x{self.tiles_x}")
        return self._tiles[ty * self.tiles_x + tx]

    # -- structure ---------------------------------------------------------------

    def neighbors(self, tile: Tile, *, diagonal: bool = False) -> list[Tile]:
        """Tiles sharing an edge (optionally a corner) with *tile*.

        The 4-connected stencil only propagates through edges, so the lazy
        sandpile uses ``diagonal=False``.
        """
        out: list[Tile] = []
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if diagonal:
            offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for dy, dx in offsets:
            ny, nx = tile.ty + dy, tile.tx + dx
            if 0 <= ny < self.tiles_y and 0 <= nx < self.tiles_x:
                out.append(self.at(ny, nx))
        return out

    def tiles_in_window(self, window: tuple[int, int, int, int]) -> list[Tile]:
        """Tiles intersecting the half-open interior rectangle *window*.

        ``window`` is ``(y0, y1, x0, x1)`` in interior coordinates (the
        frontier steppers' dirty bounding box).  The result is computed
        from tile-coordinate arithmetic — O(tiles in the window), never a
        scan over the whole decomposition — and returned in row-major
        order, so selecting prebuilt per-tile tasks stays cheap even when
        the window is a tiny corner of a huge grid.  Degenerate (empty or
        inverted) windows select nothing.
        """
        y0, y1, x0, x1 = window
        y0, x0 = max(y0, 0), max(x0, 0)
        y1, x1 = min(y1, self.height), min(x1, self.width)
        if y0 >= y1 or x0 >= x1:
            return []
        ty0, ty1 = y0 // self.tile_h, -(-y1 // self.tile_h)
        tx0, tx1 = x0 // self.tile_w, -(-x1 // self.tile_w)
        return [
            self._tiles[ty * self.tiles_x + tx]
            for ty in range(ty0, ty1)
            for tx in range(tx0, tx1)
        ]

    def merged_windows(self, mask) -> list[tuple[int, int, int, int]]:
        """Disjoint interior rectangles covering exactly the tiles set in *mask*.

        *mask* is a ``(tiles_y, tiles_x)`` boolean plane.  Each run of
        adjacent set tiles in one tile row is one rectangle, and a run with
        the same extent in the next tile row extends it downwards.  Windows
        are ``(y0, y1, x0, x1)`` in interior coordinates (edge tiles
        clipped), ordered by their first tile in row-major order.
        """
        rects: list[list[int]] = []
        above: dict[tuple[int, int], list[int]] = {}
        for ty, row in enumerate(mask.tolist()):
            here: dict[tuple[int, int], list[int]] = {}
            tx, n = 0, len(row)
            while tx < n:
                if not row[tx]:
                    tx += 1
                    continue
                start = tx
                while tx < n and row[tx]:
                    tx += 1
                rect = above.get((start, tx))
                if rect is None:
                    rect = [ty, ty + 1, start, tx]
                    rects.append(rect)
                else:
                    rect[1] = ty + 1
                here[(start, tx)] = rect
            above = here
        th, tw = self.tile_h, self.tile_w
        return [
            (ty0 * th, min(ty1 * th, self.height), tx0 * tw, min(tx1 * tw, self.width))
            for ty0, ty1, tx0, tx1 in rects
        ]

    def is_border_tile(self, tile: Tile) -> bool:
        """True when the tile touches the grid edge (and hence the sink).

        Border ("outer") tiles need the careful code path in the
        vectorisation assignment; inner tiles can use the fast path.
        """
        return (
            tile.ty == 0
            or tile.tx == 0
            or tile.ty == self.tiles_y - 1
            or tile.tx == self.tiles_x - 1
        )

    def inner_tiles(self) -> list[Tile]:
        """All tiles not touching the grid edge."""
        return [t for t in self._tiles if not self.is_border_tile(t)]

    def outer_tiles(self) -> list[Tile]:
        """All tiles touching the grid edge."""
        return [t for t in self._tiles if self.is_border_tile(t)]

    def __repr__(self) -> str:
        return (
            f"TileGrid({self.height}x{self.width} in {self.tile_h}x{self.tile_w} tiles: "
            f"{self.tiles_y}x{self.tiles_x} = {len(self)} tiles)"
        )

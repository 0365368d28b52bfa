"""Lazy tile evaluation.

Assignment 2 asks for "a lazy evaluation algorithm that avoids computing
tiles whose neighbourhood was in a steady state at the previous iteration";
students then check in EASYPAP's tiling window that "areas where nothing
changes" are not computed (black tiles in Fig. 4).

:class:`LazyFlags` keeps two boolean planes over the tile grid:

* ``changed``   — which tiles changed during the *previous* iteration;
* ``next_changed`` — being filled in during the current iteration.

A tile must be recomputed when it or any 4-neighbour changed previously:
grains only cross one cell per toppling, so activity propagates at most
one tile per iteration — skipping everything else is exact, not an
approximation (tests assert bit-identical fixpoints).

The active set is derived by a single vectorised 4-neighbour dilation of
the ``changed`` plane (no per-tile Python loop), and per-tile change
detection can be done in one pass over the cell planes
(:meth:`LazyFlags.mark_from_diff`) instead of one ``.any()`` per tile.
"""

from __future__ import annotations

import numpy as np

from repro.easypap.tiling import Tile, TileGrid

__all__ = ["LazyFlags"]


class LazyFlags:
    """Per-tile dirty tracking for lazy evaluation over a :class:`TileGrid`.

    The cumulative ``computed_total``/``skipped_total`` statistics (the
    Fig. 3 / A2 skip counters) are committed by :meth:`advance`, once per
    iteration — querying :meth:`active_tiles` any number of times within
    an iteration does not skew them.
    """

    def __init__(self, tiles: TileGrid) -> None:
        self.tiles = tiles
        shape = (tiles.tiles_y, tiles.tiles_x)
        # Everything is dirty initially: the first iteration computes all tiles.
        self._changed = np.ones(shape, dtype=bool)
        self._next = np.zeros(shape, dtype=bool)
        #: cached 4-neighbour dilation of ``_changed`` (rebuilt on demand,
        #: dropped whenever the changed plane moves)
        self._need: np.ndarray | None = None
        #: tiles set in ``_changed``; when all are, the dilation is ``_all``
        self._nchanged = self._changed.size
        self._all = np.ones(shape, dtype=bool)
        #: active count from the last query, committed by :meth:`advance`
        self._pending: int | None = None
        #: reduceat starts of the tile rows/columns (sliced to a sub-box)
        self._rstarts = np.arange(tiles.tiles_y) * tiles.tile_h
        self._cstarts = np.arange(tiles.tiles_x) * tiles.tile_w
        #: cumulative statistics (exposed for the Fig. 3 / A2 benchmarks)
        self.computed_total = 0
        self.skipped_total = 0

    # -- queries ---------------------------------------------------------------

    def _need_mask(self) -> np.ndarray:
        """Boolean tile plane: tile or any 4-neighbour changed last iteration.

        One vectorised dilation of the ``changed`` plane (none when every
        tile changed); cached until the plane advances.
        """
        if self._need is None:
            c = self._changed
            if self._nchanged == c.size:
                self._need = self._all
                return self._all
            need = c.copy()
            need[1:, :] |= c[:-1, :]
            need[:-1, :] |= c[1:, :]
            need[:, 1:] |= c[:, :-1]
            need[:, :-1] |= c[:, 1:]
            self._need = need
        return self._need

    def needs_compute(self, tile: Tile) -> bool:
        """True when *tile* or a 4-neighbour changed last iteration."""
        return bool(self._need_mask()[tile.ty, tile.tx])

    def active_indices(self) -> np.ndarray:
        """Row-major indices of tiles needing recomputation this iteration."""
        idx = np.flatnonzero(self._need_mask())
        self._pending = int(idx.size)
        return idx

    def active_mask(self) -> tuple[np.ndarray, int]:
        """Boolean tile plane of the tiles needing recomputation, and their count.

        The plane is the cached dilation: read it, do not modify it.  Like
        :meth:`active_tiles`, the query is idempotent and the count is
        committed to the skip statistics by :meth:`advance`.
        """
        need = self._need_mask()
        self._pending = need.size if need is self._all else int(np.count_nonzero(need))
        return need, self._pending

    def active_tiles(self) -> list[Tile]:
        """Tiles needing recomputation this iteration (row-major order).

        Idempotent: repeated queries within one iteration return the same
        set and do not double-count the skip statistics (accounting is
        deferred to :meth:`advance`).
        """
        tiles = self.tiles
        return [tiles[int(i)] for i in self.active_indices()]

    @property
    def dirty_fraction(self) -> float:
        """Fraction of tiles marked changed after the last iteration."""
        return float(self._changed.mean())

    # -- updates ----------------------------------------------------------------

    def mark(self, tile: Tile, changed: bool) -> None:
        """Record whether *tile* changed during the current iteration."""
        if changed:
            self._next[tile.ty, tile.tx] = True

    def mark_from_diff(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Flag every tile whose interior differs between two framed planes.

        One vectorised compare + per-tile ``logical_or`` reduction replaces
        per-tile ``.any()`` calls.  The scan is restricted to the bounding
        box of the last :meth:`active_tiles` query — tiles outside it were
        not recomputed, so their planes are equal by construction.  When the
        query found every tile active, the search is skipped and the whole
        contiguous planes are compared (frames included, then dropped).
        """
        t = self.tiles
        need = self._need
        if need is None or self._pending == len(t):
            ty0, ty1, tx0, tx1 = 0, t.tiles_y, 0, t.tiles_x
            diff = (src != dst)[1:-1, 1:-1]
        else:
            (ridx,) = need.any(axis=1).nonzero()
            if ridx.size == 0:
                return
            (cidx,) = need.any(axis=0).nonzero()
            ty0, ty1 = int(ridx[0]), int(ridx[-1]) + 1
            tx0, tx1 = int(cidx[0]), int(cidx[-1]) + 1
            y0, y1 = ty0 * t.tile_h, min(ty1 * t.tile_h, t.height)
            x0, x1 = tx0 * t.tile_w, min(tx1 * t.tile_w, t.width)
            box = (slice(1 + y0, 1 + y1), slice(1 + x0, 1 + x1))
            diff = src[box] != dst[box]
        rows = np.logical_or.reduceat(diff, self._rstarts[: ty1 - ty0], axis=0)
        self._next[ty0:ty1, tx0:tx1] |= np.logical_or.reduceat(
            rows, self._cstarts[: tx1 - tx0], axis=1
        )

    def advance(self) -> bool:
        """Commit the current iteration's flags; True if anything changed.

        Also commits the skip statistics for the iteration being closed,
        based on the last active-set query.
        """
        if self._pending is not None:
            self.computed_total += self._pending
            self.skipped_total += len(self.tiles) - self._pending
            self._pending = None
        self._changed, self._next = self._next, self._changed
        self._next[...] = False
        self._need = None
        self._nchanged = int(np.count_nonzero(self._changed))
        return self._nchanged > 0

    def reset(self) -> None:
        """Mark every tile dirty again (e.g. after an external grid edit)."""
        self._changed[...] = True
        self._nchanged = self._changed.size
        self._next[...] = False
        self._need = None
        self._pending = None

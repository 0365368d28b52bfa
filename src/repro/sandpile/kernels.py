"""Vectorised sandpile kernels (whole-grid, windowed, and per-tile).

These are the numpy counterparts of the reference loops: the "code
simplification [that enables] compiler auto-vectorization" lesson of the
second assignment maps onto replacing Python-level loops with whole-array
slicing, per the scientific-Python optimisation guidance (views, in-place
ops, no copies in the hot path).

Kernel glossary (paper names in parentheses):

* :func:`sync_step` (``sandPile``)  — synchronous step via an auxiliary
  array; every cell recomputed from the previous state.  With ``window=``
  the update and the sink accounting are sliced to a sub-rectangle of the
  interior — exact whenever the window contains every unstable cell plus
  a one-cell margin (activity moves at most one cell per iteration), the
  invariant the frontier steppers maintain.
* :func:`async_sweep` (``asandPile``) — topple *all currently unstable*
  cells simultaneously, in place.  One sweep of the asynchronous variant;
  repeated sweeps converge to the same fixpoint (Dhar).  With ``window=``
  the sweep is sliced to a rectangle containing every unstable cell.
* :func:`unstable_bbox` / :func:`grow_window` — dirty-bounding-box helpers
  the frontier steppers use to track where activity can possibly be.
* :func:`sync_gather` / :func:`sink_loss` — ``sync_step``'s shared-shift
  update of one interior rectangle, and its whole-interior sink count; the
  in-process ``tiled``/``lazy``/``split`` steppers run a few such gathers
  per iteration over merged rectangles of tiles.
* :func:`sync_tile` / :func:`async_tile_relax` — tile-local forms used by
  the tiled, lazy, and parallel variants.  ``async_tile_relax`` keeps
  toppling inside one tile until the tile is internally stable, pushing
  surplus grains into the one-cell halo around the tile — the in-place
  analogue of cache-friendly tile processing.  ``sync_tile_nc`` is the
  lazy path's form: no per-tile change test (detection happens once,
  vectorised, per batch via ``LazyFlags.mark_from_diff``).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.easypap.executor import register_tile_kernel
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import Tile

__all__ = [
    "sync_step",
    "sync_gather",
    "sink_loss",
    "sync_tile",
    "sync_tile_nc",
    "sync_tile_k_array",
    "async_sweep",
    "async_tile_relax",
    "async_tile_relax_array",
    "toppling_count",
    "unstable_bbox",
    "grow_window",
]

#: A bounding box ``(y0, y1, x0, x1)`` in interior coordinates, half-open.
Window = tuple[int, int, int, int]


def unstable_bbox(interior: np.ndarray, window: Window | None = None) -> Window | None:
    """Bounding box of cells holding >= 4 grains, or None when stable.

    *interior* is the unframed ``(H, W)`` interior plane; when *window* is
    given only that sub-rectangle is scanned (activity can only appear
    where the previous step computed, so the scan stays O(window)).

    The window is clamped to the interior first.  A dirty region touching
    the grid edge, padded by naive ``y0 - pad`` arithmetic, yields a
    negative start — which numpy slicing would silently wrap to the *end*
    of the plane, dropping the boundary rows/columns from the scan and
    reporting a false fixpoint while edge cells are still unstable.
    Degenerate (empty or inverted) windows scan nothing and return None.
    """
    if window is None:
        y0, x0 = 0, 0
        y1, x1 = interior.shape
    else:
        y0, y1, x0, x1 = window
        y0, x0 = max(y0, 0), max(x0, 0)
        y1 = min(y1, interior.shape[0])
        x1 = min(x1, interior.shape[1])
        if y0 >= y1 or x0 >= x1:
            return None
    mask = interior[y0:y1, x0:x1] >= 4
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return (
        y0 + int(rows[0]),
        y0 + int(rows[-1]) + 1,
        x0 + int(cols[0]),
        x0 + int(cols[-1]) + 1,
    )


def grow_window(window: Window, height: int, width: int, pad: int = 1) -> Window:
    """Grow a bounding box by *pad* cells, clipped to the interior.

    Clamping happens per side: a box anchored at the grid edge keeps its
    boundary row/column (the sink frame absorbs what topples over), while
    the opposite side still grows by the full *pad*.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    y0, y1, x0, x1 = window
    return (max(y0 - pad, 0), min(y1 + pad, height), max(x0 - pad, 0), min(x1 + pad, width))


def _touches_border(window: Window, height: int, width: int) -> bool:
    y0, y1, x0, x1 = window
    return y0 == 0 or x0 == 0 or y1 == height or x1 == width


def sync_step(grid: Grid2D, out: np.ndarray | None = None, window: Window | None = None) -> bool:
    """One synchronous iteration, vectorised; optionally windowed.

    *out* may supply a preallocated ``(H+2, W+2)`` scratch array (reused
    across iterations to avoid per-step allocations).  Returns True when
    any interior cell changed.

    *window* slices the update to a sub-rectangle ``(y0, y1, x0, x1)`` of
    the interior.  This is exact — cells outside the window cannot change
    — iff the window contains every unstable cell *grown by one cell*
    (see :func:`grow_window`): topplers then sit strictly inside the
    window, so no grain crosses its boundary except into the sink frame.
    Sink accounting is likewise sliced: grains lost off the edge equal the
    window's grain deficit, and only windows touching the border can lose
    any.
    """
    d = grid.data
    if out is None:
        out = np.empty_like(d)
    elif out.shape != d.shape:
        raise ValueError(f"scratch buffer shape {out.shape} != grid shape {d.shape}")

    if window is not None:
        y0, y1, x0, x1 = window
        ys = slice(y0 + 1, y1 + 1)
        xs = slice(x0 + 1, x1 + 1)
        centre = d[ys, xs]
        new = out[ys, xs]
        np.bitwise_and(centre, 3, out=new)
        new += d[ys, x0:x1] >> 2
        new += d[ys, x0 + 2 : x1 + 2] >> 2
        new += d[y0:y1, xs] >> 2
        new += d[y0 + 2 : y1 + 2, xs] >> 2
        changed = bool((new != centre).any())
        if _touches_border(window, grid.height, grid.width):
            # net window deficit == grains that toppled into the sink frame
            grid.sink_absorbed += int(centre.sum()) - int(new.sum())
        d[ys, xs] = new
        return changed

    div = d >> 2  # d // 4, sign-safe because counts are non-negative
    interior_new = sync_gather(d, div, out, (0, grid.height, 0, grid.width))
    changed = bool((interior_new != d[1:-1, 1:-1]).any())
    # Grains toppling off the edge are not written anywhere (the sink frame
    # is never computed); account for them so conservation stays checkable.
    grid.sink_absorbed += sink_loss(div)
    d[1:-1, 1:-1] = interior_new
    grid.drain_sink()
    return changed


def sync_gather(src: np.ndarray, div: np.ndarray, dst: np.ndarray, window: Window) -> np.ndarray:
    """Synchronous update of the interior *window*, reading a shared shift plane.

    *div* must hold ``src >> 2`` over the window grown by one cell, so the
    four neighbour terms are slices of one precomputed plane rather than
    four fresh shifts.  Writes the window of *dst* (a different plane from
    *src*) and returns that view.  :func:`sync_step` runs it over the whole
    interior; the in-process tiled steppers run it once per merged
    rectangle of tiles.
    """
    y0, y1, x0, x1 = window
    ys = slice(y0 + 1, y1 + 1)
    xs = slice(x0 + 1, x1 + 1)
    new = dst[ys, xs]
    np.add(src[ys, xs] & 3, div[ys, x0:x1], out=new)
    new += div[ys, x0 + 2 : x1 + 2]
    new += div[y0:y1, xs]
    new += div[y0 + 2 : y1 + 2, xs]
    return new


def sink_loss(div: np.ndarray) -> int:
    """Grains one whole-interior synchronous step topples into the sink.

    *div* is the step's ``src >> 2`` plane.  Each edge cell loses one
    div-portion per sink-facing side; corner cells appear in two sums,
    which is exactly right (two sink sides).
    """
    return int(
        div[1, 1:-1].sum() + div[-2, 1:-1].sum() + div[1:-1, 1].sum() + div[1:-1, -2].sum()
    )


def sync_tile(src: np.ndarray, dst: np.ndarray, tile: Tile) -> bool:
    """Synchronous update of one tile: read *src*, write *dst*.

    Arrays are full frame arrays; the tile's interior coordinates are
    shifted by +1 to account for the sink frame.  Independent across tiles
    (pure gather), so tiles may run in any order or in parallel.
    Returns True when any cell of the tile changed.
    """
    ys = slice(tile.y0 + 1, tile.y1 + 1)
    xs = slice(tile.x0 + 1, tile.x1 + 1)
    centre = src[ys, xs]
    new = (
        (centre & 3)
        + (src[ys, tile.x0 : tile.x1] >> 2)
        + (src[ys, tile.x0 + 2 : tile.x1 + 2] >> 2)
        + (src[tile.y0 : tile.y1, xs] >> 2)
        + (src[tile.y0 + 2 : tile.y1 + 2, xs] >> 2)
    )
    dst[ys, xs] = new
    return bool((new != centre).any())


def sync_tile_nc(src: np.ndarray, dst: np.ndarray, tile: Tile) -> None:
    """:func:`sync_tile` without the per-tile change test.

    The lazy stepper derives all changed flags in one vectorised pass
    afterwards (``LazyFlags.mark_from_diff``), so the per-tile ``.any()``
    reduction would be pure overhead.
    """
    ys = slice(tile.y0 + 1, tile.y1 + 1)
    xs = slice(tile.x0 + 1, tile.x1 + 1)
    dst[ys, xs] = (
        (src[ys, xs] & 3)
        + (src[ys, tile.x0 : tile.x1] >> 2)
        + (src[ys, tile.x0 + 2 : tile.x1 + 2] >> 2)
        + (src[tile.y0 : tile.y1, xs] >> 2)
        + (src[tile.y0 + 2 : tile.y1 + 2, xs] >> 2)
    )


def _gather5(s: np.ndarray, d: np.ndarray, sy: int, sx: int, dy: int, dx: int, h: int, w: int) -> None:
    """One synchronous gather of an ``h x w`` region across two framed arrays.

    ``(sy, sx)``/``(dy, dx)`` are the *framed* coordinates of the region's
    first cell in source/destination.  Expressed entirely in ufuncs so a
    shadow-plane source records every read (the dynamic race certifier
    replays fused kernels through this path).
    """
    d[dy : dy + h, dx : dx + w] = (
        (s[sy : sy + h, sx : sx + w] & 3)
        + (s[sy : sy + h, sx - 1 : sx - 1 + w] >> 2)
        + (s[sy : sy + h, sx + 1 : sx + 1 + w] >> 2)
        + (s[sy - 1 : sy - 1 + h, sx : sx + w] >> 2)
        + (s[sy + 1 : sy + 1 + h, sx : sx + w] >> 2)
    )


_fused_scratch = threading.local()


def _fused_buffers(h: int, w: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Reusable per-thread buffer pair for the fused trapezoid.

    One backing pair per thread, grown monotonically to the largest
    window seen and sliced down to each request, so the steady state of a
    fused run allocates nothing.  Only the one-cell frame is re-zeroed
    (it plays the sink at clamped edges): the first sub-step overwrites
    buffer ``a``'s whole interior, and every later read stays inside the
    previous sub-step's written region or the frame, so stale interior
    cells are never observed.
    """
    pair = getattr(_fused_scratch, "pair", None)
    if (
        pair is None
        or pair[0].dtype != dtype
        or pair[0].shape[0] < h + 2
        or pair[0].shape[1] < w + 2
    ):
        hh = h + 2 if pair is None else max(h + 2, pair[0].shape[0])
        ww = w + 2 if pair is None else max(w + 2, pair[0].shape[1])
        # amortised: reallocated only when a thread first sees a larger window
        pair = _fused_scratch.pair = (
            np.zeros((hh, ww), dtype=dtype),  # analysis: allow
            np.zeros((hh, ww), dtype=dtype),  # analysis: allow
        )
    a = pair[0][: h + 2, : w + 2]
    b = pair[1][: h + 2, : w + 2]
    for m in (a, b):
        m[0, :] = 0
        m[-1, :] = 0
        m[:, 0] = 0
        m[:, -1] = 0
    return a, b


def sync_tile_k_array(src: np.ndarray, dst: np.ndarray, tile: Tile, k: int) -> None:
    """Advance one tile *k* synchronous iterations in a single call.

    Temporal blocking (a shrinking trapezoid): the tile's k-step dependency
    cone — the tile grown by ``k``, clamped to the interior — is consumed
    from *src* in the first sub-step, intermediate states live in local
    buffers, and only the final sub-step writes the owned tile rectangle
    into *dst*.  Writes are therefore disjoint across tiles under any
    schedule, and the result is bit-identical to ``k`` single
    :func:`sync_tile_nc` steps provided the caller's window grew the
    active region by ``k`` (halo depth ``radius x k``, which
    ``repro.analysis.halo`` certifies).

    The local buffers carry a one-cell zero frame: where the grown region
    is clamped at the interior edge it plays the sink (the real frame is
    held at zero between steps), elsewhere it is never read because each
    sub-step shrinks the computed region by the one-cell reach of the
    stencil.  No sink accounting happens here — the caller settles the
    window's grain deficit exactly as for single steps.
    """
    if k == 1:
        sync_tile_nc(src, dst, tile)
        return
    H = src.shape[0] - 2
    W = src.shape[1] - 2

    def grown(s: int) -> Window:
        return (
            max(tile.y0 - s, 0),
            min(tile.y1 + s, H),
            max(tile.x0 - s, 0),
            min(tile.x1 + s, W),
        )

    # sub-step j (1-based) computes the tile grown by k-j; the largest,
    # grown by k-1, is read straight off the global plane (its own one-cell
    # read halo makes the full grown-by-k cone)
    gy0, gy1, gx0, gx1 = grown(k - 1)
    h, w = gy1 - gy0, gx1 - gx0
    a, b = _fused_buffers(h, w, src.dtype)
    _gather5(src, a, gy0 + 1, gx0 + 1, 1, 1, h, w)
    for j in range(2, k):
        ry0, ry1, rx0, rx1 = grown(k - j)
        ly, lx = ry0 - gy0 + 1, rx0 - gx0 + 1
        _gather5(a, b, ly, lx, ly, lx, ry1 - ry0, rx1 - rx0)
        a, b = b, a
    _gather5(
        a,
        dst,
        tile.y0 - gy0 + 1,
        tile.x0 - gx0 + 1,
        tile.y0 + 1,
        tile.x0 + 1,
        tile.h,
        tile.w,
    )


def async_sweep(grid: Grid2D, window: Window | None = None) -> bool:
    """Topple every currently-unstable cell once, in place (one sweep).

    Equivalent to one synchronous step in effect, but expressed as the
    in-place scatter of the asynchronous kernel; kept separate because the
    tiled/parallel asynchronous variants build on the same scatter.
    Returns True when at least one cell toppled.

    *window* slices the sweep to a sub-rectangle of the interior; exact
    iff the window contains every unstable cell (writes land in the
    window's one-cell halo via the offset slices, so no growth is needed).
    The sink is only drained when the halo can reach the frame, i.e. when
    the window touches the border.
    """
    d = grid.data
    if window is not None:
        y0, y1, x0, x1 = window
        ys = slice(y0 + 1, y1 + 1)
        xs = slice(x0 + 1, x1 + 1)
        inner = d[ys, xs]
        div = inner >> 2
        if not div.any():
            return False
        inner &= 3
        d[ys, x0:x1] += div            # west
        d[ys, x0 + 2 : x1 + 2] += div  # east
        d[y0:y1, xs] += div            # north
        d[y0 + 2 : y1 + 2, xs] += div  # south
        if _touches_border(window, grid.height, grid.width):
            grid.drain_sink()
        return True

    inner = d[1:-1, 1:-1]
    div = inner >> 2
    if not div.any():
        return False
    inner &= 3
    d[1:-1, :-2] += div   # west
    d[1:-1, 2:] += div    # east
    d[:-2, 1:-1] += div   # north
    d[2:, 1:-1] += div    # south
    grid.drain_sink()
    return True


def async_tile_relax(grid: Grid2D, tile: Tile, *, max_rounds: int | None = None) -> int:
    """Topple inside *tile* until the tile is internally stable.

    Surplus grains land in the one-cell halo around the tile (neighbouring
    tiles, or the sink frame for border tiles) and are *not* processed
    here — the caller's outer loop picks them up, which is what makes the
    lazy/tiled asynchronous variant correct.

    Returns the number of vectorised topple rounds performed (0 means the
    tile was already stable).
    """
    return async_tile_relax_array(grid.data, tile, max_rounds=max_rounds)


def async_tile_relax_array(d: np.ndarray, tile: Tile, *, max_rounds: int | None = None) -> int:
    """:func:`async_tile_relax` on a raw framed ``(H+2, W+2)`` array.

    This form is what worker processes run: they hold shared-memory planes,
    not :class:`Grid2D` objects.
    """
    ys = slice(tile.y0 + 1, tile.y1 + 1)
    xs = slice(tile.x0 + 1, tile.x1 + 1)
    sub = d[ys, xs]
    rounds = 0
    while True:
        div = sub >> 2
        if not div.any():
            return rounds
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise RuntimeError(f"tile {tile.index} did not stabilise in {max_rounds} rounds")
        sub &= 3
        d[ys, tile.x0 : tile.x1] += div            # west neighbours
        d[ys, tile.x0 + 2 : tile.x1 + 2] += div    # east
        d[tile.y0 : tile.y1, xs] += div            # north
        d[tile.y0 + 2 : tile.y1 + 2, xs] += div    # south


def toppling_count(grid: Grid2D) -> int:
    """Number of cells that would topple right now (>= 4 grains)."""
    return int((grid.interior >= 4).sum())


# -- tile-kernel registration for the process backend ---------------------------
#
# ProcessBackend workers execute picklable TileTask specs; these adapters
# resolve a spec's plane indices against the shared planes and call the
# kernels above.  Workers are forked after import, so they inherit the
# registry.


def _sync_tile_kernel(planes, task) -> bool:
    return sync_tile(planes[task.src], planes[task.dst], task.tile)


def _sync_tile_nc_kernel(planes, task) -> None:
    return sync_tile_nc(planes[task.src], planes[task.dst], task.tile)


def _async_tile_relax_kernel(planes, task) -> int:
    return async_tile_relax_array(planes[task.src], task.tile)


def _sync_tile_k_kernel(planes, task) -> None:
    # task.arg carries the fused step count k (None/0 degrades to 1)
    return sync_tile_k_array(planes[task.src], planes[task.dst], task.tile, int(task.arg or 1))


register_tile_kernel("sync_tile", _sync_tile_kernel)
register_tile_kernel("sync_tile_nc", _sync_tile_nc_kernel)
# in-place relaxation spills grains into neighbouring tiles' halo bands on
# the same plane: edge-adjacent tiles genuinely conflict, by construction
# (the wave partition serialises them) — the certifier must see the tag
register_tile_kernel("async_tile_relax", _async_tile_relax_kernel, tags=("racy-by-design",))
register_tile_kernel("sync_tile_k", _sync_tile_k_kernel)

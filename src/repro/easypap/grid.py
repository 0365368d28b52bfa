"""2D computation grids with a sink border.

EASYPAP kernels operate on an ``N x M`` cellular automaton whose border
cells are connected to a special *sink* cell: grains that topple off the
edge vanish.  :class:`Grid2D` realises this as an ``(N+2) x (M+2)`` numpy
array whose 1-cell frame is the sink.  Kernels may freely write into the
frame (the asynchronous sandpile kernel pushes grains there); the sink is
drained with :meth:`drain_sink`, which also reports how many grains it
absorbed so conservation can be checked exactly.  The synchronous kernels
never write it, so their steppers drain it once, when built.

The interior is exposed as a *view* (``grid.interior``) so vectorised
kernels can update it in place without copies, per the numpy optimisation
guidance ("use views, not copies").
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = ["Grid2D"]


class Grid2D:
    """An ``height x width`` integer grid framed by a one-cell sink border.

    Parameters
    ----------
    height, width:
        Interior dimensions (both >= 1).
    dtype:
        Cell dtype; defaults to ``int64`` which comfortably holds the
        25 000-grain initial pile of Fig. 1a.
    """

    __slots__ = ("_data", "height", "width", "sink_absorbed")

    def __init__(self, height: int, width: int, dtype=np.int64) -> None:
        if height < 1 or width < 1:
            raise ConfigurationError(f"grid dimensions must be >= 1, got {height}x{width}")
        self.height = int(height)
        self.width = int(width)
        self._data = np.zeros((self.height + 2, self.width + 2), dtype=dtype)
        #: grains removed from the border so far (see :meth:`drain_sink`)
        self.sink_absorbed = 0

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_interior(cls, interior: np.ndarray) -> "Grid2D":
        """Build a grid whose interior is a copy of *interior*."""
        arr = np.asarray(interior)
        if arr.ndim != 2:
            raise ConfigurationError(f"interior must be 2D, got shape {arr.shape}")
        g = cls(arr.shape[0], arr.shape[1], dtype=arr.dtype)
        g.interior[...] = arr
        return g

    def copy(self) -> "Grid2D":
        """Deep copy (interior, border contents, and sink counter)."""
        g = Grid2D(self.height, self.width, dtype=self._data.dtype)
        g._data[...] = self._data
        g.sink_absorbed = self.sink_absorbed
        return g

    # -- views ----------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The full ``(H+2, W+2)`` array including the sink frame."""
        return self._data

    @property
    def interior(self) -> np.ndarray:
        """Writable view of the interior (no sink frame)."""
        return self._data[1:-1, 1:-1]

    @property
    def shape(self) -> tuple[int, int]:
        """Interior shape ``(height, width)``."""
        return (self.height, self.width)

    def swap_buffer(self, buffer: np.ndarray) -> np.ndarray:
        """Install *buffer* as the grid's storage, returning the old array.

        Used by double-buffered (synchronous) steppers to flip planes
        without copying.  *buffer* must match the full framed shape.
        """
        if buffer.shape != self._data.shape or buffer.dtype != self._data.dtype:
            raise ConfigurationError(
                f"buffer {buffer.shape}/{buffer.dtype} incompatible with "
                f"grid {self._data.shape}/{self._data.dtype}"
            )
        old = self._data
        self._data = buffer
        return old

    # -- sink management --------------------------------------------------------

    def border_sum(self) -> int:
        """Total grains currently sitting in the sink frame."""
        d = self._data
        return int(d.take(_frame_index(d.shape)).sum())

    def drain_sink(self) -> int:
        """Zero the sink frame, return the number of grains absorbed now.

        The absorbed count is accumulated in :attr:`sink_absorbed` so that
        ``interior.sum() + sink_absorbed`` is invariant across a simulation.
        The frame is gathered and zeroed through one cached flat index per
        plane shape.
        """
        d = self._data
        index = _frame_index(d.shape)
        absorbed = int(d.take(index).sum())
        d.put(index, 0)
        self.sink_absorbed += absorbed
        return absorbed

    # -- queries ----------------------------------------------------------------

    def total_grains(self) -> int:
        """Grains in the interior (the sink frame is not counted)."""
        return int(self.interior.sum())

    def is_stable(self) -> bool:
        """True when every interior cell holds at most 3 grains."""
        return bool((self.interior < 4).all())

    def unstable_count(self) -> int:
        """Number of interior cells with >= 4 grains."""
        return int((self.interior >= 4).sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid2D):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.interior, other.interior)
        )

    def __hash__(self):  # grids are mutable
        raise TypeError("Grid2D is unhashable (mutable)")

    def __repr__(self) -> str:
        return (
            f"Grid2D({self.height}x{self.width}, grains={self.total_grains()}, "
            f"stable={self.is_stable()})"
        )


@lru_cache(maxsize=64)
def _frame_index(shape: tuple[int, int]) -> np.ndarray:
    """Flat indices of the one-cell frame of a framed plane of *shape*."""
    frame = np.ones(shape, dtype=bool)
    frame[1:-1, 1:-1] = False
    return np.flatnonzero(frame)

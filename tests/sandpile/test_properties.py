"""Property-based tests (hypothesis) for the sandpile invariants.

These pin the library to Dhar's mathematics on *arbitrary* inputs:

* every optimised variant reaches the scalar reference's fixpoint;
* the merged-rectangle ``tiled``/``lazy`` stepper matches the per-tile
  executor stepper step for step, bookkeeping and trace included;
* grains are conserved modulo the sink;
* stabilisation is idempotent and monotone-translation-equivariant;
* the group operation is commutative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.easypap.executor import SequentialBackend
from repro.easypap.grid import Grid2D
from repro.easypap.monitor import Trace
from repro.sandpile.model import center_pile
from repro.sandpile.omp import TiledAsyncStepper, TiledSyncStepper
from repro.sandpile.reference import stabilize_reference
from repro.sandpile.theory import add, stabilize
from repro.sandpile.vectorized import MergedTiledStepper

# keep grids small: the scalar reference is O(cells) Python per sweep
grids = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
    elements=st.integers(0, 12),
)

SETTINGS = dict(max_examples=25, deadline=None)

# the merged-stepper property runs on 1x1 to 40x40 grids, busy or sparse
_shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
_busy = _shapes.flatmap(
    lambda shape: arrays(dtype=np.int64, shape=shape, elements=st.integers(0, 7))
)


@st.composite
def _sparse(draw):
    """A few piles on an empty grid, so the lazy stepper skips tiles."""
    h, w = draw(_shapes)
    interior = np.zeros((h, w), dtype=np.int64)
    for _ in range(draw(st.integers(1, 4))):
        y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        interior[y, x] += draw(st.integers(4, 300))
    return interior


@given(interior=grids)
@settings(**SETTINGS)
def test_vectorized_matches_reference(interior):
    ref = Grid2D.from_interior(interior)
    vec = Grid2D.from_interior(interior)
    stabilize_reference(ref, variant="sync")
    stabilize(vec)
    assert np.array_equal(ref.interior, vec.interior)


@given(interior=grids)
@settings(**SETTINGS)
def test_async_reference_matches_sync_reference(interior):
    a = Grid2D.from_interior(interior)
    b = Grid2D.from_interior(interior)
    stabilize_reference(a, variant="sync")
    stabilize_reference(b, variant="async")
    assert np.array_equal(a.interior, b.interior)


@given(interior=grids, tile_size=st.integers(2, 5), lazy=st.booleans())
@settings(**SETTINGS)
def test_tiled_steppers_match_oracle(interior, tile_size, lazy):
    oracle = stabilize(Grid2D.from_interior(interior))
    for cls in (TiledSyncStepper, TiledAsyncStepper):
        g = Grid2D.from_interior(interior)
        stepper = cls(g, tile_size, lazy=lazy)
        for _ in range(100_000):
            if not stepper():
                break
        assert np.array_equal(g.interior, oracle.interior), cls.__name__


@given(interior=grids)
@settings(**SETTINGS)
def test_conservation_with_sink(interior):
    g = Grid2D.from_interior(interior)
    total0 = g.total_grains()
    stabilize(g)
    assert g.total_grains() + g.sink_absorbed == total0
    assert g.sink_absorbed >= 0


@given(interior=grids)
@settings(**SETTINGS)
def test_stabilize_idempotent(interior):
    once = stabilize(Grid2D.from_interior(interior))
    twice = stabilize(once.copy())
    assert np.array_equal(once.interior, twice.interior)


@given(interior=grids)
@settings(**SETTINGS)
def test_fixpoint_is_stable_and_bounded(interior):
    g = stabilize(Grid2D.from_interior(interior))
    assert g.is_stable()
    assert g.interior.min() >= 0
    assert g.interior.max() <= 3


@given(a=grids, b=grids)
@settings(**SETTINGS)
def test_group_add_commutative(a, b):
    h = min(a.shape[0], b.shape[0])
    w = min(a.shape[1], b.shape[1])
    ga, gb = Grid2D.from_interior(a[:h, :w]), Grid2D.from_interior(b[:h, :w])
    assert np.array_equal(add(ga, gb).interior, add(gb, ga).interior)


@given(grains=st.integers(0, 2000))
@settings(**SETTINGS)
def test_center_pile_symmetric(grains):
    """The centre-pile fixpoint inherits the grid's 4-fold symmetry (Fig. 1a)."""
    g = stabilize(center_pile(9, 9, grains))
    m = g.interior
    assert np.array_equal(m, m[::-1, :])
    assert np.array_equal(m, m[:, ::-1])
    assert np.array_equal(m, m.T)


@given(interior=grids, extra=st.integers(0, 5))
@settings(**SETTINGS)
def test_monotone_in_grains(interior, extra):
    """Adding grains never decreases the total grains lost to the sink."""
    g1 = Grid2D.from_interior(interior)
    g2 = Grid2D.from_interior(interior)
    g2.interior[0, 0] += extra
    stabilize(g1)
    stabilize(g2)
    assert g2.sink_absorbed >= g1.sink_absorbed


@given(interior=st.one_of(_busy, _sparse()), tile_size=st.integers(1, 17), lazy=st.booleans())
@settings(max_examples=40, deadline=None)
def test_merged_tiled_stepper_matches_per_tile_stepper(interior, tile_size, lazy):
    ref_grid, grid = Grid2D.from_interior(interior), Grid2D.from_interior(interior)
    ref_trace, trace = Trace(), Trace()
    ref = TiledSyncStepper(
        ref_grid, tile_size, backend=SequentialBackend(trace=ref_trace), lazy=lazy
    )
    merged = MergedTiledStepper(grid, tile_size, lazy=lazy, trace=trace)
    for _ in range(60):
        changed = ref()
        assert merged() == changed
        assert np.array_equal(grid.data, ref_grid.data)
        assert grid.sink_absorbed == ref_grid.sink_absorbed
        assert (merged.tiles_computed, merged.tiles_skipped) == (
            ref.tiles_computed,
            ref.tiles_skipped,
        )
        assert trace.records == ref_trace.records
        if not changed:
            break

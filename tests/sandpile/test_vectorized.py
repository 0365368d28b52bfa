"""Tests for the whole-grid and split vectorised steppers."""

import numpy as np
import pytest

from repro.easypap.executor import SequentialBackend
from repro.sandpile.model import center_pile, random_uniform, sparse_random
from repro.sandpile.omp import TiledSyncStepper
from repro.sandpile.vectorized import (
    AsyncVecStepper,
    MergedTiledStepper,
    SplitSyncStepper,
    SyncVecStepper,
)


def drive(stepper):
    n = 0
    while stepper():
        n += 1
        assert n < 100_000
    return n


class TestSyncVecStepper:
    def test_fixpoint(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(SyncVecStepper(g))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_iteration_counter(self):
        g = center_pile(8, 8, 16)
        s = SyncVecStepper(g)
        n = drive(s)
        assert s.iterations == n + 1  # the final no-change step also counts


class TestAsyncVecStepper:
    def test_fixpoint(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(AsyncVecStepper(g))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_stable_grid_noop(self):
        g = random_uniform(8, 8, max_grains=3, seed=0)
        assert AsyncVecStepper(g)() is False


class TestSplitSyncStepper:
    @pytest.mark.parametrize("tile_size", [4, 8])
    def test_fixpoint(self, tile_size, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(SplitSyncStepper(g, tile_size))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_inner_outer_counters(self):
        g = center_pile(16, 16, 256)
        s = SplitSyncStepper(g, 4)  # 4x4 tiles: 4 inner, 12 outer
        drive(s)
        assert s.inner_tile_updates > 0
        assert s.outer_tile_updates > 0
        # per iteration: 4 inner vs 12 outer
        assert s.outer_tile_updates == 3 * s.inner_tile_updates

    def test_grid_with_no_inner_tiles(self):
        g = center_pile(8, 8, 64)
        s = SplitSyncStepper(g, 4)  # 2x2 tiles, all touch the border
        drive(s)
        assert s.inner_tile_updates == 0
        assert g.is_stable()

    def test_conservation(self):
        g = center_pile(16, 16, 2000)
        total0 = g.total_grains()
        s = SplitSyncStepper(g, 4)
        while s():
            assert g.total_grains() + g.sink_absorbed == total0

    def test_matches_plain_vec_step_by_step(self):
        # dividing, non-dividing and larger-than-grid tile sizes
        for tile_size in (4, 3, 5, 7, 9, 16, 17):
            a = random_uniform(16, 16, max_grains=20, seed=4)
            b = a.copy()
            sa, sb = SyncVecStepper(a), SplitSyncStepper(b, tile_size)
            n_inner, n_outer = len(sb.tiles.inner_tiles()), len(sb.tiles.outer_tiles())
            for step in range(1, 51):
                ca, cb = sa(), sb()
                assert ca == cb
                assert np.array_equal(a.data, b.data)
                assert a.sink_absorbed == b.sink_absorbed
                assert sb.inner_tile_updates == step * n_inner
                assert sb.outer_tile_updates == step * n_outer
                if not ca:
                    break


class TestMergedTiledStepper:
    def test_grid_edit_then_reset_matches_per_tile_stepper(self):
        # skipped tiles are left unwritten, so an edit made between calls
        # must reach the next iterations through lazy_flags.reset()
        a = sparse_random(40, 40, n_piles=2, pile_grains=300, seed=3)
        b = a.copy()
        ref = TiledSyncStepper(a, 8, backend=SequentialBackend(), lazy=True)
        merged = MergedTiledStepper(b, 8, lazy=True)
        for step in range(400):
            if step == 30:
                for grid, stepper in ((a, ref), (b, merged)):
                    grid.interior[35, 35] += 50
                    stepper.lazy_flags.reset()
            changed = ref()
            assert merged() == changed
            assert np.array_equal(a.data, b.data)
            assert a.sink_absorbed == b.sink_absorbed
            if not changed and step > 30:
                break
        assert b.is_stable()

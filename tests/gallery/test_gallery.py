"""Tests for the gallery kernels (heat diffusion, Game of Life).

Both assignments register tile kernels *without* hand-written footprint
declarations — test_symbolic.py covers their certification; here we check
the numerics: the tiled registry-driven stepper must match the vec
variant and the plain whole-interior reference step for step.
"""

import numpy as np
import pytest

import repro.gallery  # noqa: F401 - registers variants and tile kernels
from repro.common.errors import ConfigurationError
from repro.easypap.executor import ProcessBackend
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import get_variant
from repro.gallery.heat import ALPHA, heat_step
from repro.gallery.life import life_step


def random_heat_grid(height, width, seed=0):
    g = Grid2D(height, width, dtype=np.float64)
    g.interior[...] = np.random.default_rng(seed).random((height, width))
    return g


def random_life_grid(height, width, seed=0):
    g = Grid2D(height, width)
    g.interior[...] = np.random.default_rng(seed).integers(0, 2, (height, width))
    return g


class TestHeat:
    def test_single_step_matches_reference(self):
        g = random_heat_grid(16, 16, seed=1)
        expect = g.data.copy()
        heat_step(g.data.copy(), expect)
        stepper = get_variant("heat", "tiled").fn(g, tile_size=5)
        stepper()
        np.testing.assert_allclose(g.interior, expect[1:-1, 1:-1])
        stepper.close()

    def test_tiled_matches_vec(self):
        a = random_heat_grid(33, 29, seed=7)
        b = a.copy()
        vec = get_variant("heat", "vec").fn(a)
        tiled = get_variant("heat", "tiled").fn(b, tile_size=8)
        for _ in range(5):
            vec()
            tiled()
        np.testing.assert_allclose(b.interior, a.interior)
        tiled.close()

    def test_heat_flows_toward_cold_boundary(self):
        # absorbing zero frame: total interior heat strictly decreases
        g = random_heat_grid(12, 12, seed=3)
        before = g.interior.sum()
        stepper = get_variant("heat", "vec").fn(g)
        assert stepper() is True
        assert g.interior.sum() < before

    def test_all_zero_grid_reports_no_change(self):
        g = Grid2D(10, 10, dtype=np.float64)
        stepper = get_variant("heat", "tiled").fn(g, tile_size=4)
        assert stepper() is False
        stepper.close()

    @pytest.mark.parametrize("variant", ["vec", "tiled"])
    def test_integer_grid_rejected(self, variant):
        with pytest.raises(ConfigurationError, match="float"):
            get_variant("heat", variant).fn(Grid2D(8, 8))

    def test_jacobi_update_formula(self):
        # single hot cell: neighbours each receive alpha of it
        g = Grid2D(5, 5, dtype=np.float64)
        g.interior[2, 2] = 1.0
        stepper = get_variant("heat", "vec").fn(g)
        stepper()
        assert g.interior[2, 2] == pytest.approx(1.0 - 4 * ALPHA)
        assert g.interior[1, 2] == pytest.approx(ALPHA)
        assert g.interior[2, 1] == pytest.approx(ALPHA)


class TestLife:
    def test_blinker_oscillates_with_period_two(self):
        g = Grid2D(9, 9)
        g.interior[4, 3:6] = 1
        start = g.interior.copy()
        stepper = get_variant("life", "tiled").fn(g, tile_size=4)
        assert stepper() is True  # horizontal -> vertical
        assert np.array_equal(g.interior, start.T)
        assert stepper() is True  # vertical -> horizontal
        assert np.array_equal(g.interior, start)
        stepper.close()

    def test_glider_translates_diagonally(self):
        glider = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
        g = Grid2D(12, 12)
        g.interior[1:4, 1:4] = glider
        stepper = get_variant("life", "vec").fn(g)
        for _ in range(4):  # one full glider period = +1 row, +1 col
            stepper()
        expect = np.zeros((12, 12), dtype=g.interior.dtype)
        expect[2:5, 2:5] = glider
        assert np.array_equal(g.interior, expect)

    def test_tiled_matches_vec(self):
        a = random_life_grid(24, 17, seed=11)
        b = a.copy()
        vec = get_variant("life", "vec").fn(a)
        tiled = get_variant("life", "tiled").fn(b, tile_size=5)
        for _ in range(6):
            vec()
            tiled()
        assert np.array_equal(b.interior, a.interior)
        tiled.close()

    def test_still_life_reports_no_change(self):
        g = Grid2D(8, 8)
        g.interior[3:5, 3:5] = 1  # block
        stepper = get_variant("life", "tiled").fn(g, tile_size=4)
        assert stepper() is False
        assert g.interior[3:5, 3:5].sum() == 4
        stepper.close()

    def test_frame_is_absorbing(self):
        # a cell pushed against the frame sees dead neighbours outside
        g = Grid2D(6, 6)
        g.interior[0, 0:3] = 1
        expect = g.data.copy()
        life_step(g.data.copy(), expect)
        stepper = get_variant("life", "vec").fn(g)
        stepper()
        assert np.array_equal(g.interior, expect[1:-1, 1:-1])
        assert g.data[0].sum() == 0 and g.data[:, 0].sum() == 0


@pytest.mark.skipif(not ProcessBackend.available(), reason="fork/shared_memory unavailable")
class TestTiledOnWorkerProcesses:
    """The gallery's tiled variants on worker processes: the planes move
    into shared memory and the source plane alternates every step, so
    several steps match the in-process run bit for bit."""

    @pytest.mark.parametrize("kernel", ["life", "heat"])
    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    def test_tiled_matches_sequential_run(self, kernel, policy):
        make = random_life_grid if kernel == "life" else random_heat_grid
        a = make(21, 18, seed=5)
        b = a.copy()
        sequential = get_variant(kernel, "tiled").fn(a, tile_size=4)
        on_processes = get_variant(kernel, "tiled").fn(
            b, tile_size=4, backend=ProcessBackend(2, policy)
        )
        try:
            for _ in range(5):
                assert on_processes() == sequential()
                assert np.array_equal(b.data, a.data)
        finally:
            on_processes.close()
            sequential.close()
        b.interior[0, 0] += 1  # detached from shared memory: still a usable grid

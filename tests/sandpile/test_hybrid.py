"""Tests for the hybrid CPU+GPU stepper."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.obs import Tracer
from repro.sandpile.gpu import DeviceModel
from repro.sandpile.hybrid import CpuModel, HybridStepper
from repro.sandpile.model import center_pile, random_uniform


def drive(stepper):
    n = 0
    while stepper():
        n += 1
        assert n < 100_000
    return n


class TestCpuModel:
    def test_tile_cost(self):
        from repro.easypap.tiling import TileGrid

        cpu = CpuModel(cell_rate=1e6)
        t = TileGrid(8, 8, 4)[0]
        assert cpu.tile_cost(t) == pytest.approx(16 / 1e6)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            CpuModel(0.0)


class TestHybridCorrectness:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_fixpoint_matches_oracle(self, lazy, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(HybridStepper(g, tile_size=6, nworkers=2, lazy=lazy))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_split_position_does_not_change_result(self, small_random_grid, small_random_stable):
        for split in (1, 2, 3):
            g = small_random_grid.copy()
            s = HybridStepper(g, tile_size=6, nworkers=2, rebalance=False)
            s.split = split
            drive(s)
            assert np.array_equal(g.interior, small_random_stable.interior)

    def test_conservation(self):
        g = center_pile(16, 16, 900)
        total0 = g.total_grains()
        s = HybridStepper(g, tile_size=4, nworkers=2)
        while s():
            assert g.total_grains() + g.sink_absorbed == total0

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            HybridStepper(center_pile(8, 8, 10), nworkers=0)


class TestLoadBalancing:
    def test_rebalances_towards_fast_gpu(self):
        # device 1000x faster than a core: the split should migrate up,
        # handing the GPU more tile rows
        g = center_pile(64, 64, 50_000)
        s = HybridStepper(
            g,
            tile_size=8,
            nworkers=2,
            cpu=CpuModel(cell_rate=1e6),
            device=DeviceModel(launch_overhead=1e-9, cell_rate=1e9),
        )
        initial = s.split
        drive(s)
        assert s.split < initial

    def test_rebalances_towards_many_cpus(self):
        # device slower than the CPU pool: split should migrate down
        g = center_pile(64, 64, 50_000)
        s = HybridStepper(
            g,
            tile_size=8,
            nworkers=8,
            cpu=CpuModel(cell_rate=1e9),
            device=DeviceModel(launch_overhead=1e-3, cell_rate=1e6),
        )
        initial = s.split
        drive(s)
        assert s.split > initial

    def test_rebalance_disabled_keeps_split(self):
        g = center_pile(32, 32, 5000)
        s = HybridStepper(g, tile_size=8, nworkers=2, rebalance=False)
        initial = s.split
        drive(s)
        assert s.split == initial

    def test_virtual_time_positive(self):
        g = center_pile(16, 16, 400)
        s = HybridStepper(g, tile_size=4, nworkers=2)
        drive(s)
        assert s.virtual_time > 0


class TestOwnerMap:
    def test_cpu_and_gpu_regions_visible(self):
        g = random_uniform(32, 32, max_grains=16, seed=6)
        s = HybridStepper(g, tile_size=8, nworkers=2, rebalance=False)
        s()
        owners = s.last_owner_map
        gpu_id = s.gpu_worker_id
        assert (owners[: s.split] < gpu_id).all()       # CPU workers above
        assert (owners[: s.split] >= 0).all()
        assert (owners[s.split :] == gpu_id).all()      # device below

    def test_lazy_leaves_stable_tiles_black(self):
        g = center_pile(32, 32, 100)  # activity only near the centre
        s = HybridStepper(g, tile_size=4, nworkers=2, lazy=True)
        s()  # first iteration computes everything (all dirty)
        s()  # second iteration: far tiles are stable and skipped
        assert (s.last_owner_map == -1).any()

    def test_trace_kinds(self):
        trace = Tracer()
        g = center_pile(16, 16, 400)
        s = HybridStepper(g, tile_size=4, nworkers=2, trace=trace, rebalance=False)
        s()
        kinds = {span.cat for span in trace.spans()}
        assert kinds == {"compute", "gpu"}

    def test_traced_iterations_lie_end_to_end(self):
        trace = Tracer()
        s = HybridStepper(center_pile(32, 32, 2_000), tile_size=4, nworkers=2, trace=trace)
        for _ in range(6):
            s()
        by_iteration: dict[int, list] = {}
        for span in trace.spans():
            by_iteration.setdefault(span.args["iteration"], []).append(span)
        assert sorted(by_iteration) == list(range(6))
        for i in range(5):
            end = max(span.end for span in by_iteration[i])
            assert min(span.start for span in by_iteration[i + 1]) >= end
        # the device tiles of one launch share the launch interval
        gpu = [span for span in by_iteration[5] if span.cat == "gpu"]
        assert len({(span.start, span.end) for span in gpu}) == 1

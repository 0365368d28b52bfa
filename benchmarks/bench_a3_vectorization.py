"""A3 — Assignment 3: SIMD vectorisation and GPU execution.

"Outer tiles need special attention, because they contain border cells
which should not be computed (sink) ... students are invited to implement
a separate variant for inner tiles to enable aggressive compiler
optimizations."  Plus the GPU port and the lazy-GPU student extension.

Reports: scalar vs numpy-vectorised vs inner/outer split wall times, and
the simulated device's virtual-time behaviour (dense grid: throughput
wins; sparse grid: the lazy device shrinks launches).
"""

import time

import numpy as np
import pytest

from conftest import emit, once
from repro.common.tables import Table
from repro.sandpile import (
    GpuStepper,
    LazyGpuStepper,
    random_uniform,
    run_to_fixpoint,
    sparse_random,
)
from repro.sandpile.gpu import DeviceModel
from repro.sandpile.reference import sync_step_reference

SIZE = 128


@pytest.fixture(scope="module")
def wall_times():
    rows = []
    for name, runner in [
        ("scalar reference", lambda g: sync_step_reference(g)),
        ("numpy vec", lambda g: run_to_fixpoint(g, "sandpile", "vec", max_iterations=1)),
        ("inner/outer split", lambda g: run_to_fixpoint(g, "sandpile", "split", tile_size=32, max_iterations=1)),
    ]:
        g = random_uniform(SIZE, SIZE, max_grains=64, seed=8)
        t0 = time.perf_counter()
        try:
            runner(g)
        except RuntimeError:
            pass  # max_iterations=1 trips the fixpoint guard; one step ran
        rows.append((name, time.perf_counter() - t0))
    return rows


def test_a3_vectorization_report(benchmark, wall_times):
    t = Table(["variant", "seconds/iteration", "speedup"], title=f"A3: one iteration, {SIZE}x{SIZE}")
    base = wall_times[0][1]
    for name, dt in wall_times:
        t.add_row([name, dt, base / dt])
    once(benchmark, lambda: emit("A3 - vectorisation", t.render()))
    assert wall_times[1][1] < base / 5
    assert wall_times[2][1] < base / 5


def test_a3_gpu_report(benchmark):
    device = DeviceModel()
    rows = []
    # dense: whole-grid launches amortise the overhead
    dense = random_uniform(256, 256, max_grains=16, seed=1)
    full = GpuStepper(dense.copy(), device)
    while full():
        pass
    rows.append(("dense 256x256, full launches", full.launches, full.cells_computed, full.virtual_time))
    # sparse: the lazy device launches over the active bbox only
    sparse = sparse_random(256, 256, n_piles=1, pile_grains=2048, seed=3)
    ref = sparse.copy()
    full2 = GpuStepper(ref, device)
    while full2():
        pass
    lazy = LazyGpuStepper(sparse, device)
    while lazy():
        pass
    rows.append(("sparse 256x256, full launches", full2.launches, full2.cells_computed, full2.virtual_time))
    rows.append(("sparse 256x256, lazy launches", lazy.launches, lazy.cells_computed, lazy.virtual_time))

    t = Table(["run", "launches", "cells computed", "virtual seconds"], title="A3: simulated device")
    for row in rows:
        t.add_row(row)
    once(benchmark, lambda: emit("A3 - GPU (simulated device)", t.render()))

    assert np.array_equal(ref.interior, sparse.interior)  # lazy GPU exact
    assert lazy.cells_computed < full2.cells_computed / 4
    assert lazy.virtual_time < full2.virtual_time


def test_bench_vec_step(benchmark):
    from repro.sandpile.vectorized import SyncVecStepper

    g = random_uniform(512, 512, max_grains=64, seed=8)
    stepper = SyncVecStepper(g)
    benchmark(stepper)


def test_bench_split_step(benchmark):
    from repro.sandpile.vectorized import SplitSyncStepper

    g = random_uniform(512, 512, max_grains=64, seed=8)
    stepper = SplitSyncStepper(g, 64)
    benchmark(stepper)

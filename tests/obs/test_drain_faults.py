"""Multiprocess span collection must survive worker crashes.

Workers record per-tile spans locally and the parent absorbs them at
harvest time; a killed worker must not cost the trace a single tile.
These kill real pool workers (``os._exit`` in the child), so they carry
the ``faults`` marker and run in the dedicated CI job.
"""

import pytest

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.executor import BatchSpec, ProcessBackend, TaskBatch
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import TileGrid
from repro.obs import Tracer, to_chrome_trace
from repro.obs.adapters.easypap import degradation_to_instants
from repro.sandpile.kernels import sync_tile

from tests.obs.chrome_checks import assert_valid_chrome_doc

pytestmark = pytest.mark.faults

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def make_sync_batch(be, g, scratch, tiles):
    """A closure batch mirroring the picklable sync-tile spec."""
    p0, p1 = be.bind_planes(g.data, scratch)

    def mk(tile):
        def task():
            return sync_tile(p0, p1, tile)

        return task

    spec = BatchSpec("sync_tile", 0, 1, (g.height, g.width, 4, 4))
    return TaskBatch([mk(t) for t in tiles], tiles=tiles, spec=spec)


class TestDrainLosesNoSpans:
    @needs_processes
    def test_worker_crash_keeps_every_tile_span(self):
        n = 8
        g = Grid2D(n, n)
        g.interior[:] = 6
        scratch = g.data.copy()
        tiles = list(TileGrid(n, n, 4))

        tracer = Tracer()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2}, max_fires=1)
        with ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log,
            fault_injector=injector, trace=tracer,
        ) as be:
            be.run(make_sync_batch(be, g, scratch, tiles), iteration=1)
            assert injector.fires == 1  # a worker really died

        # every tile's span survived the crash and the pool rebuild
        assert len(tracer) == len(tiles)
        assert {(s.args["tile_ty"], s.args["tile_tx"]) for s in tracer.spans()} == {
            (t.ty, t.tx) for t in tiles
        }

        # the recovery actions join the same timeline as instants, and the
        # whole thing still exports cleanly
        rebuilds = log.by_action("pool-rebuild")
        assert len(rebuilds) >= 1
        assert degradation_to_instants(tracer, log) == len(list(log))
        assert len(tracer.instants()) >= len(rebuilds)
        assert_valid_chrome_doc(to_chrome_trace(tracer))

    def test_tracer_drain_absorb_is_lossless_in_memory(self):
        """The obs-level half of the same guarantee, substrate-free."""
        workers = []
        for w in range(3):
            t = Tracer(process=f"worker-{w}")
            for i in range(4):
                t.add_span(f"tile:{w}:{i}", start=float(i), end=i + 0.5, tid=w)
            workers.append(t)
        parent = Tracer(process="main")
        for t in workers:
            parent.absorb(t.drain())
        assert all(len(t) == 0 for t in workers)
        assert len(parent.spans()) == 12
        names = {s.name for s in parent.spans()}
        assert names == {f"tile:{w}:{i}" for w in range(3) for i in range(4)}

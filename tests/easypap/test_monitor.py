"""Tests for tile-span recording and the per-iteration queries over it."""

import numpy as np

from repro.easypap.display import tile_owners
from repro.easypap.executor import TILE_PID, add_tile_span
from repro.obs import Tracer, ascii_timeline, summarize
from repro.obs.records import record_to_row


def rec(tracer, iteration=0, task=0, worker=0, start=0.0, end=1.0, kind="compute", ty=-1, tx=-1):
    add_tile_span(
        tracer, iteration=iteration, task=task, worker=worker, start=start, end=end,
        kind=kind, tile_ty=ty, tile_tx=tx,
    )


def at(iteration):
    return lambda s: s.args["iteration"] == iteration


def summary(tracer, iteration=0):
    return summarize(tracer, pid=TILE_PID, where=at(iteration))


class TestTrace:
    def test_add_and_len(self):
        t = Tracer()
        rec(t)
        rec(t, task=1)
        rec(t, task=2)
        assert len(t) == 3
        assert {s.pid for s in t.spans()} == {TILE_PID}

    def test_iterations_sorted(self):
        t = Tracer()
        rec(t, iteration=5)
        rec(t, iteration=1)
        assert sorted({s.args["iteration"] for s in t.spans()}) == [1, 5]
        assert summary(t, 1).span_count == summary(t, 5).span_count == 1

    def test_iteration_records_sorted_by_start(self):
        """The timeline places spans by start time, not by recording order."""
        t = Tracer()
        rec(t, task=1, start=2.0, end=3.0)
        rec(t, task=0, start=0.0, end=1.0)
        view = ascii_timeline(t, width=7, pid=TILE_PID, where=at(0))
        assert "|###.###|" in view


class TestSummary:
    def test_basic_stats(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=2.0)
        rec(t, task=1, worker=1, start=0.0, end=1.0)
        s = summary(t)
        assert s.span_count == 2
        assert s.makespan == 2.0
        assert s.total_busy == 3.0
        assert s.worker_busy == {0: 2.0, 1: 1.0}
        assert s.imbalance > 0.0

    def test_balanced_zero_imbalance(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=1.0)
        rec(t, task=1, worker=1, start=0.0, end=1.0)
        assert summary(t).imbalance == 0.0

    def test_empty_iteration(self):
        s = summary(Tracer(), 42)
        assert s.span_count == 0
        assert s.makespan == 0.0
        assert s.imbalance == 0.0


class TestOwnerMap:
    def test_basic(self):
        t = Tracer()
        rec(t, worker=3, ty=0, tx=1)
        rec(t, task=1, worker=1, ty=1, tx=0)
        owners = tile_owners(t, 2, 2, 0)
        assert owners[0, 1] == 3
        assert owners[1, 0] == 1
        assert owners[0, 0] == -1  # not computed: black in Fig. 4

    def test_out_of_range_tiles_ignored(self):
        t = Tracer()
        rec(t, ty=99, tx=0)
        owners = tile_owners(t, 2, 2, 0)
        assert (owners == -1).all()

    def test_dtype(self):
        owners = tile_owners(Tracer(), 3, 3, 0)
        assert owners.dtype == np.int32


class TestGantt:
    def test_contains_workers_and_marks(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=1.0)
        rec(t, task=1, worker=1, start=0.5, end=1.0, kind="gpu")
        out = ascii_timeline(t, pid=TILE_PID, where=at(0))
        lanes = [line.split("|")[0].strip() for line in out.splitlines()[2:]]
        assert lanes == ["0", "1"]
        assert "#" in out and "G" in out

    def test_empty(self):
        assert "<no spans" in ascii_timeline(Tracer(), pid=TILE_PID, where=at(3))


class TestExport:
    def test_to_rows(self):
        """A tile span saves as the row ``repro-trace`` and Perfetto read."""
        t = Tracer()
        rec(t, iteration=2, task=7, worker=1, ty=3, tx=4)
        (span,) = t.spans()
        assert record_to_row(span) == {
            "type": "span",
            "schema": 1,
            "name": "i2:t7",
            "cat": "compute",
            "pid": "easypap",
            "tid": 1,
            "start": 0.0,
            "end": 1.0,
            "args": {"iteration": 2, "task": 7, "tile_ty": 3, "tile_tx": 4},
            "span_id": 1,
        }

"""Tests for tile-trace persistence and comparison (the Fig. 3 tooling)."""

from repro.easypap.executor import TILE_PID, add_tile_span
from repro.obs import Tracer, diff_summaries, summarize


def make_trace(task_count, duration, iteration=5):
    t = Tracer()
    for i in range(task_count):
        add_tile_span(
            t, iteration=iteration, task=i, worker=i % 2,
            start=i * duration, end=(i + 1) * duration, tile_ty=0, tile_tx=i,
        )
    return t


def summary(tracer, iteration=5):
    return summarize(tracer, pid=TILE_PID, where=lambda s: s.args["iteration"] == iteration)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = make_trace(4, 1.5)
        path = tmp_path / "trace.jsonl"
        t.save_jsonl(path)
        loaded = Tracer.load_jsonl(path)
        assert loaded.spans() == t.spans()

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        Tracer().save_jsonl(path)
        assert len(Tracer.load_jsonl(path)) == 0

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        make_trace(2, 1.0).save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(Tracer.load_jsonl(path)) == 2


class TestComparison:
    def test_ratios(self):
        fine = make_trace(8, 1.0)     # 8 tasks, makespan 8
        coarse = make_trace(4, 2.0)   # 4 tasks, makespan 8
        cmp = diff_summaries(summary(fine), summary(coarse))
        assert cmp.span_ratio == 2.0
        assert cmp.makespan_ratio == 1.0

    def test_render_mentions_names(self):
        cmp = diff_summaries(
            summary(make_trace(2, 1.0)), summary(make_trace(2, 1.0)),
            left_name="32x32", right_name="64x64",
        )
        out = cmp.render()
        assert "32x32" in out and "64x64" in out
        assert "spans" in out and "imbalance" in out

    def test_empty_side(self):
        cmp = diff_summaries(summary(make_trace(3, 1.0)), summary(Tracer()))
        assert cmp.span_ratio == float("inf")
        assert cmp.right.span_count == 0

    def test_both_empty(self):
        cmp = diff_summaries(summary(Tracer(), 0), summary(Tracer(), 0))
        assert cmp.span_ratio == 1.0
        assert cmp.makespan_ratio == 1.0

    def test_real_fig3_shape(self):
        """The iteration diff of actual lazy runs reproduces the Fig. 3 verdict."""
        from repro.sandpile import run_to_fixpoint, sparse_random

        traces = {}
        iters = {}
        for ts in (8, 16):
            g = sparse_random(64, 64, n_piles=4, pile_grains=512, seed=3)
            tr = Tracer()
            r = run_to_fixpoint(g, "asandpile", "omp", tile_size=ts, nworkers=4,
                                lazy=True, trace=tr)
            traces[ts] = tr
            iters[ts] = r.iterations
        mid = min(iters.values()) // 2
        cmp = diff_summaries(summary(traces[8], mid), summary(traces[16], mid))
        assert cmp.span_ratio > 1.0  # finer tiles -> more tasks

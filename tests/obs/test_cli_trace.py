"""Tests for the ``repro-trace`` CLI (``python -m repro.cli trace ...``)."""

import json

import pytest

from repro.cli import _load_any_trace, main, trace_main
from repro.easypap.executor import TILE_PID, add_tile_span
from repro.obs import Tracer, summarize

from tests.obs.chrome_checks import assert_valid_chrome_doc


@pytest.fixture
def obs_session(tmp_path):
    """An obs session file with two lanes and a flow."""
    t = Tracer(process="demo")
    a = t.add_span("produce", start=0.0, end=1.0, tid=0)
    b = t.add_span("consume", start=1.5, end=2.0, tid=1)
    t.flow("hand-off", a, ("demo", 1, b.start))
    path = tmp_path / "session.jsonl"
    t.save_jsonl(path)
    return path


#: task-record rows as earlier versions saved them (one per tile, no ``type``)
TASK_RECORDS = [
    {"iteration": 1, "task": 0, "worker": 0, "start": 0.0, "end": 1.0,
     "kind": "compute", "tile_ty": 0, "tile_tx": 0, "schema": 1},
    {"iteration": 1, "task": 1, "worker": 1, "start": 0.25, "end": 0.75,
     "kind": "compute", "tile_ty": 0, "tile_tx": 1, "schema": 1},
    {"iteration": 2, "task": 0, "worker": 0, "start": 1.0, "end": 1.5,
     "kind": "gpu", "tile_ty": 0, "tile_tx": 0, "schema": 1},
]


@pytest.fixture
def easypap_file(tmp_path):
    """An easypap task-record file (no ``type`` keys -> auto-detected)."""
    path = tmp_path / "easypap.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in TASK_RECORDS))
    tracer = Tracer()
    for row in TASK_RECORDS:
        add_tile_span(tracer, **{k: v for k, v in row.items() if k != "schema"})
    return tracer, path


class TestExport:
    def test_chrome_json_out(self, obs_session, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert trace_main(["export", str(obs_session), "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert_valid_chrome_doc(doc)
        assert doc["otherData"]["process"] == "demo"

    def test_ascii(self, obs_session, capsys):
        assert trace_main(["export", str(obs_session), "--ascii", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "2 spans" in out and "legend:" in out and "% busy" in out

    def test_easypap_file_autodetected(self, easypap_file, tmp_path):
        _, path = easypap_file
        out = tmp_path / "chrome.json"
        assert trace_main(["export", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert_valid_chrome_doc(doc)
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 3

    def test_easypap_file_rows_become_tile_spans(self, easypap_file):
        """Every task-record field survives as the tile span recorded today."""
        _, path = easypap_file
        spans = _load_any_trace(str(path)).spans()
        assert [
            {"iteration": s.args["iteration"], "task": s.args["task"], "worker": s.tid,
             "start": s.start, "end": s.end, "kind": s.cat,
             "tile_ty": s.args["tile_ty"], "tile_tx": s.args["tile_tx"], "schema": 1}
            for s in spans
        ] == TASK_RECORDS
        assert [s.name for s in spans] == ["i1:t0", "i1:t1", "i2:t0"]
        assert {s.pid for s in spans} == {TILE_PID}

    def test_no_output_requested_is_an_error(self, obs_session, capsys):
        assert trace_main(["export", str(obs_session)]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestSummary:
    def test_matches_trace_summarize(self, easypap_file, capsys):
        """Acceptance: CLI numbers == the iteration query on the same spans."""
        tracer, path = easypap_file
        assert trace_main(["summary", str(path), "--iteration", "1"]) == 0
        out = capsys.readouterr().out

        obs = summarize(tracer, where=lambda s: s.args.get("iteration") == 1)
        assert obs.span_count == 2
        assert obs.makespan == pytest.approx(1.0)
        assert obs.worker_busy == pytest.approx({0: 1.0, 1: 0.5})
        # and the CLI printed exactly that summary
        assert out == obs.render(title=f"{path} iteration 1") + "\n"

    def test_whole_trace_summary(self, obs_session, capsys):
        assert trace_main(["summary", str(obs_session)]) == 0
        assert "2 spans" in capsys.readouterr().out


class TestDiff:
    def test_side_by_side(self, obs_session, easypap_file, capsys):
        _, right = easypap_file
        assert trace_main(["diff", str(obs_session), str(right)]) == 0
        out = capsys.readouterr().out
        assert f"{obs_session} vs {right}" in out
        assert "makespan" in out and "ratio" in out

    def test_iteration_filter_applies_to_both_sides(self, easypap_file, capsys):
        _, path = easypap_file
        assert trace_main(["diff", str(path), str(path), "--iteration", "1"]) == 0
        out = capsys.readouterr().out
        assert f"{path} iteration 1 vs {path} iteration 1" in out
        # iteration 1 has 2 of the 3 records on each side
        assert "spans     : 2 vs 2" in out


class TestDispatch:
    def test_module_dispatcher_routes_trace(self, obs_session, capsys):
        assert main(["trace", "summary", str(obs_session)]) == 0
        assert "2 spans" in capsys.readouterr().out

    def test_usage_lists_trace(self, capsys):
        assert main(["--help"]) == 0
        assert "trace" in capsys.readouterr().out

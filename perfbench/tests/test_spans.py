"""Self-time subtraction, parent derivation and attribution of spans."""

import json

import pytest

from spans import Span, Spans, parents, self_time, union_length


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(5, 6), (0, 10)]) == 10


def test_self_time_subtracts_clipped_children():
    parent = Span(0, "p", "a", 1, 0.0, 10.0)
    children = [
        Span(1, "c1", "b", 1, 1.0, 3.0),
        Span(2, "c2", "b", 1, 2.0, 5.0),  # overlaps c1: covered once
        Span(3, "c3", "b", 1, 8.0, 12.0),  # clipped at the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10 - 4 - 2)
    assert self_time(parent, []) == 10.0


def test_parent_is_innermost_containing_span_of_the_same_job():
    spans = [
        Span(0, "root", "job", 1, 0.0, 10.0),
        Span(1, "a", "x", 1, 0.0, 4.0),
        Span(2, "a.1", "y", 1, 1.0, 2.0),
        Span(3, "b", "x", 1, 5.0, 9.0),
        Span(4, "other job", "job", 2, 1.0, 2.0),
    ]
    assert parents(spans) == {0: None, 1: 0, 2: 1, 3: 0, 4: None}


def _one_job() -> Spans:
    s = Spans()
    s.add("root", "job", 7, 0.0, 10.0)
    s.add("a", "x", 7, 0.0, 4.0)
    s.add("a.1", "y", 7, 1.0, 2.0)
    s.add("b", "x", 7, 5.0, 9.0)
    return s


def test_layer_self_times_sum_to_job_wall_time():
    att = _one_job().attribution()
    assert att["jobs"] == 1
    assert att["wall_s"] == 10.0
    assert att["self_s"] == {"x": pytest.approx(3.0 + 4.0), "y": pytest.approx(1.0)}
    assert att["unattributed_s"] == pytest.approx(2.0)
    assert att["unattributed_ratio"] == pytest.approx(0.2)
    assert att["worst_error"] == pytest.approx(0.0)
    assert att["within_tolerance"]


def test_overlapping_siblings_show_as_attribution_error():
    s = _one_job()
    s.add("c", "x", 7, 3.0, 6.0)  # straddles a and b: counted twice
    att = s.attribution()
    assert att["worst_error"] > 0.05
    assert not att["within_tolerance"]


def test_chrome_trace_export(tmp_path):
    s = _one_job()
    path = tmp_path / "t.json"
    s.write(path)
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 4
    first = min(spans, key=lambda e: (e["ts"], -e["dur"]))
    assert first["name"] == "root" and first["dur"] == pytest.approx(10e6)
    assert {e["args"]["job"] for e in spans} == {7}
    inner = next(e for e in spans if e["name"] == "a.1")
    assert inner["args"]["parent"] == 1
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert names == {"job", "x", "y"}

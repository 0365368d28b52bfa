"""Benchmark-side spans: recorded in memory, self times, Perfetto export.

A span is one timed call into a layer of the program, made from the
benchmark's own code.  Spans of one job share its ``job`` id.  The span
that caused another is the innermost span of the same job whose interval
contains it; it is derived when the spans are analysed, so a span timed on
a worker thread needs no handle on its parent.  Nothing is written until
:meth:`Spans.write` runs at the end of a traced run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: the layer self times of one job must sum to its wall time within this share
ATTRIBUTION_TOLERANCE = 0.01


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    job: int
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def parents(spans) -> dict[int, int | None]:
    """Parent span id of every span: the innermost same-job span containing it.

    Ties between identical intervals go to the span recorded first.
    """
    by_job: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_job[s.job].append(s)
    out: dict[int, int | None] = {}
    for members in by_job.values():
        stack: list[Span] = []
        for s in sorted(members, key=lambda s: (s.start, -s.end, s.sid)):
            while stack and not (stack[-1].start <= s.start and s.end <= stack[-1].end):
                stack.pop()
            out[s.sid] = stack[-1].sid if stack else None
            stack.append(s)
    return out


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class Spans:
    """Thread-safe in-memory span store (one per traced run)."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, name, layer, job, start, end, **args) -> None:
        """Record a finished span."""
        with self._lock:
            self._spans.append(Span(len(self._spans), name, layer, job, start, end, args))

    def __len__(self) -> int:
        return len(self._spans)

    def all(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, parent_of: dict[int, int | None]) -> dict[int, float]:
        """Self time of every span, by span id."""
        spans = self.all()
        kids: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if parent_of[s.sid] is not None:
                kids[parent_of[s.sid]].append(s)
        return {s.sid: self_time(s, kids[s.sid]) for s in spans}

    def attribution(self) -> dict:
        """Self time per layer over every job, and how well it adds up.

        A root span is the job's wall time; its own self time is the part
        no layer span covers ("unattributed").  ``worst_error`` is the
        largest per-job gap between the summed self times and the wall
        time, as a share of the wall time.
        """
        spans = self.all()
        parent_of = parents(spans)
        selfs = self.self_times(parent_of)
        by_layer: dict[str, float] = defaultdict(float)
        per_job_sum: dict[int, float] = defaultdict(float)
        wall: dict[int, float] = {}
        unattributed = 0.0
        for s in spans:
            per_job_sum[s.job] += selfs[s.sid]
            if parent_of[s.sid] is None:
                # a second root in a job means a span escaped its parent;
                # the per-job error below then shows it
                wall[s.job] = max(wall.get(s.job, 0.0), s.duration)
                unattributed += selfs[s.sid]
            else:
                by_layer[s.layer] += selfs[s.sid]
        total_wall = sum(wall.values())
        worst = max(
            (abs(per_job_sum[j] - w) / w for j, w in wall.items() if w > 0), default=0.0
        )
        return {
            "jobs": len(wall),
            "wall_s": total_wall,
            "self_s": dict(sorted(by_layer.items())),
            "unattributed_s": unattributed,
            "unattributed_ratio": unattributed / total_wall if total_wall else 0.0,
            "worst_error": worst,
            "within_tolerance": worst <= ATTRIBUTION_TOLERANCE,
        }

    # -- export ------------------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        """Chrome trace-event rows (Perfetto opens them): one track per layer."""
        spans = self.all()
        if not spans:
            return []
        t0 = min(s.start for s in spans)
        parent_of = parents(spans)
        layers = sorted({s.layer for s in spans})
        tid = {layer: i + 1 for i, layer in enumerate(layers)}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid[layer],
             "args": {"name": layer}}
            for layer in layers
        ]
        for s in spans:
            events.append({
                "ph": "X", "name": s.name, "cat": s.layer, "pid": 1, "tid": tid[s.layer],
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"job": s.job, "span": s.sid, "parent": parent_of[s.sid], **s.args},
            })
        return events

    def write(self, path) -> None:
        """Write the spans as a Chrome trace-event JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}, fh)


def render_attribution(att: dict, title: str) -> str:
    """A terminal table of self time per layer, as a share of job wall time."""
    wall = att["wall_s"] or 1.0
    lines = [f"{title}: {att['jobs']} jobs, {att['wall_s'] * 1e3:.1f} ms job wall time"]
    rows = list(att["self_s"].items()) + [("(unattributed)", att["unattributed_s"])]
    for layer, secs in sorted(rows, key=lambda r: -r[1]):
        lines.append(f"  {layer:<28} {secs * 1e3:10.2f} ms  {secs / wall:7.1%}")
    verdict = "within" if att["within_tolerance"] else "OUTSIDE"
    lines.append(
        f"  self times sum to wall time within {att['worst_error']:.2e} per job, "
        f"{verdict} the tolerance of {ATTRIBUTION_TOLERANCE:.0e}"
    )
    return "\n".join(lines)

"""easypap adapter: the substrate's side records on its tile timeline.

Every easypap backend and tiled stepper records its tile spans straight
into a :class:`~repro.obs.tracer.Tracer`
(:func:`~repro.easypap.executor.add_tile_span`, track group
:data:`EASYPAP_PID`).  This module projects the substrate's other
records onto the same track group:

* :func:`frontier_to_counters` — a frontier stepper's ``window_log`` as
  counter tracks, so the shrinking frontier renders next to the lanes;
* :func:`degradation_to_instants` — a
  :class:`~repro.common.resilience.DegradationLog` (pool rebuilds, thread
  fallbacks, retries) as instant events, so recovery actions appear on
  the same timeline as the tile spans they interrupted.
"""

from __future__ import annotations

from repro.common.resilience import DegradationLog
from repro.easypap.executor import TILE_PID as EASYPAP_PID
from repro.obs.clock import WallClock
from repro.obs.tracer import Tracer

__all__ = [
    "EASYPAP_PID",
    "degradation_to_instants",
    "frontier_to_counters",
]


def frontier_to_counters(
    tracer: Tracer,
    window_log,
    *,
    pid: str = EASYPAP_PID,
    name: str = "frontier",
) -> int:
    """Project a frontier stepper's ``window_log`` onto counter tracks.

    *window_log* is the ``(iteration, (y0, y1, x0, x1), active_tiles)``
    list kept by :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper`
    (and anything mirroring its contract).  Each entry becomes one counter
    sample — ``window_cells`` and ``active_tiles`` series, stamped with
    the iteration as the timestamp — so the shrinking frontier renders as
    a decaying curve next to the worker lanes of the same run.  Returns
    the number of samples written.
    """
    n = 0
    for iteration, window, active in window_log:
        y0, y1, x0, x1 = window
        tracer.counter(
            name,
            {
                "window_cells": (y1 - y0) * (x1 - x0),
                "active_tiles": active,
            },
            ts=float(iteration),
            pid=pid,
        )
        n += 1
    return n


def degradation_to_instants(
    tracer: Tracer,
    log: DegradationLog,
    *,
    pid: str = EASYPAP_PID,
    tid: int | str = "resilience",
) -> int:
    """Project degradation events onto instant records; returns the count.

    Events stamped with an absolute ``perf_counter`` time are rebased
    onto the tracer's wall clock when it has an epoch; unstamped events
    (older producers) land at t=0.
    """
    clock = tracer.clock if isinstance(getattr(tracer, "clock", None), WallClock) else None
    n = 0
    for ev in log:
        ts = ev.ts
        if ts and clock is not None:
            ts = clock.rebase(ts)
        tracer.instant(
            f"{ev.component}:{ev.action}",
            ts=max(ts, 0.0),
            cat="degradation",
            pid=pid,
            tid=tid,
            args={"reason": ev.reason, "attempt": ev.attempt, **ev.detail},
        )
        n += 1
    return n

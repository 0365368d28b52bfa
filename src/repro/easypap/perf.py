"""Performance-measurement campaigns (EASYPAP's "performance graph plot tools").

EASYPAP ships tooling to sweep a kernel over thread counts / tile sizes /
policies and plot the resulting curves; students build their reports from
those plots.  This module is the data side of that tooling: a
:class:`PerfCampaign` runs a :class:`~repro.common.job.Job` factory over
a parameter grid, collects per-run metrics (wall time, iterations,
virtual makespan when a simulated backend is used), and produces
speedup/efficiency series plus a rendered table — everything a report
needs short of the actual pixels.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.common.job import Job
from repro.common.tables import Table

__all__ = ["PerfPoint", "PerfCampaign", "speedup_series"]


@dataclass(frozen=True)
class PerfPoint:
    """One measured run of one parameter combination."""

    params: tuple[tuple[str, object], ...]
    wall_seconds: float
    iterations: int
    extras: tuple[tuple[str, float], ...] = ()

    def param(self, name: str):
        """Value of one swept parameter for this point."""
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def extra(self, name: str) -> float:
        """Value of one collected metric for this point."""
        for k, v in self.extras:
            if k == name:
                return v
        raise KeyError(name)


@dataclass
class PerfCampaign:
    """Run a ``params -> Job`` factory over a parameter grid.

    Parameters
    ----------
    factory:
        ``factory(**params) -> Job``, typically a
        :class:`~repro.easypap.job.SandpileJob`.  The factory must build a
        *fresh* problem instance each call, so runs are independent.  Each
        job is run to completion and closed; its wall time includes
        building the stepper, and its iterations are
        ``progress().steps_done``.
    grid:
        ``{param_name: [values...]}``; the campaign runs the full product.
    metrics:
        Optional ``{name: fn(job) -> float}`` evaluated after each run,
        before the job is closed (e.g. lazy skip fraction, virtual time).
    """

    factory: Callable[..., Job]
    grid: dict[str, list] = field(default_factory=dict)
    metrics: dict[str, Callable] = field(default_factory=dict)
    max_iterations: int = 10**7
    points: list[PerfPoint] = field(default_factory=list)

    def run(self) -> list[PerfPoint]:
        """Execute the campaign; returns (and stores) all points."""
        names = sorted(self.grid)
        if not names:
            raise ConfigurationError("empty parameter grid")
        for values in itertools.product(*(self.grid[n] for n in names)):
            params = dict(zip(names, values))
            with self.factory(**params) as job:
                t0 = time.perf_counter()
                job.run(max_steps=self.max_iterations)
                wall = time.perf_counter() - t0
                extras = tuple((k, float(fn(job))) for k, fn in sorted(self.metrics.items()))
            self.points.append(
                PerfPoint(
                    params=tuple(sorted(params.items())),
                    wall_seconds=wall,
                    iterations=job.progress().steps_done,
                    extras=extras,
                )
            )
        return self.points

    # -- views -------------------------------------------------------------------

    def series(self, x_param: str, y: str = "wall_seconds", **fixed) -> list[tuple[object, float]]:
        """Extract an ``(x, y)`` series with the other params fixed.

        *y* is ``wall_seconds``, ``iterations``, or the name of a metric.
        """
        out = []
        for p in self.points:
            if any(p.param(k) != v for k, v in fixed.items()):
                continue
            if y == "wall_seconds":
                val = p.wall_seconds
            elif y == "iterations":
                val = float(p.iterations)
            else:
                val = p.extra(y)
            out.append((p.param(x_param), val))
        out.sort(key=lambda t: t[0])
        return out

    def table(self, title: str = "performance campaign") -> str:
        """All points as an aligned table."""
        if not self.points:
            return "<no points>"
        param_names = [k for k, _ in self.points[0].params]
        extra_names = [k for k, _ in self.points[0].extras]
        t = Table([*param_names, "wall s", "iterations", *extra_names], title=title)
        for p in self.points:
            row = [v for _, v in p.params] + [p.wall_seconds, p.iterations]
            row += [v for _, v in p.extras]
            t.add_row(row)
        return t.render()


def speedup_series(points: list[tuple[object, float]]) -> list[tuple[object, float]]:
    """Convert a (worker-count, time) series into (worker-count, speedup).

    The baseline is the first point's time (usually 1 worker).
    """
    if not points:
        return []
    base = points[0][1]
    if base <= 0:
        raise ConfigurationError("non-positive baseline time")
    return [(x, base / t if t > 0 else float("inf")) for x, t in points]

#!/usr/bin/env python
"""Trace explorer: compare two scheduling policies through `repro.obs`.

The Fig. 3 classroom exercise — "run the same workload under two OpenMP
schedules and explain the Gantt charts" — done with the observability
subsystem instead of eyeballs:

1. stabilise the same sandpile twice on the *simulated* backend (virtual
   clocks, so the comparison is deterministic and machine-independent),
   once with ``policy="static"`` and once with ``policy="dynamic"``;
2. pick the iteration where static scheduling is most imbalanced (lazy
   tile skipping makes per-worker loads uneven) and summarise it under
   both policies;
3. diff the two summaries side by side (makespan ratio, per-lane busy%);
4. render the ASCII timeline of that iteration for each policy;
5. export the two timelines as Chrome trace-event JSON — load them at
   https://ui.perfetto.dev to scrub the same iteration interactively.

Usage::

    python examples/trace_explorer.py [output-dir]
"""

import sys
from pathlib import Path

from repro.easypap.executor import TILE_PID
from repro.obs import Tracer, ascii_timeline, diff_summaries, save_chrome_trace, summarize
from repro.sandpile import center_pile, run_to_fixpoint


def traced_run(policy: str) -> tuple[Tracer, int]:
    """Stabilise the same centre pile under one schedule; return its tracer."""
    grid = center_pile(48, 48, 4_000)
    trace = Tracer()
    result = run_to_fixpoint(
        grid,
        "sandpile",
        "omp",
        tile_size=8,
        nworkers=4,
        policy=policy,
        backend="simulated",
        lazy=True,          # uneven tile activity -> the schedules actually differ
        trace=trace,
    )
    return trace, result.iterations


def at_iteration(iteration: int):
    """Span filter: the tile spans of one iteration."""
    return lambda s: s.pid == TILE_PID and s.args["iteration"] == iteration


def iteration_view(tracer: Tracer, iteration: int) -> Tracer:
    """One iteration's tile spans as their own tracer (timelines, export)."""
    sub = Tracer(process=TILE_PID)
    sub.absorb(filter(at_iteration(iteration), tracer.spans()))
    return sub


def summarize_iteration(tracer: Tracer, iteration: int):
    return summarize(tracer, where=at_iteration(iteration))


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0]) if argv else Path(".")

    tracers = {}
    iterations = 0
    for policy in ("static", "dynamic"):
        tracers[policy], iterations = traced_run(policy)
        print(f"{policy:>8}: stable after {iterations} iterations, "
              f"{summarize(tracers[policy], pid=TILE_PID).span_count} tile tasks traced")

    # the iteration where the static schedule hurts the most: virtual
    # clocks make this a property of the workload, not of this machine
    pick = max(
        range(iterations),
        key=lambda i: summarize_iteration(tracers["static"], i).imbalance,
    )
    print(f"most static-imbalanced iteration: {pick}\n")

    summaries = {p: summarize_iteration(t, pick) for p, t in tracers.items()}
    for policy, s in summaries.items():
        print(s.render(title=f"{policy} iteration {pick}"))
    print()

    diff = diff_summaries(
        summaries["static"], summaries["dynamic"],
        left_name="static", right_name="dynamic",
    )
    print(diff.render())
    print()

    for policy, tracer in tracers.items():
        print(f"{policy} iteration {pick}:")
        print(ascii_timeline(iteration_view(tracer, pick), width=64))
        print()

    for policy, tracer in tracers.items():
        path = out_dir / f"trace_{policy}.json"
        save_chrome_trace(iteration_view(tracer, pick), path)
        print(f"wrote {path} — open it at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Offered-load sweep for ``serve-mix``: where does ``JobService(workers=2)`` saturate?

Usage (from the repository root)::

    python3 perfbench/capacity.py --seed 1 --rates 30,60,120,240 --reps 2

For each offered rate it serves the seed's schedule of the serve-mix job
mix (``servemix.BLOCK_SECONDS`` long) on a fresh service and cache, and
prints the achieved completion rate, due-to-resolution latency in wall
time, queue wait, worker utilisation (busy worker time over
``WORKERS * wall``) and the process's CPU use.  The service is saturated
where the achieved rate falls behind the offered rate and queue wait
grows without bound.  ``servemix.RATE`` is fixed at a stated fraction of
that rate; the benchmark proper serves one rate only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import _import_program  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rates", default="30,60,120,240", help="comma-separated req/s")
    ap.add_argument("--reps", type=int, default=2, help="served repetitions per rate")
    args = ap.parse_args(argv)
    _import_program()
    import servemix
    from stats import percentile
    from yardstick import Speed

    print(f"{'offered/s':>9} {'n':>5} {'done/s':>8} {'p50 ms':>8} {'p90 ms':>8} "
          f"{'wait p90 ms':>11} {'util':>6} {'cpu':>6}")
    for rate in (float(r) for r in args.rates.split(",")):
        schedule = servemix.make_schedule(args.seed, rate=rate)
        rows = []
        for _ in range(args.reps):
            cpu0 = time.process_time()
            run = servemix.serve(schedule, Speed())
            cpu = (time.process_time() - cpu0) / run.wall
            done = [r for r in run.records if r.status == "completed"]
            lat = [r.resolved - (run.t0 + r.req.due) for r in done]
            waits = [r.admitted_at - r.submitted_at for r in done
                     if not r.cached and r.admitted_at is not None]
            rows.append((len(done) / run.wall, percentile(lat, 0.5), percentile(lat, 0.9),
                         percentile(waits, 0.9), servemix.utilisation(run), cpu))
        med = [statistics.median(col) for col in zip(*rows)]
        print(f"{rate:9.0f} {len(schedule):5d} {med[0]:8.1f} {med[1] * 1e3:8.2f} "
              f"{med[2] * 1e3:8.2f} {med[3] * 1e3:11.2f} {med[4]:6.1%} {med[5]:6.1%}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

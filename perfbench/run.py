"""The repository benchmark: one command, three workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fixpoint-inproc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with no tracing; ``--trace 1`` makes a separate traced run that reports the
per-layer metrics, writes the spans as a Chrome trace-event file (open it
in Perfetto) and prints an attribution table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record with provenance goes to ``perfbench/out/``.

Each workload repeats one seeded block of jobs for ``--seconds`` and
reports every job's median over the repetitions.  Reported times are in
reference time (see :mod:`yardstick`), which cancels the host's changes of
CPU speed; the same metrics in wall time are printed next to them and
kept in the run record, with the yardstick probes.

The program is imported from ``src/`` of the checkout this file sits in;
the benchmark refuses to run against any other copy.  A job that fails,
is rejected or cancelled, or returns a wrong result makes the command
exit with code 1.

``--seed held-out`` selects a seed reserved for checking a performance
claim on inputs that were not looked at while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 918_273
#: end-to-end timings are reported at these percentiles
P_MEDIAN, P_TAIL = 0.5, 0.9
SETUP_REPEATS = 5
#: a run repeats its block at least this often, so a median can drop one outlier
MIN_REPS = 3


def _import_program():
    """Put the checkout's ``src/`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}, not {src}")


def _load_manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"benchmark: {path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _slo_ms(manifest: dict, workload: str) -> float:
    """The workload's latency limit, as stated in its ``why`` in BENCHMARK.json.

    The manifest gives a workload only a name and a one-line why, so the
    limit is written there as ``SLO <n> ms``.  Each is set inside its
    workload's latency distribution, so the ratio moves when a share of the
    jobs slows: on a 2-core x86-64 VM the limits are met by about 87%
    (fixpoint-inproc), 86% (fixpoint-procs) and 93% (serve-mix) of jobs.
    """
    for w in manifest["workloads"]:
        if w["name"] == workload:
            m = re.search(r"SLO (\d+(?:\.\d+)?) ms", w["why"])
            if m is None:
                raise SystemExit(f"benchmark: no 'SLO <n> ms' in the why of {workload}")
            return float(m.group(1))
    raise SystemExit(f"benchmark: unknown workload {workload!r}")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    """The largest resident set of the benchmark process or any child it reaped.

    The benchmark process holds the program, the set-up oracles and the
    service; children are the resident sandpile workers, reaped on close.
    """
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# -- workloads ---------------------------------------------------------------------
#
# A workload's ``run_block(outcomes)`` makes one repetition of its seeded job
# sequence and returns a ``stats.Rep``.


def repeat(run_block, out, *, seconds: float | None = None, count: int | None = None):
    """Repeat a block for *seconds* (at least MIN_REPS times) or exactly *count* times."""
    reps = []
    t_start = time.perf_counter()
    while (
        len(reps) < count if count is not None
        else len(reps) < MIN_REPS or time.perf_counter() - t_start < seconds
    ):
        reps.append(run_block(out))
    return reps


class Fixpoint:
    """fixpoint-inproc / fixpoint-procs."""

    def __init__(self, name: str, seed: int, speed) -> None:
        import fixpoint

        self.mod = fixpoint
        if name == "fixpoint-procs":
            self.workers = fixpoint.NWORKERS
            self.wl = fixpoint.FixpointWorkload(fixpoint.PROCS_VARIANTS, fixpoint.PROCS_SIZES,
                                                seed, speed)
        else:
            self.workers = 1
            self.wl = fixpoint.FixpointWorkload(fixpoint.INPROC_VARIANTS,
                                                fixpoint.INPROC_SIZES, seed, speed)

    def setup(self) -> None:
        self.wl.setup()

    def run(self, seconds: float, out):
        return repeat(self.wl.run_block, out, seconds=seconds)

    def load_note(self) -> str:
        return "closed loop, one client, each job submitted when the last one finished"

    @staticmethod
    def span(lat) -> float:
        """How long the block's correct jobs take: one client runs them back to back."""
        return sum(x for x in lat if x is not None)

    def traced(self, seconds: float, spans, out):
        from repro.obs.metrics import MetricsRegistry

        base = self.run(seconds, out)
        traced = self.mod.TracedFixpoint(self.wl, spans, MetricsRegistry())
        reps = repeat(traced.run_block, out, count=len(base))
        return traced.layer_metrics(), base, reps, {"reps": len(reps)}


class ServeMix:
    def __init__(self, name: str, seed: int, speed) -> None:
        import servemix

        self.mod = servemix
        self.seed = seed
        self.speed = speed
        self.workers = servemix.WORKERS
        #: worker utilisation of each untraced repetition
        self.utilisation: list[float] = []

    def setup(self) -> None:
        self.schedule = self.mod.make_schedule(self.seed)
        self.oracle = self.mod.direct_fingerprints(self.schedule)

    def _block(self, out):
        run = self.mod.serve(self.schedule, self.speed)
        self.utilisation.append(self.mod.utilisation(run))
        return self.mod.check(run, self.oracle, out)

    def run(self, seconds: float, out):
        return repeat(self._block, out, seconds=seconds)

    def load_note(self) -> str:
        return (f"offered {self.mod.RATE:g} req/s = 1/3 of the measured saturation rate "
                f"{self.mod.SATURATION_RATE:g} req/s; workers busy "
                f"{statistics.median(self.utilisation):.1%} of the time (median repetition)")

    def span(self, lat) -> float:
        """How long the block takes: from the schedule's origin to the last resolution."""
        return max(req.due + x for req, x in zip(self.schedule, lat) if x is not None)

    def traced(self, seconds: float, spans, out):
        from repro.obs.metrics import MetricsRegistry

        base = self.run(seconds, out)
        probe, registry, runs = self.mod.Probe(spans), MetricsRegistry(), []

        def block(out):
            run = self.mod.serve(self.schedule, self.speed, probe=probe, metrics=registry,
                                 rep=len(runs))
            runs.append(run)
            self.mod.record_spans(run, spans)
            return self.mod.check(run, self.oracle, out)

        reps = repeat(block, out, count=len(base))
        detail = {"reps": len(reps), "requests": len(self.schedule),
                  "service": runs[-1].stats}
        return self.mod.layer_metrics(runs, probe, registry), base, reps, detail


WORKLOADS = {"fixpoint-inproc": Fixpoint, "fixpoint-procs": Fixpoint, "serve-mix": ServeMix}


# -- main ----------------------------------------------------------------------------


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True,
                    help=f"integer input seed, or 'held-out' ({HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, required=True, help="measured run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.seed = HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _timings(reps, base: str, slo_s: float, span) -> dict:
    """The timed end-to-end metrics in one time base, ``"ref"`` or ``"wall"``.

    A job position's latency is its median over the repetitions; a position
    that failed in any repetition has none and misses the SLO.  The block's
    rate is its correct jobs over ``span`` of those medians.
    """
    from stats import MIN_TAIL_SAMPLES, percentile, position_medians, samples_beyond

    positions = position_medians([getattr(rep, base) for rep in reps])
    lat = [x for x in positions if x is not None]
    n = len(lat)
    if n == 0 or samples_beyond(n, P_TAIL) < MIN_TAIL_SAMPLES:
        raise SystemExit(f"benchmark: {n} latency samples cannot support p{P_TAIL * 100:.0f}")
    return {
        "jobs_per_s": n / span(positions),
        "latency_p50_ms": percentile(lat, P_MEDIAN) * 1e3,
        "latency_p90_ms": percentile(lat, P_TAIL) * 1e3,
        "slo_met_ratio": sum(1 for x in lat if x <= slo_s) / len(positions),
    }


def _e2e(manifest, name, workload, all_reps, setup_s) -> tuple[dict, dict, dict]:
    """End-to-end metrics (reference time), the same in wall time, notes, and
    the repetitions they were taken from."""
    from stats import samples_beyond, steady_reps

    slo_s = _slo_ms(manifest, name) / 1e3
    reps = steady_reps(all_reps, max(MIN_REPS, len(all_reps) // 2))
    values = _timings(reps, "ref", slo_s, workload.span)
    values.update(setup_s=setup_s, peak_rss_mb=_peak_rss_mb())
    n = len(reps[0].ref)
    reps_note = (f"median of {len(reps)} of {len(all_reps)} repetitions "
                 f"({len(all_reps) - len(reps)} set aside as slow)")
    notes = {
        "jobs_per_s": f"correct jobs over the block's span, each job the {reps_note}",
        "latency_p50_ms": f"n={n} job positions, each the {reps_note}",
        "latency_p90_ms": f"n={n}, {samples_beyond(n, P_TAIL)} beyond",
        "slo_met_ratio": f"limit {slo_s * 1e3:g} ms",
        "setup_s": f"median of {SETUP_REPEATS}",
        "peak_rss_mb": "max of this process and its reaped workers",
    }
    return values, _timings(reps, "wall", slo_s, workload.span), notes, reps


def _table(rows) -> str:
    return "\n".join(f"  {name:<40} {value:>14.6g} {unit:<6} {note}"
                     for name, value, unit, note in rows)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _reap_children()


def _main(argv) -> int:
    args = _parse(argv)
    manifest = _load_manifest()
    _import_program()
    import numpy

    from spans import Spans, render_attribution
    from stats import Outcomes, position_medians
    from yardstick import Speed

    speed = Speed()
    workload = WORKLOADS[args.workload](args.workload, args.seed, speed)
    nproc = _nproc()
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "held_out": args.seed == HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "workers": workload.workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    if workload.workers > nproc:
        raise SystemExit(f"benchmark: {workload.workers} workers on {nproc} cores refused")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in provenance.items()))

    intervals = []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            speed.probe()
        t0 = time.monotonic()
        workload.setup()
        intervals.append((t0, time.monotonic()))
    for _ in range(3):
        speed.probe()
    setups = [speed.scaled(t0, t1) for t0, t1 in intervals]
    setup_s = statistics.median(setups)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance, "setup_runs_s": setups}
    out = Outcomes()
    if args.trace == 0:
        reps = workload.run(args.seconds, out)
        values, wall_values, notes, kept = _e2e(manifest, args.workload, workload, reps,
                                                setup_s)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in manifest["end_to_end"]}
        rows = [(k, v["value"], v["unit"], notes.get(k, "")) for k, v in metrics.items()]
        rows.append(("failed_ratio", out.failed_ratio, "ratio",
                     f"{out.bad} of {out.attempted} attempted"))
        rows += [(f"{k} (wall time)", v, metrics[k]["unit"], "")
                 for k, v in wall_values.items()]
        print(f"end-to-end, {args.workload}, seed {args.seed}, {len(reps)} repetitions; "
              f"{workload.load_note()}:")
        print(_table(rows))
        record.update(wall_time_metrics=wall_values, load=workload.load_note(),
                      setup_runs_wall_s=[t1 - t0 for t0, t1 in intervals],
                      rep_yardstick_ms=[rep.yard * 1e3 for rep in reps],
                      position_latency_ms={
                          base: [None if x is None else x * 1e3
                                 for x in position_medians([getattr(r, base) for r in kept])]
                          for base in ("ref", "wall")})
    else:
        # an untraced and a traced half over the same inputs, for the overhead ratio
        spans = Spans()
        measured, base, reps, detail = workload.traced(args.seconds / 2, spans, out)
        traced_s = sum(x for x in position_medians([r.ref for r in reps]) if x is not None)
        base_s = sum(x for x in position_medians([r.ref for r in base]) if x is not None)
        measured["obs.trace_overhead_ratio"] = traced_s / base_s
        att = spans.attribution()
        measured["obs.unattributed_ratio"] = att["unattributed_ratio"]
        measured["obs.attribution_error"] = att["worst_error"]
        trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        spans.write(trace_path)
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in manifest["per_layer"]}
        rows = [(k, v["value"], v["unit"], "" if k in measured else "(not on this path)")
                for k, v in metrics.items()]
        print(f"per-layer, {args.workload}, seed {args.seed}:")
        print(_table(rows))
        print(render_attribution(att, f"self time by layer ({len(spans)} spans)"))
        _answers(args.workload, measured)
        print(f"trace written to {trace_path.relative_to(ROOT)} (Chrome trace events)")
        record.update(attribution=att, detail=detail)
    record.update(outcomes=out.as_dict(), metrics=metrics, yardstick=speed.summary())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    if not out.balanced():
        raise SystemExit(f"benchmark: outcomes do not add up: {out.as_dict()}")
    # a failed, rejected or cancelled job would drop out of the latency
    # percentiles, so it fails the run just as a wrong result does
    correct = out.bad == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.bad, "metrics": metrics}))
    return 0 if correct else 1


def _answers(workload: str, m: dict) -> None:
    """The two attribution questions the performance ledger must answer."""
    if workload == "serve-mix":
        over, comp = m["serve.overhead_share"], m["serve.compute_share"]
        print(f"serve overhead larger than compute for the small-job mix: "
              f"{'yes' if over > comp else 'no'} (of admit-to-finish time: overhead "
              f"{over:.1%}, Job.step {comp:.1%}, the rest JobSpec.build)")
    if "easypap.dispatch_share" in m:
        print(f"share of a pfrontier k=1 iteration that is dispatch: "
              f"{m['easypap.dispatch_share']:.1%} (against in-process frontier, same inputs)")


def _reap_children() -> None:
    """Wait for every child process; none may outlive the benchmark."""
    import gc
    import multiprocessing

    # drop unreachable backends now, so none unlinks shared memory after this
    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)
    _stop_resource_tracker()


def _stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the tracker process that shared memory starts, and wait for it.

    It exits when the last write end of its pipe closes.  Left to interpreter
    exit, it ends only after the benchmark has gone and is never reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


if __name__ == "__main__":
    sys.exit(main())

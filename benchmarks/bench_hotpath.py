"""Hot-path regression baseline for the active-frontier execution engine.

Measures, for each kernel variant, (a) the per-iteration cost on a busy
grid and (b) the run-to-fixpoint wall time of the paper's two headline
configurations — Fig. 1a (25 000 grains dropped on the centre cell of a
128x128 grid) and Fig. 1b (uniform-4 everywhere) — and checks every
fixpoint bit-identical against the oracle before trusting any number.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --write   # new baseline
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check   # CI perf smoke

``--write`` records ``BENCH_hotpath.json`` at the repo root.  ``--check``
re-measures and compares *ratios normalised to the vec variant measured in
the same process* against the committed baseline, so the gate tracks
algorithmic regressions rather than machine speed; a variant whose ratio
grows by more than ``--tolerance`` (default 30%) fails the run, and so
does an in-process tiled variant above ``TILED_CEIL`` times vec.  It also
fails when ``pfrontier`` segments run as parallel regions send
``PF_SEG_COMMANDS_CEIL`` or more worker commands per grid iteration, or
are not faster per iteration than the same runs stepped call by call.

Under pytest the module only runs the (fast, untimed) bit-identity check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_hotpath.json"

SIZE = 128
GRAINS_1A = 25_000

#: parallel-frontier section: grid side, steps timed, worker counts swept
PF_SIZE = 512
PF_STEPS = 12
PF_WORKERS = (1, 2, 4)
#: temporal-blocking depth of the measured pfrontier configuration: each
#: stepper() call is a one-step region advancing k fused iterations
PF_K = 4
#: frontier-aware vs full-grid process stepping on the concentrated
#: scenario must stay at least this fast (algorithmic, core-count-free)
PF_FULL_FLOOR = 2.0
#: busy-grid pfrontier@1 must stay within this factor of the in-process
#: frontier yardstick — the persistent-worker + temporal-blocking runtime
#: makes process dispatch nearly free, so this floor is core-count-free
PF_SOLO_CEIL = 1.3
#: the shipped pfrontier configuration: one band per worker advancing
#: PF_K fused iterations per step on the persistent-worker runtime
PF_OPTS = {"tile_size": 32, "k": PF_K}

#: segment section: pfrontier on PF_SEG_WORKERS processes to the fixpoint of
#: small grids (the sizes the repo benchmark's fixpoint-procs workload uses),
#: as one region per run (run_to_fixpoint) and as one region per stepper() call
PF_SEG_SIZES = (12, 14, 16, 18, 20, 22, 24, 26)
PF_SEG_KS = (1, 4)
PF_SEG_WORKERS = 2
#: a segment sends one command per worker plus the lease's attach/detach,
#: so over a whole run it must stay under this many per grid iteration
PF_SEG_COMMANDS_CEIL = 0.1

#: the in-process tiled variants run merged-rectangle gathers, so each must
#: stay within this factor of vec per iteration on the busy grid
TILED_CEIL = 1.5
TILED_VARIANTS = ("tiled", "lazy", "split")

#: the fig1a floor measures the frontier against per-tile lazy execution:
#: the omp stepper on the sequential backend, one task per active tile
FIG1A_FLOOR = 3.0
FIG1A_LAZY_REF = {"backend": "sequential", "lazy": True, "tile_size": 32}

#: (kernel, variant, factory options) for every measured hot path
VARIANTS: list[tuple[str, str, dict]] = [
    ("sandpile", "vec", {}),
    ("sandpile", "frontier", {}),
    ("sandpile", "split", {"tile_size": 32}),
    ("sandpile", "tiled", {"tile_size": 32}),
    ("sandpile", "lazy", {"tile_size": 32}),
    ("asandpile", "vec", {}),
    ("asandpile", "frontier", {}),
]


def _label(kernel: str, variant: str) -> str:
    return variant if kernel == "sandpile" else f"a{variant}"


def _scenarios():
    from repro.sandpile.model import center_pile, uniform

    return {
        "fig1a": lambda: center_pile(SIZE, SIZE, GRAINS_1A),
        "fig1b": lambda: uniform(SIZE, SIZE, 4),
    }


def _oracle_fixpoints():
    from repro.sandpile.theory import stabilize

    return {name: stabilize(make()) for name, make in _scenarios().items()}


def measure_run_to_fixpoint() -> dict:
    """Wall time to the stable fixpoint per scenario per variant."""
    from repro.sandpile.simulate import run_to_fixpoint

    oracles = _oracle_fixpoints()
    out: dict[str, dict] = {}
    for name, make in _scenarios().items():
        rows = {}
        for kernel, variant, opts in VARIANTS:
            grid = make()
            t0 = time.perf_counter()
            result = run_to_fixpoint(grid, kernel, variant, **opts)
            dt = time.perf_counter() - t0
            oracle = oracles[name]
            if not np.array_equal(grid.interior, oracle.interior):
                raise SystemExit(
                    f"{kernel}/{variant} fixpoint differs from the oracle on {name}"
                )
            rows[_label(kernel, variant)] = {
                "seconds": dt,
                "iterations": result.iterations,
                "grains_retained": grid.total_grains(),
                "sink_absorbed": grid.sink_absorbed,
            }
        out[name] = rows
    return out


def _time_steps(kernel: str, variant: str, opts: dict, steps: int) -> float:
    from repro.sandpile.model import random_uniform
    from repro.sandpile.simulate import make_stepper

    grid = random_uniform(SIZE, SIZE, max_grains=64, seed=3)
    stepper = make_stepper(grid, kernel, variant, **opts)
    t0 = time.perf_counter()
    for _ in range(steps):
        stepper()
    dt = time.perf_counter() - t0
    close = getattr(stepper, "close", None)
    if close is not None:
        close()
    return dt


def measure_per_iteration(steps: int = 60, rounds: int = 5, only: set | None = None) -> dict:
    """Per-iteration cost on a busy (many unstable cells) grid.

    This is the number the CI regression gate compares, so it must be
    reproducible on noisy shared runners: every round times the variant
    back-to-back with the vec yardstick, and the ratio is formed from the
    *fastest* round of each side — the cleanest window either kernel saw.
    (Medians are not enough here: contention bursts hit memory-heavy
    kernels harder than in-place ones, skewing any single paired round.)
    *only* restricts the sweep to a subset of variant labels (used by the
    check mode's re-measure pass).
    """
    out = {}
    for kernel, variant, opts in VARIANTS:
        label = _label(kernel, variant)
        if only is not None and label not in only:
            continue
        pairs, dts = [], []
        for _ in range(rounds):
            pairs.append(_time_steps("sandpile", "vec", {}, steps))
            dts.append(_time_steps(kernel, variant, opts, steps))
        out[label] = {
            "seconds_per_iteration": min(dts) / steps,
            "ratio_to_vec": 1.0 if label == "vec" else min(dts) / min(pairs),
        }
    return out


def _pf_time_steps(variant: str, opts: dict, steps: int, grid_factory) -> float:
    """Per-grid-iteration seconds of *variant* over *steps* calls.

    Normalised by the stepper's own iteration counter, not the call count:
    a temporally-blocked stepper (``k > 1``) advances ``k`` grid iterations
    per call, and the comparison across variants is cost per *iteration of
    the sandpile*, the unit every variant shares.
    """
    from repro.sandpile.simulate import make_stepper

    grid = grid_factory()
    stepper = make_stepper(grid, "sandpile", variant, **opts)
    try:
        t0 = time.perf_counter()
        for _ in range(steps):
            stepper()
        dt = time.perf_counter() - t0
        advanced = getattr(stepper, "iterations", steps) or steps
        return dt / advanced
    finally:
        close = getattr(stepper, "close", None)
        if close is not None:
            close()


def measure_pf_busy(workers=PF_WORKERS, steps: int = PF_STEPS, rounds: int = 3) -> dict:
    """Busy-grid rows: ``frontier@1`` and each ``pfrontier@w``, paired.

    Every round times the in-process frontier and ``pfrontier@w`` back to
    back, as :func:`measure_per_iteration` pairs each variant with vec, and
    a ratio is formed from the fastest round of each side of its own pairs,
    so both sides saw the same stretch of host speed.
    """
    from repro.sandpile.model import random_uniform

    cores = os.cpu_count() or 1
    busy = lambda: random_uniform(PF_SIZE, PF_SIZE, max_grains=64, seed=3)  # noqa: E731
    frontier: dict[int, list[float]] = {w: [] for w in workers}
    pf: dict[int, list[float]] = {w: [] for w in workers}
    for _ in range(rounds):
        for w in workers:
            frontier[w].append(_pf_time_steps("frontier", {}, steps, busy))
            pf[w].append(_pf_time_steps("pfrontier", {**PF_OPTS, "nworkers": w}, steps, busy))
    best = min(min(v) for v in frontier.values())
    rows = {"frontier@1": {"seconds_per_iteration": best, "ratio_to_frontier": 1.0}}
    for w in workers:
        row = {
            "seconds_per_iteration": min(pf[w]),
            "ratio_to_frontier": min(pf[w]) / min(frontier[w]),
        }
        if w > cores:
            # measured for the record, but the machine cannot actually run
            # w workers concurrently — flag it so nobody trusts the ratio
            row["flagged"] = f"{w} workers on {cores} core(s): oversubscribed, not gated"
        rows[f"pfrontier@{w}"] = row
    return rows


def pf_solo_ratio(pf: dict) -> float:
    """Busy ``pfrontier@1`` over ``frontier@1``, re-measured with 9 paired
    rounds when over ``PF_SOLO_CEIL`` (a real regression reproduces, a
    slow stretch of the host does not); *pf* records the re-measured row."""
    solo = pf["busy"]["pfrontier@1"]["ratio_to_frontier"]
    if solo > PF_SOLO_CEIL:
        print(f"re-measuring busy pfrontier@1 ({solo:.2f}x) with 9 paired rounds")
        pf["busy"]["pfrontier@1"] = measure_pf_busy(workers=(1,), rounds=9)["pfrontier@1"]
        solo = pf["busy"]["pfrontier@1"]["ratio_to_frontier"]
    return solo


def measure_pfrontier(steps: int = PF_STEPS, rounds: int = 3) -> dict:
    """The parallel-frontier section: worker scaling + frontier-vs-full.

    Two scenarios on a ``PF_SIZE``-square grid:

    * **busy** — every cell loaded, the window covers the whole grid, so
      ``pfrontier@N`` vs the single-worker ``frontier`` yardstick measures
      pure parallel-dispatch scaling (paired rounds, :func:`measure_pf_busy`).
      Only meaningful with real cores; the check gate applies the
      @4-beats-frontier floor when ``os.cpu_count() >= 4`` (ratios are
      still recorded everywhere).
    * **concentrated** — a centre pile whose dirty bbox stays tiny, where
      frontier-aware chunk plans (``pfrontier``) skip almost every tile a
      full-grid process stepper (``omp`` on the process backend) ships to
      its workers each iteration.  The win is algorithmic — fewer tasks
      planned, shipped, and computed — so it holds on any core count and
      is gated unconditionally at ``PF_FULL_FLOOR``x (min-of-rounds).

    These numbers live in their own section rather than the drift-compared
    ``per_iteration`` table: process-pool timings on shared runners are
    too noisy for a ±tolerance ratio gate, so the gate re-measures floors
    fresh instead of diffing against the committed baseline.
    """
    from repro.sandpile.model import center_pile

    concentrated = lambda: center_pile(PF_SIZE, PF_SIZE, GRAINS_1A)  # noqa: E731
    busy_rows = measure_pf_busy(steps=steps, rounds=rounds)
    full = min(
        _pf_time_steps(
            "omp",
            {"policy": "static", "tile_size": 32, "backend": "process", "nworkers": 4},
            steps,
            concentrated,
        )
        for _ in range(rounds)
    )
    part = min(
        _pf_time_steps("pfrontier", {**PF_OPTS, "nworkers": 4}, steps, concentrated)
        for _ in range(rounds)
    )
    return {
        "cores": os.cpu_count() or 1,
        "size": PF_SIZE,
        "k": PF_K,
        "busy": busy_rows,
        "concentrated": {
            "pfull@4_seconds_per_iteration": full,
            "pfrontier@4_seconds_per_iteration": part,
            "frontier_vs_full": full / part,
        },
    }


def _pf_segment_grids():
    """Every PF_SEG_SIZES grid twice (a centre pile, random 0-7 grains) with its oracle."""
    from repro.sandpile.model import center_pile, random_uniform
    from repro.sandpile.theory import stabilize

    grids = [center_pile(n, n, n * n // 2) for n in PF_SEG_SIZES]
    grids += [random_uniform(n, n, max_grains=7, seed=n) for n in PF_SEG_SIZES]
    return [(g, stabilize(g.copy()).interior.copy()) for g in grids]


def _pf_segment_pass(grids, k: int, segments: bool) -> tuple[float, int, float]:
    """``(seconds, grid iterations, worker commands)`` to every grid's fixpoint.

    ``segments`` runs each grid through ``run_to_fixpoint`` (one parallel
    region per run); otherwise each grid is stepped through ``stepper()``
    calls (one region per call).  Commands come from the backend's
    ``metrics=`` registry, every mode counted (lease attach/detach too).
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.sandpile.simulate import make_stepper, run_to_fixpoint

    reg = MetricsRegistry()
    opts = {"tile_size": 8, "nworkers": PF_SEG_WORKERS, "k": k, "metrics": reg}
    seconds, iterations = 0.0, 0
    for grid, oracle in grids:
        g = grid.copy()
        t0 = time.perf_counter()
        if segments:
            iterations += run_to_fixpoint(g, "sandpile", "pfrontier", **opts).iterations
        else:
            stepper = make_stepper(g, "sandpile", "pfrontier", **opts)
            try:
                while stepper():
                    iterations += k
            finally:
                stepper.close()
        seconds += time.perf_counter() - t0
        if not np.array_equal(g.interior, oracle):
            raise SystemExit(f"pfrontier k={k} fixpoint differs from the oracle")
    commands = sum(row["value"] for row in reg.get("easypap_dispatch_commands_total").samples())
    return seconds, iterations, commands


def measure_pf_segments(rounds: int = 5) -> dict:
    """Per grid iteration, segments vs stepper() calls, paired rounds.

    Each round times the segment path and the call path back to back over
    the same grids; each side keeps its fastest round.
    """
    grids = _pf_segment_grids()
    out: dict = {
        "cores": os.cpu_count() or 1,
        "nworkers": PF_SEG_WORKERS,
        "tile_size": 8,
        "sizes": list(PF_SEG_SIZES),
        "grids": "per size: a centre pile of n*n/2 grains, and 0-7 random grains per cell",
    }
    for k in PF_SEG_KS:
        seg, call = [], []
        for _ in range(rounds):
            seg.append(_pf_segment_pass(grids, k, True))
            call.append(_pf_segment_pass(grids, k, False))
        s, c = min(seg), min(call)
        if s[1] != c[1]:
            raise SystemExit(f"pfrontier k={k}: {s[1]} iterations by segments, {c[1]} by calls")
        out[f"k{k}"] = {
            "iterations": s[1],
            "segment_seconds_per_iteration": s[0] / s[1],
            "call_seconds_per_iteration": c[0] / c[1],
            "segment_speedup": c[0] / s[0],
            "segment_commands_per_iteration": s[2] / s[1],
            "call_commands_per_iteration": c[2] / c[1],
        }
    return out


def segment_failures(section: dict) -> list[str]:
    """The segment gate: few commands per iteration, faster than calls."""
    failures = []
    for k in PF_SEG_KS:
        row = section[f"k{k}"]
        if row["segment_commands_per_iteration"] >= PF_SEG_COMMANDS_CEIL:
            failures.append(
                f"pfrontier k={k} segments send {row['segment_commands_per_iteration']:.3f} "
                f"commands per iteration (must be < {PF_SEG_COMMANDS_CEIL})"
            )
        if row["segment_seconds_per_iteration"] >= row["call_seconds_per_iteration"]:
            failures.append(
                f"pfrontier k={k} segments are not faster per iteration than stepper() "
                f"calls ({row['segment_speedup']:.2f}x)"
            )
    return failures


def _print_segments(section: dict) -> None:
    for k in PF_SEG_KS:
        row = section[f"k{k}"]
        print(
            f"pfrontier k={k} segments: {row['segment_seconds_per_iteration'] * 1e6:.0f} us/iter "
            f"vs {row['call_seconds_per_iteration'] * 1e6:.0f} us/iter by calls "
            f"({row['segment_speedup']:.2f}x), "
            f"{row['segment_commands_per_iteration']:.3f} commands/iter "
            f"(calls {row['call_commands_per_iteration']:.2f})"
        )


def measure_tracer_overhead(rounds: int = 9) -> float:
    """Disabled-tracer overhead on the fig1a frontier hot path.

    Runs the frontier variant to the fig1a fixpoint with ``trace=None``
    (the untraced loop) and with ``trace=NullTracer()`` (the traced loop
    taking its falsy fast branch), and returns the min-of-rounds wall-time
    ratio (NullTracer / None).  The side that runs first alternates from
    round to round, so a slow stretch of the host does not fall on one
    side only.  The observability contract is that a disabled tracer costs
    one branch per iteration, so the gate holds this ratio at or below 1.05.
    """
    from repro.obs import NullTracer
    from repro.sandpile.model import center_pile
    from repro.sandpile.simulate import run_to_fixpoint

    def run_once(trace) -> float:
        grid = center_pile(SIZE, SIZE, GRAINS_1A)
        t0 = time.perf_counter()
        run_to_fixpoint(grid, "sandpile", "frontier", trace=trace)
        return time.perf_counter() - t0

    off, null = [], []
    for i in range(rounds):
        if i % 2:
            null.append(run_once(NullTracer()))
            off.append(run_once(None))
        else:
            off.append(run_once(None))
            null.append(run_once(NullTracer()))
    return min(null) / min(off)


def fig1a_seconds(variant: str, **opts) -> float:
    """Wall time of one run of *variant* to the fig1a fixpoint."""
    from repro.sandpile.model import center_pile
    from repro.sandpile.simulate import run_to_fixpoint

    grid = center_pile(SIZE, SIZE, GRAINS_1A)
    t0 = time.perf_counter()
    run_to_fixpoint(grid, "sandpile", variant, **opts)
    return time.perf_counter() - t0


def tiled_ceiling_failures(ratios: dict) -> list[str]:
    """The in-process tiled variants whose ratio to vec exceeds ``TILED_CEIL``."""
    return [
        f"per_iteration/{name}: ratio-to-vec {ratios[name]:.3f} above the "
        f"{TILED_CEIL}x ceiling for in-process tiled variants"
        for name in TILED_VARIANTS
        if name in ratios and ratios[name] > TILED_CEIL
    ]


def _ratios(section: dict, key: str) -> dict:
    """Per-variant cost normalised to the in-process vec measurement."""
    base = section["vec"][key]
    return {name: row[key] / base for name, row in section.items()}


def collect() -> dict:
    # per-iteration first, in the same (cold-process) position --check
    # measures it: the fixpoint sweep's large transient allocations shift
    # the paired vec yardstick enough to skew the committed ratios
    per_iter = measure_per_iteration()
    fixpoint = measure_run_to_fixpoint()
    pfrontier = measure_pfrontier()
    segments = measure_pf_segments()
    cores = os.cpu_count() or 1
    report = {
        "meta": {
            "size": SIZE,
            "grains_fig1a": GRAINS_1A,
            "cores": cores,
            "note": "ratios are normalised to the vec variant measured in the "
            "same process; the CI gate compares ratios, not absolute seconds",
        },
        # every timed section records the core count it was measured on:
        # a number taken on 1 core must not be read as a 4-core claim
        "run_to_fixpoint": {"cores": cores, "scenarios": fixpoint},
        "per_iteration": {"cores": cores, "variants": per_iter},
        "pfrontier": pfrontier,
        "pfrontier_segments": segments,
        "ratios": {
            "per_iteration": {n: row["ratio_to_vec"] for n, row in per_iter.items()},
            **{name: _ratios(rows, "seconds") for name, rows in fixpoint.items()},
        },
    }
    lazy_ref = fig1a_seconds("omp", **FIG1A_LAZY_REF)
    frontier = fixpoint["fig1a"]["frontier"]["seconds"]
    report["meta"]["fig1a_frontier_speedup_vs_lazy"] = lazy_ref / frontier
    report["meta"]["pfrontier_frontier_vs_full"] = pfrontier["concentrated"]["frontier_vs_full"]
    return report


def compare_ratio_tables(
    ref: dict, cur: dict, tolerance: float, *, section: str = "per_iteration"
) -> tuple[list[str], list[str]]:
    """Compare two ``{variant: ratio}`` tables; returns (failures, warnings).

    Only variants present in **both** tables are candidates for failure —
    a variant present on one side only is an asymmetry (a variant added
    before the baseline was regenerated, or a stale baseline naming a
    removed one) and produces a warning, never a KeyError or a hard fail.
    ``vec`` is the normalisation yardstick and is skipped.
    """
    failures: list[str] = []
    warnings: list[str] = []
    ref_names, cur_names = set(ref), set(cur)
    for name in sorted(ref_names - cur_names):
        warnings.append(
            f"{section}/{name}: in baseline but not measured "
            f"(removed variant? regenerate the baseline with --write)"
        )
    for name in sorted(cur_names - ref_names):
        warnings.append(
            f"{section}/{name}: measured but absent from baseline "
            f"(new variant? regenerate the baseline with --write)"
        )
    for name in sorted(ref_names & cur_names):
        if name == "vec":
            continue
        if cur[name] > ref[name] * (1.0 + tolerance):
            failures.append(
                f"{section}/{name}: ratio-to-vec {cur[name]:.3f} vs baseline "
                f"{ref[name]:.3f} (+{100 * (cur[name] / ref[name] - 1):.0f}%, "
                f"allowed +{100 * tolerance:.0f}%)"
            )
    return failures, warnings


def cmd_write() -> int:
    report = collect()
    speedup = report["meta"]["fig1a_frontier_speedup_vs_lazy"]
    if speedup < FIG1A_FLOOR:
        print(
            f"FAIL: frontier only {speedup:.2f}x faster than per-tile lazy on fig1a "
            f"(need >={FIG1A_FLOOR}x)"
        )
        return 1
    over = tiled_ceiling_failures(report["ratios"]["per_iteration"])
    if over:
        print(f"FAIL: {over[0]}")
        return 1
    vs_full = report["meta"]["pfrontier_frontier_vs_full"]
    if vs_full < PF_FULL_FLOOR:
        print(
            f"FAIL: pfrontier only {vs_full:.2f}x faster than full-grid process "
            f"stepping on the concentrated scenario (need >={PF_FULL_FLOOR}x)"
        )
        return 1
    solo = pf_solo_ratio(report["pfrontier"])
    if solo > PF_SOLO_CEIL:
        print(
            f"FAIL: busy pfrontier@1 is {solo:.2f}x the in-process frontier per "
            f"iteration (dispatch overhead ceiling is {PF_SOLO_CEIL}x)"
        )
        return 1
    seg_failures = segment_failures(report["pfrontier_segments"])
    if seg_failures:
        print(f"FAIL: {seg_failures[0]}")
        return 1
    BASELINE.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    print(f"fig1a frontier speedup vs per-tile lazy: {speedup:.1f}x")
    print(f"pfrontier vs full-grid process stepping: {vs_full:.1f}x")
    print(f"busy pfrontier@1 vs frontier@1 (k={PF_K}): {solo:.2f}x per iteration")
    pf4 = report["pfrontier"]["busy"]["pfrontier@4"]["ratio_to_frontier"]
    print(
        f"pfrontier@4 vs frontier@1 (busy, {report['pfrontier']['cores']} core(s)): "
        f"{pf4:.2f}x per iteration"
    )
    for name, row in report["pfrontier"]["busy"].items():
        if "flagged" in row:
            print(f"flagged {name}: {row['flagged']}")
    _print_segments(report["pfrontier_segments"])
    return 0


def cmd_check(tolerance: float) -> int:
    """The CI gate: per-iteration ratios only (run-to-fixpoint one-shot wall
    times are too noisy on shared runners to gate on), the ``TILED_CEIL``
    ceiling on the in-process tiled variants, plus fresh-measured floors —
    the frontier's >= FIG1A_FLOOR x fig1a speedup over per-tile lazy, the
    parallel frontier's >= PF_FULL_FLOOR x win over full-grid process
    stepping (and, with >= 4 real cores, pfrontier@4 beating the
    single-worker frontier), and the segment gate (:func:`segment_failures`)
    — all measured in-process, machine-free."""
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run with --write first")
        return 1
    committed = json.loads(BASELINE.read_text())
    ref_ratios = committed["ratios"]["per_iteration"]
    cur = measure_per_iteration()
    cur_ratios = {name: row["ratio_to_vec"] for name, row in cur.items()}
    suspects_failed, _ = compare_ratio_tables(ref_ratios, cur_ratios, tolerance)
    suspects_failed += tiled_ceiling_failures(cur_ratios)
    if suspects_failed:
        # machine drift between two short runs can fake a regression; a real
        # one reproduces, so re-measure only the suspects with more rounds
        suspects = {f.split("/", 1)[1].split(":", 1)[0] for f in suspects_failed}
        print(f"re-measuring suspected regressions: {sorted(suspects)}")
        cur.update(measure_per_iteration(rounds=9, only=suspects))
        cur_ratios = {name: row["ratio_to_vec"] for name, row in cur.items()}
    failures, warnings = compare_ratio_tables(ref_ratios, cur_ratios, tolerance)
    ceiling = tiled_ceiling_failures(cur_ratios)
    failures += ceiling
    for w in warnings:
        print(f"warn {w}")
    failed_names = {f.split("/", 1)[1].split(":", 1)[0] for f in failures}
    for name in sorted(set(ref_ratios) & set(cur_ratios)):
        if name != "vec" and name not in failed_names:
            print(f"ok per_iteration/{name}: {cur_ratios[name]:.3f} (baseline {ref_ratios[name]:.3f})")
    if not ceiling:
        print(
            "ok in-process tiled ceiling: "
            + ", ".join(f"{n} {cur_ratios[n]:.2f}x" for n in TILED_VARIANTS if n in cur_ratios)
            + f" (<= {TILED_CEIL}x vec)"
        )

    import statistics

    # paired runs, median ratio: same drift-robust estimator as above
    speedup = statistics.median(
        fig1a_seconds("omp", **FIG1A_LAZY_REF) / fig1a_seconds("frontier") for _ in range(3)
    )
    if speedup < FIG1A_FLOOR:
        failures.append(
            f"fig1a frontier speedup vs per-tile lazy fell to {speedup:.2f}x (< {FIG1A_FLOOR}x)"
        )
    else:
        print(f"ok fig1a frontier speedup vs per-tile lazy: {speedup:.1f}x")

    pf = measure_pfrontier()
    vs_full = pf["concentrated"]["frontier_vs_full"]
    if vs_full < PF_FULL_FLOOR:
        failures.append(
            f"pfrontier vs full-grid process stepping fell to {vs_full:.2f}x "
            f"(< {PF_FULL_FLOOR}x) on the concentrated scenario"
        )
    else:
        print(f"ok pfrontier vs full-grid process stepping: {vs_full:.1f}x")
    solo = pf_solo_ratio(pf)
    if solo > PF_SOLO_CEIL:
        failures.append(
            f"busy pfrontier@1 is {solo:.2f}x the in-process frontier per "
            f"iteration (dispatch overhead ceiling is {PF_SOLO_CEIL}x)"
        )
    else:
        print(f"ok busy pfrontier@1 dispatch overhead: {solo:.2f}x (<= {PF_SOLO_CEIL}x)")
    cores = pf["cores"] or 1
    pf4 = pf["busy"]["pfrontier@4"]["ratio_to_frontier"]
    if cores >= 4:
        # enough real cores: parallel dispatch must beat the single-worker
        # frontier on the busy grid (the raised bench floor)
        if pf4 >= 1.0:
            failures.append(
                f"pfrontier@4 is {pf4:.2f}x the single-worker frontier per "
                f"iteration on {cores} cores (must be < 1.0x)"
            )
        else:
            print(f"ok pfrontier@4 beats frontier@1: {pf4:.2f}x per iteration")
    else:
        print(
            f"skip pfrontier worker-scaling floor: only {cores} core(s) "
            f"(@4 ratio {pf4:.2f}x flagged oversubscribed in the record, not gated)"
        )

    segments = measure_pf_segments()
    seg_failures = segment_failures(segments)
    failures += seg_failures
    if not seg_failures:
        _print_segments(segments)
        print(
            f"ok pfrontier segments: < {PF_SEG_COMMANDS_CEIL} commands per iteration and "
            "faster per iteration than stepper() calls"
        )

    overhead = measure_tracer_overhead()
    if overhead > 1.05:
        # re-measure before failing: a sub-5% budget is within runner noise
        overhead = measure_tracer_overhead(rounds=9)
    if overhead > 1.05:
        failures.append(
            f"disabled-tracer overhead on fig1a frontier is "
            f"{100 * (overhead - 1):.1f}% (> 5% budget)"
        )
    else:
        print(f"ok disabled-tracer overhead: {100 * max(overhead - 1, 0):.1f}%")
    if failures:
        print("\nPERF REGRESSIONS:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf smoke passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record a new baseline")
    mode.add_argument("--check", action="store_true", help="compare against the baseline")
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional growth of any ratio-to-vec (default 0.30)",
    )
    args = p.parse_args(argv)
    return cmd_write() if args.write else cmd_check(args.tolerance)


# -- pytest hook: correctness only, no timing ---------------------------------


def test_hotpath_variants_bit_identical_small():
    from repro.easypap.grid import Grid2D
    from repro.sandpile.model import center_pile
    from repro.sandpile.simulate import run_to_fixpoint
    from repro.sandpile.theory import stabilize

    oracle = stabilize(center_pile(32, 32, 600))
    extra = [
        ("sandpile", "pfrontier", {"nworkers": 2}),
        ("sandpile", "pfrontier", {"nworkers": 2, "k": PF_K}),
    ]
    for kernel, variant, opts in VARIANTS + extra:
        g = center_pile(32, 32, 600)
        run_to_fixpoint(g, kernel, variant, **{**opts, "tile_size": 8})
        assert np.array_equal(g.interior, oracle.interior), f"{kernel}/{variant}"
        assert isinstance(g, Grid2D)


if __name__ == "__main__":
    sys.exit(main())

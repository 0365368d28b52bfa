"""The two sandpile-to-fixpoint workloads: closed loop, one client.

A *block* is every cell (a variant crossed with a grid kind) on every grid
of its kind's pool, in a seeded order; the seed also picks how each grid
is turned (see :func:`make_grid`).  A run repeats the block; each job
position's latency is the median over the repetitions (those left by
:func:`stats.steady_reps`), so a burst of noise from other tenants of the
host that slows one repetition does not move the result.  The fixpoint of every pool grid is computed at set-up by
:func:`repro.sandpile.theory.stabilize`, and every job's final grid must
equal it bit for bit.

Pool grids differ in size so that the latencies of neighbouring cells
overlap: percentiles then fall inside a dense part of the distribution,
not on the gap between two cells.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.easypap.grid import Grid2D
from repro.obs.adapters.serve import estimate_quantile
from repro.obs.metrics import MetricsRegistry
from repro.sandpile import center_pile, make_stepper, random_uniform, run_to_fixpoint
from repro.sandpile import sparse_random, stabilize, uniform
from spans import Spans
from stats import Outcomes, Rep, percentile
from yardstick import Speed

GRID_KINDS = ("center", "uniform4", "sparse", "busy")
TILE = 8
NWORKERS = 2

#: (label, kernel, variant, options) — in-process variants
INPROC_VARIANTS = (
    ("vec", "sandpile", "vec", {}),
    ("frontier", "sandpile", "frontier", {}),
    ("tiled", "sandpile", "tiled", {"tile_size": TILE}),
    ("lazy", "sandpile", "lazy", {"tile_size": TILE}),
    ("split", "sandpile", "split", {"tile_size": TILE}),
    ("afrontier", "asandpile", "frontier", {}),
)
#: pfrontier on the resident process backend at two fused step counts
PROCS_VARIANTS = (
    ("pfrontier-k1", "sandpile", "pfrontier", {"tile_size": TILE, "nworkers": NWORKERS, "k": 1}),
    ("pfrontier-k4", "sandpile", "pfrontier", {"tile_size": TILE, "nworkers": NWORKERS, "k": 4}),
)
#: pool grid sizes per kind: 6 variants x 4 kinds x 6 = 144 jobs a block
INPROC_SIZES = (16, 19, 22, 25, 28, 31)
#: smaller grids, two of each size: 2 x 4 x 16 = 128 jobs a block, where
#: worker start and teardown are a large share of every job
PROCS_SIZES = (12, 14, 16, 18, 20, 22, 24, 26) * 2


def base_grid(kind: str, size: int) -> Grid2D:
    """The fixed grid of *kind* and *size* that every seed orients differently."""
    if kind == "center":
        return center_pile(size, size, size * size // 2)
    if kind == "uniform4":
        return uniform(size, size, 4)
    if kind == "sparse":
        return sparse_random(size, size, n_piles=size // 2, pile_grains=128, seed=size)
    if kind == "busy":
        return random_uniform(size, size, max_grains=7, seed=size)
    raise ValueError(f"unknown grid kind {kind!r}")


def make_grid(kind: str, size: int, rng: random.Random) -> Grid2D:
    """One seeded input: the base grid under one of its eight symmetries.

    Toppling commutes with the symmetries of the square, so every seed's
    grid takes the same work to its fixpoint; freshly drawn random piles
    would not (their work varies by a quarter between seeds).
    """
    turned = np.rot90(base_grid(kind, size).interior, rng.randrange(4))
    return Grid2D.from_interior(turned.T if rng.randrange(2) else turned)


class FixpointWorkload:
    """Closed-loop repetitions of one seeded block of fixpoint jobs."""

    def __init__(self, variants, sizes, seed: int, speed: Speed) -> None:
        self.variants = variants
        self.sizes = sizes
        self.seed = seed
        self.speed = speed
        self.cells = [(v, kind) for v in variants for kind in GRID_KINDS]
        self.pool: dict[str, list[tuple[Grid2D, np.ndarray]]] = {}
        self.block: list[tuple[int, int]] = []

    def setup(self) -> None:
        """Build the pools, their oracle fixpoints and the block; warm every variant."""
        rng = random.Random(self.seed)
        pool = {}
        for kind in GRID_KINDS:
            entries = []
            for size in self.sizes:
                grid = make_grid(kind, size, rng)
                entries.append((grid, stabilize(grid.copy()).interior.copy()))
            pool[kind] = entries
        self.pool = pool
        block = [(ci, pi) for ci in range(len(self.cells)) for pi in range(len(self.sizes))]
        rng.shuffle(block)
        self.block = block
        # first calls pay imports and per-shape plan caches, once per process
        for size in sorted(set(self.sizes)):
            for _label, kernel, variant, opts in self.variants:
                run_to_fixpoint(center_pile(size, size, 64), kernel, variant, **opts)

    def _inputs(self, ci: int, pi: int):
        (label, kernel, variant, opts), kind = self.cells[ci]
        grid, oracle = self.pool[kind][pi]
        return label, kernel, variant, opts, kind, grid.copy(), oracle

    def run_block(self, out: Outcomes) -> Rep:
        """One untraced repetition.

        Each position's latency is its job's time (None when not correct).
        """
        speed = self.speed
        t_rep = time.monotonic()
        spans: list[tuple[float, float] | None] = []
        for ci, pi in self.block:
            label, kernel, variant, opts, kind, grid, oracle = self._inputs(ci, pi)
            out.attempted += 1
            speed.probe()
            t0 = time.monotonic()
            try:
                run_to_fixpoint(grid, kernel, variant, **opts)
            except Exception as exc:  # recorded as a failed job
                out.failed += 1
                spans.append(None)
                print(f"job failed: {label}: {exc!r}")
                continue
            t1 = time.monotonic()
            if np.array_equal(grid.interior, oracle):
                out.ok += 1
                spans.append((t0, t1))
            else:
                out.wrong += 1
                spans.append(None)
                print(f"WRONG fixpoint: {label} on {kind} pool grid {pi}")
        speed.probe()
        return Rep([None if s is None else speed.scaled(*s) for s in spans],
                   [None if s is None else s[1] - s[0] for s in spans],
                   speed.median_between(t_rep, time.monotonic()))


class TracedFixpoint:
    """Drives the block through make_stepper / stepper() / close with spans.

    Accumulates per-layer numbers across repetitions, in reference time;
    exact counts come from the first repetition only, so they are fixed by
    the seed.  Spans keep the raw clock, so they add up in Perfetto.
    """

    def __init__(self, wl: FixpointWorkload, spans: Spans, metrics: MetricsRegistry) -> None:
        self.wl = wl
        self.spans = spans
        self.metrics = metrics
        self.reps = 0
        self.step_s: dict[str, float] = {}
        self.grid_iters: dict[str, int] = {}
        self.steady_s: dict[str, float] = {}
        self.steady_calls: dict[str, int] = {}
        self.build_s: list[float] = []
        self.first_s: list[float] = []
        self.close_s: list[float] = []
        self.iterations = self.tiles_computed = self.lazy_computed = self.lazy_skipped = 0
        self.ref_steady_s = 0.0
        self.ref_steady_calls = 0

    def run_block(self, out: Outcomes) -> Rep:
        """One traced repetition; latencies as in FixpointWorkload.run_block."""
        clock, speed = self.spans.clock, self.wl.speed
        t_rep = clock()
        first_rep = self.reps == 0
        jobs = []
        for pos, (ci, pi) in enumerate(self.wl.block):
            label, kernel, variant, opts, kind, grid, oracle = self.wl._inputs(ci, pi)
            if variant == "pfrontier":
                opts = {**opts, "metrics": self.metrics}
                ref_grid = grid.copy()
            jid = self.reps * len(self.wl.block) + pos
            out.attempted += 1
            speed.probe()
            try:
                t_job = clock()
                stepper = make_stepper(grid, kernel, variant, **opts)
                t_built = clock()
                try:
                    more = stepper()
                    t_first = clock()
                    calls = 1
                    while more:
                        more = stepper()
                        calls += 1
                    t_steps = clock()
                finally:
                    t_close = clock()
                    close = getattr(stepper, "close", None)
                    if close is not None:
                        close()
                t_end = clock()
            except Exception as exc:  # recorded as a failed job
                out.failed += 1
                jobs.append(None)
                print(f"job failed: {label}: {exc!r}")
                continue
            spans = self.spans
            spans.add(f"{label} {kind}", "job", jid, t_job, t_end, pool=pi)
            spans.add("make_stepper", "sandpile.build", jid, t_job, t_built)
            spans.add("stepper() first", "sandpile.first_step", jid, t_built, t_first)
            if calls > 1:
                spans.add("stepper() loop", "sandpile.step", jid, t_first, t_steps,
                          calls=calls - 1)
            spans.add("close", "sandpile.close", jid, t_close, t_end)
            k = getattr(stepper, "k", 1)
            if first_rep:
                self.iterations += (calls - 1) * k
                self.tiles_computed += getattr(stepper, "tiles_computed", 0)
                if label == "lazy":
                    self.lazy_computed += stepper.tiles_computed
                    self.lazy_skipped += stepper.tiles_skipped
            ref = None
            if label == "pfrontier-k1":
                # in-process frontier on the same input is bit-identical step for
                # step, so the per-call difference is what dispatch costs
                ref_stepper = make_stepper(ref_grid, "sandpile", "frontier")
                ref_stepper()
                t_ref = clock()
                ref_calls = 1
                while ref_stepper():
                    ref_calls += 1
                ref = (clock() - t_ref, ref_calls)
            if np.array_equal(grid.interior, oracle):
                out.ok += 1
                jobs.append((label, k, calls, t_job, t_built, t_first, t_steps, t_close, t_end,
                             ref))
            else:
                out.wrong += 1
                jobs.append(None)
                print(f"WRONG fixpoint: {label} on {kind} pool grid {pi}")
        speed.probe()
        self.reps += 1
        lat: list[float | None] = []
        wall: list[float | None] = []
        for job in jobs:
            if job is None:
                lat.append(None)
                wall.append(None)
                continue
            label, k, calls, t_job, t_built, t_first, t_steps, t_close, t_end, ref = job
            f = speed.factor(t_job, t_end)
            lat.append((t_end - t_job) * f)
            wall.append(t_end - t_job)
            self.build_s.append((t_built - t_job) * f)
            self.first_s.append((t_first - t_built) * f)
            self.close_s.append((t_end - t_close) * f)
            self.step_s[label] = self.step_s.get(label, 0.0) + (t_steps - t_built) * f
            self.grid_iters[label] = self.grid_iters.get(label, 0) + calls * k
            self.steady_s[label] = self.steady_s.get(label, 0.0) + (t_steps - t_first) * f
            self.steady_calls[label] = self.steady_calls.get(label, 0) + calls - 1
            if ref is not None:
                self.ref_steady_s += ref[0] * f
                self.ref_steady_calls += ref[1]
        return Rep(lat, wall, speed.median_between(t_rep, clock()))

    def layer_metrics(self) -> dict:
        """Per-layer numbers for the sandpile and easypap layers."""
        m: dict = {}
        for label, secs in self.step_s.items():
            m[f"sandpile.step_us.{label}"] = secs / self.grid_iters[label] * 1e6
        m["sandpile.build_ms"] = percentile(self.build_s, 0.5) * 1e3
        m["sandpile.first_step_ms"] = percentile(self.first_s, 0.5) * 1e3
        m["sandpile.close_ms"] = percentile(self.close_s, 0.5) * 1e3
        m["sandpile.iterations"] = self.iterations
        m["sandpile.tiles_computed"] = self.tiles_computed
        lazy_total = self.lazy_computed + self.lazy_skipped
        if lazy_total:
            m["sandpile.skip_fraction"] = self.lazy_skipped / lazy_total
        iters = sum(v for k, v in self.grid_iters.items() if k.startswith("pfrontier"))
        if iters:
            def total(name):
                fam = self.metrics.get(name)
                return sum(row["value"] for row in fam.samples()) if fam is not None else 0.0

            m["easypap.dispatch_commands_per_iter"] = (
                total("easypap_dispatch_commands_total") / iters
            )
            m["easypap.dispatch_bytes_per_iter"] = total("easypap_dispatch_bytes_total") / iters
            wait = self.metrics.get("easypap_dispatch_queue_wait_seconds")
            q = estimate_quantile(wait, 0.5) if wait is not None else None
            m["easypap.queue_wait_ms_p50"] = (q or 0.0) * 1e3
        if self.ref_steady_calls and self.steady_calls.get("pfrontier-k1"):
            per_ref = self.ref_steady_s / self.ref_steady_calls
            per_pf = self.steady_s["pfrontier-k1"] / self.steady_calls["pfrontier-k1"]
            m["easypap.dispatch_share"] = 1.0 - per_ref / per_pf
        return m

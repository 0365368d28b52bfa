"""The easypap substrate as a :class:`~repro.common.job.Job`.

:class:`SandpileJob` is the one sandpile job: it builds any registered
kernel variant — including ``pfrontier`` on the process backend — runs
it one segment at a time until the grid reaches its fixpoint, and closes
the stepper.  A segment is one stepper call, or, for a stepper that
takes segments (``pfrontier``), as many calls as the caller asks for,
run as one parallel region.  The
:class:`~repro.common.supervisor.Supervisor` loop drives it, and
``run_to_fixpoint``, ``EasyPapApp`` and ``PerfCampaign`` are thin
callers of that loop.

Checkpointing is **restore-by-rebuild**: a snapshot carries the full grid
plane (interior + sink frame), the sink counter, and the iteration count;
``restore`` copies them back and rebuilds the stepper from the restored
grid.  That is exact for every variant because the frontier window is a
pure function of the grid — the bbox rescan invariant guarantees a
full-grid ``unstable_bbox`` scan on the restored plane equals the window
an uninterrupted run would carry (cells outside the old window cannot be
unstable), and a rebuilt pfrontier stepper starts both of its planes from
the restored one (its other plane only ever holds the step before, which
no later step reads).  Resumed runs are therefore bit-identical, which the
chaos kill-and-resume scenario asserts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.errors import CheckpointError, ConfigurationError, SimulationError
from repro.common.job import Job, JobProgress, StopSignal
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import get_variant

__all__ = ["SandpileJob", "make_stepper"]

#: track group of a traced job's per-segment wall-clock spans
DRIVER_PID = "easypap-driver"


def _variant_factory(kernel: str, variant: str):
    # imported here: simulate registers the sandpile variants and imports
    # this module, so a top-level import would be circular
    import repro.sandpile.simulate  # noqa: F401

    return get_variant(kernel, variant).fn


def make_stepper(grid: Grid2D, kernel: str = "sandpile", variant: str = "vec", **options):
    """Instantiate the stepper for ``kernel/variant`` on *grid*."""
    return _variant_factory(kernel, variant)(grid, **options)


class SandpileJob(Job):
    """Run ``kernel/variant`` on a grid to its fixpoint, a segment at a time.

    Parameters mirror :func:`repro.sandpile.simulate.run_to_fixpoint`;
    extra *options* flow to the variant factory (``tile_size``,
    ``nworkers``, ``backend``, ``fault_injector``, ``trace``...).  An
    unknown ``kernel/variant`` raises ``KernelError`` here; the stepper is
    built lazily on the first step so that a restored grid rebuilds its
    stepper from the snapshot, not from the initial state.

    A step is one stepper call.  :attr:`iterations` counts executed grid
    iterations (``k`` per call of a temporally blocked stepper); a step
    taken once it has reached *max_iterations* raises ``SimulationError``.

    The synchronous family is double-buffered (writes land off-plane
    until commit), so a raised step leaves the live plane intact and
    ``retryable_steps`` is True; pass ``retryable=False`` for in-place
    asynchronous variants.
    """

    substrate = "easypap"

    def __init__(
        self,
        grid: Grid2D,
        kernel: str = "sandpile",
        variant: str = "frontier",
        *,
        max_iterations: int = 10**7,
        retryable: bool = True,
        **options,
    ) -> None:
        self._factory = _variant_factory(kernel, variant)
        self.grid = grid
        self.kernel = kernel
        self.variant = variant
        self.max_iterations = max_iterations
        self.options = options
        self.name = f"{kernel}/{variant}"
        self.retryable_steps = retryable
        self.supports_checkpoint = True
        self.iterations = 0
        self._done = False
        #: the live stepper: built on the first step, dropped by close()
        self.stepper = None
        self._k = 1
        self._takes_segments = False
        self._trace = options.get("trace")
        #: spec params when built via from_spec; None for direct-grid jobs
        self._spec_params: dict | None = None
        # construction-time grid digest: the describe() fallback for jobs
        # handed an arbitrary grid (hash now, before stepping mutates it)
        self._grid_sha256 = hashlib.sha256(grid.data.tobytes()).hexdigest()

    # -- spec / describe ---------------------------------------------------------

    #: spec param defaults understood by from_spec (also its validation table)
    SPEC_DEFAULTS = {
        "config": "center",
        "size": 32,
        "grains": 1200,
        "n_piles": 4,
        "pile_grains": 512,
        "seed": 0,
        "kernel": "sandpile",
        "variant": "frontier",
        "tile_size": 8,
        "nworkers": 2,
        "k": 1,
    }

    @classmethod
    def from_spec(cls, params: dict) -> "SandpileJob":
        """Build the job from canonical spec params (the serve constructor).

        The grid is rebuilt deterministically from ``config``/``size``/
        ``grains``/``seed``, so equal params always yield bit-identical
        initial state — the property the content-addressed cache needs.
        """
        from repro.sandpile import center_pile, sparse_random, uniform

        unknown = set(params) - set(cls.SPEC_DEFAULTS)
        if unknown:
            raise ConfigurationError(f"unknown sandpile spec params: {sorted(unknown)}")
        p = {**cls.SPEC_DEFAULTS, **params}
        size = int(p["size"])
        if p["config"] == "center":
            grid = center_pile(size, size, int(p["grains"]))
        elif p["config"] == "uniform":
            grid = uniform(size, size, int(p["grains"]))
        elif p["config"] == "sparse":
            grid = sparse_random(
                size, size,
                n_piles=int(p["n_piles"]),
                pile_grains=int(p["pile_grains"]),
                seed=int(p["seed"]),
            )
        else:
            raise ConfigurationError(f"unknown sandpile config {p['config']!r}")
        options = {}
        if p["variant"] in ("tiled", "lazy", "omp", "split", "pfrontier"):
            options["tile_size"] = int(p["tile_size"])
        if p["variant"] == "pfrontier":
            options["nworkers"] = int(p["nworkers"])
            options["k"] = int(p["k"])
        job = cls(grid, p["kernel"], p["variant"], **options)
        job._spec_params = {k: p[k] for k in sorted(cls.SPEC_DEFAULTS)}
        return job

    def describe(self) -> dict:
        """Canonical cache-key fields (spec params, or a grid digest)."""
        out = {
            "substrate": self.substrate,
            "workload": "sandpile",
            "kernel": self.kernel,
            "variant": self.variant,
        }
        if self._spec_params is not None:
            out["params"] = dict(self._spec_params)
        else:
            out["grid_sha256"] = self._grid_sha256
            out["options"] = {k: self.options[k] for k in sorted(self.options)
                              if isinstance(self.options[k], (int, float, str, bool))}
        return out

    # -- protocol ----------------------------------------------------------------

    def step(self) -> bool:
        return self.advance(1) > 0

    def advance(self, limit: int, stop: StopSignal | None = None) -> int:
        """Up to *limit* steps as one segment (one stepper call unless the
        stepper has ``advance``, as ``pfrontier`` does); a call that raises
        keeps the steps its segment published, counts them in the
        exception's ``steps_published``, and closes the stepper, so the
        next runs on a fresh one built from the grid (exact, as
        restore-by-rebuild is).  Traced, each call is one span under
        :data:`DRIVER_PID`, named after the iteration it starts from."""
        if self._done:
            return 0
        if self.iterations >= self.max_iterations:
            raise SimulationError(
                f"{self.name}: no fixpoint within {self.max_iterations} iterations"
            )
        if not self._trace:
            return self._segment(limit, stop)
        args = {"iteration": self.iterations, "kernel": self.kernel, "variant": self.variant}
        with self._trace.span(f"iteration {self.iterations}", cat="iteration",
                              pid=DRIVER_PID, tid="driver", args=args):
            return self._segment(limit, stop)

    def _segment(self, limit: int, stop: StopSignal | None) -> int:
        stepper = self.stepper
        if stepper is None:
            stepper = self.stepper = self._factory(self.grid, **self.options)
            self._k = getattr(stepper, "k", 1)
            self._takes_segments = hasattr(stepper, "advance")
        try:
            if not self._takes_segments:
                if stepper():
                    self.iterations += self._k
                    return 1
                self._done = True
                return 0
            k = self._k
            asked = min(limit * k, self.max_iterations - self.iterations)
            start = stepper.iterations
            ran = stepper.advance(asked, stop)
        except BaseException as exc:
            if self._takes_segments:  # the steps the segment published stand
                published = stepper.iterations - start
                self.iterations += published
                exc.steps_published = published // self._k
            self.close()
            raise
        # the stepper also counts the call that found the grid stable
        self._done = stepper.iterations - start > ran
        self.iterations += ran
        return ran // k

    def result(self) -> dict:
        """Fixpoint fingerprint: iterations, final interior, sink counter."""
        return {
            "iterations": self.iterations,
            "grid": self.grid.interior.copy(),
            "sink_absorbed": self.grid.sink_absorbed,
        }

    def progress(self) -> JobProgress:
        return JobProgress(
            steps_done=self.iterations,
            done=self._done,
            steps_total=None,
            detail={"kernel": self.kernel, "variant": self.variant},
        )

    def close(self) -> None:
        stepper, self.stepper = self.stepper, None
        if stepper is not None:
            close = getattr(stepper, "close", None)
            if close is not None:
                close()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Full plane + sink counter + iteration count (see module docs)."""
        return {
            "kind": "sandpile",
            "kernel": self.kernel,
            "variant": self.variant,
            "shape": tuple(self.grid.shape),
            "plane": self.grid.data.copy(),
            "sink_absorbed": self.grid.sink_absorbed,
            "iterations": self.iterations,
            "done": self._done,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "sandpile":
            raise CheckpointError(f"snapshot kind {state.get('kind')!r} is not a sandpile job")
        if (state.get("kernel"), state.get("variant")) != (self.kernel, self.variant):
            raise CheckpointError(
                f"snapshot is for {state.get('kernel')}/{state.get('variant')}, "
                f"this job runs {self.name}"
            )
        if tuple(state.get("shape", ())) != tuple(self.grid.shape):
            raise CheckpointError(
                f"snapshot grid {state.get('shape')} does not match {tuple(self.grid.shape)}"
            )
        # drop any live stepper: it caches plane views of the pre-restore grid
        self.close()
        np.copyto(self.grid.data, state["plane"])
        self.grid.sink_absorbed = int(state["sink_absorbed"])
        self.iterations = int(state["iterations"])
        self._done = bool(state.get("done", False))

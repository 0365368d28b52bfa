"""The easypap substrate as a :class:`~repro.common.job.Job`.

:class:`SandpileJob` is the one sandpile driver: it builds any registered
kernel variant — including ``pfrontier`` on the process backend — runs
one stepper call per protocol step until the grid reaches its fixpoint,
and closes the stepper.  ``run_to_fixpoint``, ``EasyPapApp`` and
``PerfCampaign`` all drive it; ``run_to_fixpoint`` asks for whole
segments (:meth:`SandpileJob.advance`), the others step.

Checkpointing is **restore-by-rebuild**: a snapshot carries the full grid
plane (interior + sink frame), the sink counter, and the iteration count;
``restore`` copies them back and rebuilds the stepper from the restored
grid.  That is exact for every variant because the frontier window is a
pure function of the grid — the bbox rescan invariant guarantees a
full-grid ``unstable_bbox`` scan on the restored plane equals the window
an uninterrupted run would carry (cells outside the old window cannot be
unstable), and the pfrontier scratch plane never holds live state between
iterations (copy-back takes only the window).  Resumed runs are therefore
bit-identical, which the chaos kill-and-resume scenario asserts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.errors import CheckpointError, ConfigurationError, SimulationError
from repro.common.job import Job, JobProgress
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import get_variant

__all__ = ["SandpileJob", "make_stepper"]


def _variant_factory(kernel: str, variant: str):
    # imported here: simulate registers the sandpile variants and imports
    # this module, so a top-level import would be circular
    import repro.sandpile.simulate  # noqa: F401

    return get_variant(kernel, variant).fn


def make_stepper(grid: Grid2D, kernel: str = "sandpile", variant: str = "vec", **options):
    """Instantiate the stepper for ``kernel/variant`` on *grid*."""
    return _variant_factory(kernel, variant)(grid, **options)


class SandpileJob(Job):
    """Run ``kernel/variant`` on a grid to its fixpoint, one step at a time.

    Parameters mirror :func:`repro.sandpile.simulate.run_to_fixpoint`;
    extra *options* flow to the variant factory (``tile_size``,
    ``nworkers``, ``backend``, ``fault_injector``...).  An unknown
    ``kernel/variant`` raises ``KernelError`` here; the stepper is built
    lazily on the first step so that a restored grid rebuilds its stepper
    from the snapshot, not from the initial state.

    :attr:`iterations` counts executed grid iterations (``k`` per call of
    a temporally blocked stepper); a step taken once it has reached
    *max_iterations* raises ``SimulationError``.

    :meth:`step` is one stepper call.  :meth:`advance` is one *segment*:
    when the stepper runs segments as parallel regions (``pfrontier`` on
    the process backend, known once the stepper is built) it asks for all
    iterations left within *max_iterations* at once, else it is
    :meth:`step`.  Both count iterations exactly alike.

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
        self._segmented = False
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

    def _stepper(self):
        """The live stepper, built on first use; raises once the budget is spent."""
        if self.iterations >= self.max_iterations:
            raise SimulationError(
                f"{self.name}: no fixpoint within {self.max_iterations} iterations"
            )
        stepper = self.stepper
        if stepper is None:
            stepper = self.stepper = self._factory(self.grid, **self.options)
            self._k = getattr(stepper, "k", 1)
            self._segmented = getattr(stepper, "segmented", False)
        return stepper

    def step(self) -> bool:
        if self._done:
            return False
        if self._stepper()():
            self.iterations += self._k
            return True
        self._done = True
        return False

    def advance(self) -> bool:
        """One segment of the remaining iterations; True while not done.

        A stepper without segments takes one :meth:`step`.
        """
        if self.stepper is None and not self._done:
            self._stepper()  # built now, it tells whether it takes segments
        if not self._segmented or self._done:
            return self.step()
        limit = self.max_iterations - self.iterations
        ran = self._stepper().advance(limit)
        self.iterations += ran
        # a segment that stops short of the budget has reached the fixpoint
        self._done = ran < -(-limit // self._k) * self._k
        return not self._done

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

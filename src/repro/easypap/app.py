"""The EASYPAP-style application loop.

EASYPAP's main program wires a kernel variant to an interactive SDL window
with monitoring; students run ``./run -k sandpile -v omp -ts 32``.  This
module is the headless counterpart: :class:`EasyPapApp` drives a
:class:`~repro.easypap.job.SandpileJob` to the fixpoint (or an iteration
budget) through the :class:`~repro.common.supervisor.Supervisor` loop,
and on the way collects everything the interactive tools would show —
periodic RGB frames (writable as a PPM sequence), timing per grid
iteration, and the execution trace.  As EASYPAP's refresh rate does, the
frames bound the segments the kernel runs between two looks at the grid.

>>> app = EasyPapApp("sandpile", "lazy", grid, tile_size=16)
>>> result = app.run(max_iterations=500, frame_every=50)
>>> result.frames[0].shape
(128, 128, 3)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.colors import sandpile_to_rgb, write_ppm
from repro.common.errors import ConfigurationError
from repro.common.resilience import RetryPolicy
from repro.common.supervisor import JobInterrupted, Supervisor
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob
from repro.obs.tracer import Tracer

__all__ = ["AppResult", "EasyPapApp"]


@dataclass
class AppResult:
    """Everything a run produced."""

    kernel: str
    variant: str
    iterations: int
    converged: bool
    wall_seconds: float
    frames: list[np.ndarray] = field(default_factory=list)
    frame_iterations: list[int] = field(default_factory=list)
    trace: Tracer | None = None

    @property
    def mean_iteration_seconds(self) -> float:
        """Average wall time per executed grid iteration."""
        return self.wall_seconds / self.iterations if self.iterations else 0.0

    def save_frames(self, directory, *, prefix: str = "frame") -> list[Path]:
        """Write all collected frames as ``<prefix>_<iteration>.ppm`` files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for it, frame in zip(self.frame_iterations, self.frames):
            path = directory / f"{prefix}_{it:06d}.ppm"
            write_ppm(path, frame)
            paths.append(path)
        return paths


class EasyPapApp:
    """Drive one kernel variant with monitoring, frames, and hooks."""

    def __init__(
        self,
        kernel: str,
        variant: str,
        grid: Grid2D,
        *,
        trace: bool = False,
        **options,
    ) -> None:
        self.kernel = kernel
        self.variant = variant
        self.grid = grid
        self.trace = Tracer() if trace else None
        self._job = SandpileJob(grid, kernel, variant, trace=self.trace, **options)

    def close(self) -> None:
        """Release stepper resources (process pools, shared memory); idempotent.

        Only steppers on a process backend hold OS resources, but calling
        this is always safe.  The app is also usable as a context manager.
        """
        self._job.close()

    def __enter__(self) -> "EasyPapApp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self,
        *,
        max_iterations: int = 10**7,
        frame_every: int | None = None,
        on_iteration=None,
    ) -> AppResult:
        """Run to the fixpoint or *max_iterations*, whichever comes first.

        Iterations are executed grid iterations, as in
        :func:`~repro.sandpile.simulate.run_to_fixpoint`.  A thin caller
        of the :class:`~repro.common.supervisor.Supervisor` loop: each
        segment ends at the budget, at the next multiple of *frame_every*,
        or after one step when *on_iteration* is given.

        Parameters
        ----------
        frame_every:
            Collect an RGB frame every N iterations (plus the final state).
        on_iteration:
            Optional callback ``fn(iteration, grid) -> bool | None``; a
            truthy return stops the run early (the interactive window's
            "pause" in API form).
        """
        if max_iterations < 0:
            raise ConfigurationError("max_iterations cannot be negative")
        frames: list[np.ndarray] = []
        frame_iterations: list[int] = []
        job = self._job
        before = job.iterations

        def pause_at() -> int:
            """Where the next segment ends: the budget, the next frame, or one step on."""
            end = max_iterations
            if frame_every:
                end = min(end, (job.iterations // frame_every + 1) * frame_every)
            return end if on_iteration is None else min(end, job.iterations + 1)

        def after_segment(_steps, progress) -> None:
            nonlocal before
            # a k-step call can jump over a multiple of frame_every
            if frame_every and job.iterations // frame_every != before // frame_every:
                frames.append(sandpile_to_rgb(self.grid.interior))
                frame_iterations.append(job.iterations)
            before = job.iterations
            if not progress.done and (
                job.iterations >= max_iterations
                or (on_iteration is not None and on_iteration(job.iterations, self.grid))
            ):
                sup.request_stop()
            job.max_iterations = pause_at()  # the job's own budget ends its next segment

        sup = Supervisor(job, retry=RetryPolicy(max_attempts=1), on_step=after_segment)
        if job.iterations >= max_iterations:
            sup.request_stop()
        job.max_iterations = pause_at()
        t0 = time.perf_counter()
        try:
            sup.run()
            converged = True
        except JobInterrupted:
            converged = False
        wall = time.perf_counter() - t0
        # always include the final state as the last frame when collecting
        if frame_every:
            frames.append(sandpile_to_rgb(self.grid.interior))
            frame_iterations.append(job.iterations)
        return AppResult(
            kernel=self.kernel,
            variant=self.variant,
            iterations=job.iterations,
            converged=converged,
            wall_seconds=wall,
            frames=frames,
            frame_iterations=frame_iterations,
            trace=self.trace,
        )

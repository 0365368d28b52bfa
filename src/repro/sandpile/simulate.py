"""Simulation driver: run any sandpile variant to its stable fixpoint.

This module plays EASYPAP's command-line role: every kernel variant of the
four assignments is registered under the ``sandpile`` kernel (synchronous
family) or ``asandpile`` (asynchronous family, the paper's ``asandPile``),
and :func:`run_to_fixpoint` selects one by name, drives it until the grid
is stable through a :class:`~repro.easypap.job.SandpileJob`, and reports
statistics.

Registered variants
-------------------
``sandpile``  : ``seq`` (scalar reference), ``vec`` (whole-grid numpy),
``frontier`` (bounding-box stepping over the active region), ``tiled``,
``lazy``, ``omp`` (tiled + scheduling policy; pick the executor with
``backend="simulated"|"threads"|"process"|"sequential"``), ``pfrontier``
(the active frontier as parallel regions, on worker processes or, with
``backend="sequential"``, in process), ``split`` (inner/outer SIMD split).

``asandpile`` : ``seq``, ``vec`` (sweep), ``frontier``, ``tiled``,
``lazy``, ``omp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.common.supervisor import Supervisor
from repro.easypap.executor import SequentialBackend, make_backend
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob, make_stepper
from repro.easypap.kernel import register_variant
from repro.obs.tracer import Tracer
from repro.sandpile.omp import TiledAsyncStepper, TiledSyncStepper
from repro.sandpile.pfrontier import ParallelFrontierStepper
from repro.sandpile.reference import async_step_reference, sync_step_reference
from repro.sandpile.vectorized import (
    AsyncVecStepper,
    FrontierAsyncStepper,
    FrontierSyncStepper,
    MergedTiledStepper,
    SplitSyncStepper,
    SyncVecStepper,
)

__all__ = ["RunResult", "run_to_fixpoint", "make_stepper"]


@dataclass
class RunResult:
    """Outcome of driving a variant to the stable fixpoint."""

    kernel: str
    variant: str
    iterations: int
    final_grid: Grid2D
    tiles_computed: int = 0
    tiles_skipped: int = 0
    trace: Tracer | None = None
    extras: dict = field(default_factory=dict)

    @property
    def skip_fraction(self) -> float:
        """Fraction of tile visits avoided by lazy evaluation."""
        total = self.tiles_computed + self.tiles_skipped
        return self.tiles_skipped / total if total else 0.0


# -- variant factories --------------------------------------------------------
#
# Each factory takes (grid, **options) and returns a nullary stepper callable
# that performs one iteration and returns whether anything changed.  Every
# stepper drains the sink frame once, when built: grains already there when
# a run starts count as absorbed, once.


@register_variant("sandpile", "seq", description="scalar reference loops (Fig. 2 sync)")
def _sandpile_seq(grid: Grid2D, **_opts):
    grid.drain_sink()
    return lambda: sync_step_reference(grid)


@register_variant("sandpile", "vec", description="whole-grid numpy synchronous step")
def _sandpile_vec(grid: Grid2D, **_opts):
    return SyncVecStepper(grid)


@register_variant(
    "sandpile", "frontier", description="bounding-box sync stepping over the active frontier"
)
def _sandpile_frontier(grid: Grid2D, **_opts):
    return FrontierSyncStepper(grid)


@register_variant("sandpile", "split", description="inner/outer tile split (SIMD lesson)")
def _sandpile_split(grid: Grid2D, *, tile_size: int = 32, **_opts):
    return SplitSyncStepper(grid, tile_size)


@register_variant("sandpile", "tiled", description="tiled synchronous, sequential tiles")
def _sandpile_tiled(grid: Grid2D, *, tile_size: int = 32, trace: Tracer | None = None, **_opts):
    return MergedTiledStepper(grid, tile_size, trace=trace)


@register_variant("sandpile", "lazy", description="tiled synchronous + lazy tile skipping")
def _sandpile_lazy(grid: Grid2D, *, tile_size: int = 32, trace: Tracer | None = None, **_opts):
    return MergedTiledStepper(grid, tile_size, lazy=True, trace=trace)


@register_variant("sandpile", "omp", description="tiled synchronous on virtual workers")
def _sandpile_omp(
    grid: Grid2D,
    *,
    tile_size: int = 32,
    nworkers: int = 4,
    policy: str = "dynamic",
    chunk: int = 1,
    backend: str = "simulated",
    lazy: bool = False,
    trace: Tracer | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    allow_fallback: bool = True,
    degradation: DegradationLog | None = None,
    fault_injector: FaultInjector | None = None,
    **_opts,
):
    be = make_backend(
        backend, nworkers, policy=policy, chunk=chunk, trace=trace,
        retry=retry, task_timeout=task_timeout,
        allow_fallback=allow_fallback, degradation=degradation,
        fault_injector=fault_injector,
    )
    return TiledSyncStepper(grid, tile_size, backend=be, lazy=lazy)


@register_variant(
    "sandpile",
    "pfrontier",
    description="the active frontier as parallel regions on real workers",
)
def _sandpile_pfrontier(
    grid: Grid2D,
    *,
    tile_size: int = 32,
    nworkers: int = 4,
    backend: str = "process",
    use_compiled: bool = False,
    k: int = 1,
    nbands: int | None = None,
    trace: Tracer | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    allow_fallback: bool = True,
    degradation: DegradationLog | None = None,
    fault_injector: FaultInjector | None = None,
    metrics=None,
    **_opts,
):
    if backend not in ("process", "sequential"):
        raise ConfigurationError(
            f"pfrontier runs on the 'process' or 'sequential' backend, not {backend!r}"
        )
    be = make_backend(
        backend, nworkers, trace=trace,
        retry=retry, task_timeout=task_timeout,
        allow_fallback=allow_fallback, degradation=degradation,
        fault_injector=fault_injector, metrics=metrics,
    )
    return ParallelFrontierStepper(
        grid, tile_size, backend=be, use_compiled=use_compiled, k=k, nbands=nbands
    )


# The three cell-granular async sweeps are tagged racy-by-design: adjacent
# cells read-modify-write each other on one plane, so a parallel schedule
# of their units has true conflicts.  They are still correct *sequentially*
# (and tolerably so in parallel) only because the sandpile is Abelian.  The
# analysis certifier (repro.analysis.variants) requires the static verdict
# to MATCH this tag — the whitelist is checked, not just ignored.
@register_variant(
    "asandpile",
    "seq",
    description="scalar reference in-place sweep (Fig. 2 async)",
    tags=("racy-by-design",),
)
def _asandpile_seq(grid: Grid2D, *, order: str = "raster", **_opts):
    grid.drain_sink()
    return lambda: async_step_reference(grid, order=order)


@register_variant(
    "asandpile",
    "vec",
    description="vectorised topple-all sweep",
    tags=("racy-by-design",),
)
def _asandpile_vec(grid: Grid2D, **_opts):
    return AsyncVecStepper(grid)


@register_variant(
    "asandpile",
    "frontier",
    description="bounding-box topple sweeps over the active frontier",
    tags=("racy-by-design",),
)
def _asandpile_frontier(grid: Grid2D, **_opts):
    return FrontierAsyncStepper(grid)


@register_variant("asandpile", "tiled", description="tile-local relaxation, sequential tiles")
def _asandpile_tiled(grid: Grid2D, *, tile_size: int = 32, trace: Tracer | None = None, **_opts):
    return TiledAsyncStepper(grid, tile_size, backend=SequentialBackend(trace=trace))


@register_variant("asandpile", "lazy", description="tile-local relaxation + lazy skipping")
def _asandpile_lazy(grid: Grid2D, *, tile_size: int = 32, trace: Tracer | None = None, **_opts):
    return TiledAsyncStepper(grid, tile_size, backend=SequentialBackend(trace=trace), lazy=True)


@register_variant("asandpile", "omp", description="multi-wave tiles on virtual workers")
def _asandpile_omp(
    grid: Grid2D,
    *,
    tile_size: int = 32,
    nworkers: int = 4,
    policy: str = "dynamic",
    chunk: int = 1,
    backend: str = "simulated",
    lazy: bool = True,
    trace: Tracer | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    allow_fallback: bool = True,
    degradation: DegradationLog | None = None,
    fault_injector: FaultInjector | None = None,
    **_opts,
):
    be = make_backend(
        backend, nworkers, policy=policy, chunk=chunk, trace=trace,
        retry=retry, task_timeout=task_timeout,
        allow_fallback=allow_fallback, degradation=degradation,
        fault_injector=fault_injector,
    )
    return TiledAsyncStepper(grid, tile_size, backend=be, lazy=lazy)


# -- driver ---------------------------------------------------------------------


def run_to_fixpoint(
    grid: Grid2D,
    kernel: str = "sandpile",
    variant: str = "vec",
    *,
    max_iterations: int = 10**7,
    trace: Tracer | None = None,
    **options,
) -> RunResult:
    """Drive ``kernel/variant`` on *grid* until stable; return statistics.

    The grid is modified in place; it is also carried in the result as
    ``final_grid`` for convenience.  Additional *options* are passed to the
    variant factory (``tile_size``, ``nworkers``, ``policy``, ``chunk``,
    ``backend``, ``lazy``...).  ``iterations`` counts executed grid
    iterations; :class:`~repro.common.errors.SimulationError` is raised
    when *max_iterations* of them pass without reaching the fixpoint.

    A thin caller of the :class:`~repro.common.supervisor.Supervisor`
    loop, with one attempt per segment and no checkpoints: every variant
    runs all iterations left in the budget as one segment, a loop of
    stepper calls (``pfrontier``: one parallel region, of the workers or
    in process).

    *trace* (a :class:`repro.obs.Tracer`) receives the tile spans of the
    variants that record them, under the ``easypap`` track group, and one
    wall-clock span per stepper call (per region, for ``pfrontier``)
    under ``easypap-driver`` (a pid of its own: tile spans run on batch
    time, not on the tracer's clock), named after the grid iteration the
    call starts from.  A falsy tracer (None or
    :class:`repro.obs.NullTracer`) costs one branch per call — the
    hot-path guard the overhead benchmark holds to <=5%.
    """
    with SandpileJob(
        grid, kernel, variant, max_iterations=max_iterations, trace=trace, **options
    ) as job:
        Supervisor(job, retry=RetryPolicy(max_attempts=1)).run()
        stepper = job.stepper
    return RunResult(
        kernel=kernel,
        variant=variant,
        iterations=job.iterations,
        final_grid=grid,
        tiles_computed=getattr(stepper, "tiles_computed", 0),
        tiles_skipped=getattr(stepper, "tiles_skipped", 0),
        trace=trace,
        extras={
            "inner_tile_updates": getattr(stepper, "inner_tile_updates", None),
            "outer_tile_updates": getattr(stepper, "outer_tile_updates", None),
        },
    )

"""Variant-level race certification: every registered kernel variant gets a
machine-checked concurrency model.

Each sandpile variant decomposes one iteration into *phases of concurrent
units* (the executor contract: one ``backend.run`` call per phase, phases
serialised by the call returning).  The unit granularity matches what the
variant actually parallelises:

* **tiled/lazy/omp (sync)** — one phase of ``sync_tile`` tasks: pure
  gathers src -> dst, write-disjoint by construction;
* **split** — same gather model over the inner+outer tile partition (the
  two code paths write disjoint tiles of the same scratch plane);
* **seq/vec/frontier (sync)** — cell-granular gather: each interior cell
  reads its 4-neighbourhood from the source plane and writes its own cell
  of the destination plane (no two cells write the same destination);
* **tiled/lazy/omp (async)** — the four checkerboard waves of
  ``async_tile_relax`` tasks (same-wave tiles are >= one tile apart, so
  their one-cell write halos stay disjoint — for tiles >= 2 cells wide);
* **seq/vec/frontier (async)** — cell-granular in-place sweep: each
  unstable cell rewrites itself *and adds into its 4 neighbours on the
  same plane*.  Adjacent units conflict, so the sweep is **racy by
  design** — the paper's point about the asynchronous variant: it is only
  correct because the sandpile is Abelian, not because the schedule is
  conflict-free.  These variants are registered with the
  ``racy-by-design`` tag; the certifier demands the verdict *match* the
  tag, so an async variant silently becoming "clean" (model drift) fails
  CI just as loudly as a sync variant becoming racy.

Unmodelled variants fail certification: adding a new variant forces adding
(or inheriting) an analysis model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from repro.analysis.footprint import Footprint, footprint_for, rect_cells
from repro.analysis.halo import HaloVerdict, check_halo_depth
from repro.analysis.races import CrossCheck, RaceReport, check_phases, cross_check, dynamic_check
from repro.easypap.executor import TileTask
from repro.easypap.kernel import REGISTRY, KernelRegistry
from repro.easypap.tiling import Tile, TileGrid, deal

__all__ = [
    "RACY_TAG",
    "VariantVerdict",
    "gather_cell_phase",
    "variant_phases",
    "certify_variant",
    "certify_all",
    "certify_dynamic_frontier",
    "check_region_shares",
    "FrontierCertification",
    "verdict_table",
]

#: registry tag marking a variant whose schedule is deliberately racy
RACY_TAG = "racy-by-design"


# -- phase models -----------------------------------------------------------------


def sync_cell_phase(height: int, width: int) -> list[list[Footprint]]:
    """Cell-granular synchronous gather: plane 0 -> plane 1, one unit per cell."""
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            reads = {(0, y, x), (0, y - 1, x), (0, y + 1, x), (0, y, x - 1), (0, y, x + 1)}
            units.append(Footprint.of(reads, {(1, y, x)}))
    return [units]


def async_cell_phase(height: int, width: int) -> list[list[Footprint]]:
    """Cell-granular in-place topple sweep: one unit per cell, single plane.

    A toppling cell masks itself (``&= 3``) and adds a grain portion into
    each 4-neighbour — read-modify-writes of cells other units also write.
    """
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            touched = {(0, y, x), (0, y - 1, x), (0, y + 1, x), (0, y, x - 1), (0, y, x + 1)}
            units.append(Footprint.of(touched, touched))
    return [units]


def sync_tile_specs(height: int, width: int, tile_size: int) -> list[TileTask]:
    """The one-phase batch the sync tiled steppers submit each iteration."""
    return [TileTask("sync_tile", 0, 1, t) for t in TileGrid(height, width, tile_size)]


def gather_cell_phase(height: int, width: int, offsets) -> list[list[Footprint]]:
    """Cell-granular double-buffered gather with an arbitrary read stencil.

    One unit per interior cell: reads the cell plus *offsets* neighbours on
    plane 0, writes its own cell on plane 1 — the model of any gallery
    ``vec`` variant; the stencil shape is the only parameter.
    """
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            reads = {(0, y, x)} | {(0, y + dy, x + dx) for dy, dx in offsets}
            units.append(Footprint.of(reads, {(1, y, x)}))
    return [units]


#: the two gallery stencils, as (dy, dx) read offsets around each cell
CROSS_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
MOORE_OFFSETS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)


def gallery_tile_specs(
    kernel: str, height: int, width: int, tile_size: int
) -> list[TileTask]:
    """The one-phase batch a gallery ``tiled`` variant submits per iteration."""
    return [TileTask(kernel, 0, 1, t) for t in TileGrid(height, width, tile_size)]


def async_wave_specs(height: int, width: int, tile_size: int) -> list[list[TileTask]]:
    """The four serialized checkerboard wave batches of the async stepper."""
    from repro.sandpile.omp import wave_partition

    waves = wave_partition(list(TileGrid(height, width, tile_size)))
    return [[TileTask("async_tile_relax", 0, 0, t) for t in wave] for wave in waves]


def _tile_phases(
    height: int, width: int, tile_size: int, spec_phases: list[list[TileTask]]
) -> list[list[Footprint]]:
    shape = (height + 2, width + 2)
    return [[footprint_for(t, shape) for t in phase] for phase in spec_phases]


def variant_phases(
    kernel: str,
    variant: str,
    *,
    height: int,
    width: int,
    tile_size: int,
) -> list[list[Footprint]] | None:
    """Phase decomposition of one iteration of ``kernel/variant``.

    Returns None for variants with no registered model.
    """
    builder = _MODELS.get((kernel, variant))
    return builder(height, width, tile_size) if builder is not None else None


_MODELS: dict[tuple[str, str], Callable[[int, int, int], list[list[Footprint]]]] = {
    ("sandpile", "seq"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "vec"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "frontier"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [sync_tile_specs(h, w, ts)]),
    ("sandpile", "lazy"): lambda h, w, ts: _tile_phases(h, w, ts, [sync_tile_specs(h, w, ts)]),
    ("sandpile", "omp"): lambda h, w, ts: _tile_phases(h, w, ts, [sync_tile_specs(h, w, ts)]),
    # at k = 1 a region step's shares are runs of whole tile rows of the
    # frontier's cover, unions of the full batch's tiles, and under the
    # adversarial dynamic policy every cross-task pair is potentially
    # concurrent — so certifying the full batch bounds every step's shares;
    # certify_dynamic_frontier additionally checks the *actual* per-step
    # row shares of a real run, fused bands included
    ("sandpile", "pfrontier"): lambda h, w, ts: _tile_phases(h, w, ts, [sync_tile_specs(h, w, ts)]),
    ("sandpile", "split"): lambda h, w, ts: _tile_phases(h, w, ts, [sync_tile_specs(h, w, ts)]),
    ("asandpile", "seq"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "vec"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "frontier"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    ("asandpile", "lazy"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    ("asandpile", "omp"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    # gallery kernels carry no hand declaration: their tiled models run on
    # footprints the symbolic interpreter infers from the kernel source
    ("heat", "vec"): lambda h, w, ts: gather_cell_phase(h, w, CROSS_OFFSETS),
    ("heat", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [gallery_tile_specs("heat_tile", h, w, ts)]),
    ("life", "vec"): lambda h, w, ts: gather_cell_phase(h, w, MOORE_OFFSETS),
    ("life", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [gallery_tile_specs("life_tile", h, w, ts)]),
}


# -- certification ----------------------------------------------------------------


@dataclass
class VariantVerdict:
    """Outcome of certifying one registered variant."""

    kernel: str
    variant: str
    verdict: str  # "race-free" | "racy" | "unmodelled"
    expected: str  # what the registry tags promise
    report: RaceReport | None = None

    @property
    def ok(self) -> bool:
        """Verdict matches the registered expectation."""
        return self.verdict == self.expected

    @property
    def qualified_name(self) -> str:
        """The 'kernel/variant' display name."""
        return f"{self.kernel}/{self.variant}"


def certify_variant(
    kernel: str,
    variant: str,
    *,
    height: int = 12,
    width: int = 12,
    tile_size: int = 4,
    nworkers: int = 4,
    policy: str = "dynamic",
    chunk: int = 1,
    registry: KernelRegistry | None = None,
) -> VariantVerdict:
    """Statically certify one variant's schedule on a representative grid.

    ``dynamic`` with chunk 1 is the adversarial default: every cross-task
    pair is potentially concurrent, so a clean verdict holds under every
    other policy too (their concurrency relations are subsets).
    """
    import repro.gallery  # noqa: F401 - fills the registry
    import repro.sandpile.simulate  # noqa: F401 - fills the registry

    reg = registry if registry is not None else REGISTRY
    info = reg.get(kernel, variant)
    expected = "racy" if RACY_TAG in info.tags else "race-free"
    phases = variant_phases(kernel, variant, height=height, width=width, tile_size=tile_size)
    if phases is None:
        return VariantVerdict(kernel, variant, "unmodelled", expected)
    report = check_phases(phases, nworkers=nworkers, policy=policy, chunk=chunk)
    return VariantVerdict(kernel, variant, report.verdict, expected, report)


def certify_all(
    registry: KernelRegistry | None = None, **options
) -> list[VariantVerdict]:
    """Certify every variant in the registry (see :func:`certify_variant`)."""
    import repro.gallery  # noqa: F401 - fills the registry
    import repro.sandpile.simulate  # noqa: F401 - fills the registry

    reg = registry if registry is not None else REGISTRY
    return [
        certify_variant(info.kernel, info.name, registry=reg, **options)
        for info in reg.all_variants()
    ]


@dataclass
class FrontierCertification:
    """Verdict of certifying the per-step row shares of a real frontier run.

    ``iterations`` counts the region steps certified; ``crosses`` holds one
    static-vs-shadow confrontation per step, over the shares the region
    deals to ``nworkers`` participants.  For fused runs (``k > 1``)
    ``halo`` carries the temporal-blocking depth verdict: the window growth
    per step must cover ``stencil radius x k`` sub-steps.
    """

    iterations: int
    nworkers: int
    crosses: list[CrossCheck] = field(default_factory=list)
    k: int = 1
    halo: "HaloVerdict | None" = None

    @property
    def ok(self) -> bool:
        """Every step's shares race-free, shadow replays in-bounds, halo depth sound."""
        if self.halo is not None and not self.halo.ok:
            return False
        return all(c.ok and not c.static.racy for c in self.crosses)

    def summary(self) -> str:
        """One-line verdict for CLI/CI output."""
        verdict = "race-free" if self.ok else "RACY/UNSOUND"
        fused = f"k={self.k} fused, halo {'ok' if self.halo.ok else 'BAD'}, " if self.halo else ""
        return (
            f"pfrontier region row shares: {verdict} over {self.iterations} step(s) "
            f"({fused}nworkers={self.nworkers})"
        )


def check_region_shares(shares: list[list[TileTask]], planes, *, iteration: int = 0) -> CrossCheck:
    """Race-check one region step in which participant *w* runs ``shares[w]``.

    Each participant is one chunk pinned to a worker of its own: tasks of
    two participants may run at once, one participant's tasks never do.
    The shares are checked against their declared footprints and
    shadow-replayed on *planes* (mutated as the step mutates them), and the
    two verdicts are confronted (:func:`~repro.analysis.races.cross_check`).
    """
    specs = [t for share in shares for t in share]
    ends = list(accumulate(len(share) for share in shares))
    plan = tuple(tuple(range(end - len(share), end)) for share, end in zip(shares, ends))
    p = len(shares)
    fps = [footprint_for(t, planes[0].shape) for t in specs]
    static = check_phases([fps], nworkers=p, policy="static", plans=[plan])
    dynamic, _trace = dynamic_check(
        specs, planes, nworkers=p, policy="static", iteration=iteration, plan=plan
    )
    return cross_check(static, dynamic)


def _step_shares(geo, window, src: int, nworkers: int) -> list[list[TileTask]]:
    """The row runs a region step over *window* deals to each of *nworkers*
    participants, by the kernel's own ``cover``/``rows``/``deal`` calls:
    ``sync_tile_nc`` tasks (``sync_tile_k`` bands for k > 1) reading plane
    *src* and writing the other."""
    cover, _, shares, _ = geo.cover(window)
    kernel, arg = ("sync_tile_nc", None) if geo.k == 1 else ("sync_tile_k", geo.k)
    out = []
    for w in range(nworkers):
        lo, hi = deal(shares, nworkers, w)
        runs = geo.rows(cover, shares, lo, hi) if lo < hi else []
        out.append([
            TileTask(kernel, src, 1 - src,
                     Tile(w, w, 0, r0, cover[2], r1 - r0, cover[3] - cover[2]), arg=arg)
            for r0, r1 in runs
        ])
    return out


def certify_dynamic_frontier(
    *,
    height: int = 48,
    width: int = 48,
    tile_size: int = 8,
    nworkers: int = 4,
    max_iterations: int = 200,
    k: int = 1,
    nbands: int | None = None,
) -> FrontierCertification:
    """Certify the row shares a real ``pfrontier`` run deals, step by step.

    A :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper` is driven
    to its fixpoint in process on a representative off-centre grid (so
    windows hit the grid edge).  Before each step its region runs, the
    step's window and source plane are taken from the region's arguments
    and the pre-step planes copied; the row runs the region kernel deals
    to ``nworkers`` participants that step (:func:`_step_shares`, with
    ``nbands`` defaulting to ``nworkers``, as on a process backend of that
    many workers) are then statically checked and shadow-replayed on the
    copies (:func:`check_region_shares`); the cross-check demands every
    observed access stay inside the declared footprints.

    With ``k > 1`` each share is one fused ``sync_tile_k`` band (the grown
    read trapezoids of concurrent bands overlap, but writes stay
    disjoint), and the verdict additionally carries the
    :func:`~repro.analysis.halo.check_halo_depth` judgment that the
    window's growth per step covers ``stencil radius x k`` sub-steps.

    The writes by which a participant carries the previous cover forward
    are not race-certified here;
    ``tests/sandpile/test_pfrontier.py::test_segments_match_call_by_call_sequential``
    checks a process region, copies included, for bit-identity with the
    in-process run instead.
    """
    from repro.easypap.executor import SequentialBackend
    from repro.easypap.grid import Grid2D
    from repro.sandpile.kernels import grow_window
    from repro.sandpile.pfrontier import ParallelFrontierStepper

    steps: list[tuple[list[list[TileTask]], list]] = []

    class _CapturingBackend(SequentialBackend):
        def run_region(self, fn, args, collect, **kw):
            geo, _, live, step, _, bbox, _, _ = args()
            window = grow_window(bbox, geo.height, geo.width, geo.k)
            shares = _step_shares(geo, window, (live + step) % 2, nworkers)
            steps.append((shares, [p.copy() for p in self._planes]))
            super().run_region(fn, args, collect, **kw)

    grid = Grid2D(height, width)
    # off-centre pile: the window crosses the edge, exercising clamped covers
    grid.interior[1, 1] = 6 * max(height, width)
    grid.interior[height // 2, width // 2] = 8
    stepper = ParallelFrontierStepper(
        grid, tile_size, backend=_CapturingBackend(), k=k,
        nbands=nbands if nbands is not None else nworkers,
    )
    for _ in range(max_iterations):
        if not stepper():
            break

    crosses = [
        check_region_shares(shares, planes, iteration=it)
        for it, (shares, planes) in enumerate(steps)
    ]
    halo: HaloVerdict | None = None
    if k > 1:
        # one step advances k radius-1 sub-steps on a window grown by k
        halo = check_halo_depth(k, stencil_radius=1, iterations_between_exchanges=k)
    return FrontierCertification(
        iterations=len(steps), nworkers=nworkers, crosses=crosses, k=k, halo=halo
    )


def verdict_table(verdicts: list[VariantVerdict]) -> str:
    """Render verdicts as an aligned text table (the CLI/CI output)."""
    rows = [("variant", "verdict", "expected", "status")]
    for v in verdicts:
        rows.append((v.qualified_name, v.verdict, v.expected, "ok" if v.ok else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

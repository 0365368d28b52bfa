"""An EASYPAP-like kernel-execution framework in pure Python.

EASYPAP [Lasserre, Namyst, Wacrenier 2021] is the C framework the Abelian
sandpile assignment (Sec. II of the paper) is built on.  This package
reproduces its moving parts:

* :mod:`~repro.easypap.grid` — 2D grids with a sink border;
* :mod:`~repro.easypap.tiling` — tile decomposition;
* :mod:`~repro.easypap.kernel` — kernel/variant registry ("add a few lines
  of code ... and it is ready for command line testing");
* :mod:`~repro.easypap.schedule` — OpenMP-style loop scheduling policies
  simulated in virtual time;
* :mod:`~repro.easypap.executor` — sequential / simulated-parallel /
  real-thread / process backends, each recording one
  :mod:`repro.obs` span per executed tile (the Fig. 3 traces);
* :mod:`~repro.easypap.display` — per-tile owner maps queried from those
  spans (Fig. 4) and RGB rendering of grids and owner maps.
"""

from repro.easypap.app import AppResult, EasyPapApp
from repro.easypap.executor import (
    BatchSpec,
    ProcessBackend,
    SequentialBackend,
    SimulatedBackend,
    TaskBatch,
    ThreadBackend,
    make_backend,
    shutdown_idle_pool,
)
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import REGISTRY, KernelRegistry, VariantInfo, get_variant, register_variant
from repro.easypap.perf import PerfCampaign, PerfPoint, speedup_series
from repro.easypap.schedule import POLICIES, ScheduleResult, TaskSpan, simulate_schedule
from repro.easypap.tiling import Tile, TileGrid

__all__ = [
    "AppResult",
    "EasyPapApp",
    "Grid2D",
    "Tile",
    "TileGrid",
    "KernelRegistry",
    "VariantInfo",
    "REGISTRY",
    "register_variant",
    "get_variant",
    "POLICIES",
    "ScheduleResult",
    "TaskSpan",
    "simulate_schedule",
    "TaskBatch",
    "BatchSpec",
    "SequentialBackend",
    "SimulatedBackend",
    "ThreadBackend",
    "ProcessBackend",
    "shutdown_idle_pool",
    "make_backend",
    "PerfCampaign",
    "PerfPoint",
    "speedup_series",
]

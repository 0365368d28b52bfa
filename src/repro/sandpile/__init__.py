"""The Abelian sandpile assignment (Sec. II of the paper), complete.

Everything from the four course assignments is here:

1. **OpenMP basics** — tiled steppers under static/cyclic/dynamic/guided
   scheduling policies (:mod:`~repro.sandpile.omp`).
2. **Tiling & lazy evaluation** — :mod:`~repro.sandpile.lazy`,
   exercised by the tiled steppers.
3. **SIMD & GPU** — whole-grid vectorised kernels with an inner/outer tile
   split (:mod:`~repro.sandpile.vectorized`) and a simulated device
   (:mod:`~repro.sandpile.gpu`).
4. **Hybrid & distributed** — CPU+GPU dynamic load balancing
   (:mod:`~repro.sandpile.hybrid`) and the ghost-cell MPI variant
   (:mod:`~repro.sandpile.mpi`).

:mod:`~repro.sandpile.theory` holds the mathematics (Dhar's stabilisation
operator, the sandpile group identity, the burning test) used as the
oracle for every variant.  Importing this package registers all kernel
variants with :data:`repro.easypap.REGISTRY`.
"""

from repro.sandpile import simulate as _simulate  # registers variants
from repro.sandpile.analysis import (
    Avalanche,
    AvalancheStatistics,
    avalanche_statistics,
    drive_avalanches,
    toppling_profile,
)
from repro.sandpile.gpu import DeviceModel, GpuStepper, LazyGpuStepper
from repro.sandpile.hybrid import CpuModel, HybridStepper
from repro.sandpile.kernels import (
    async_sweep,
    async_tile_relax,
    grow_window,
    sync_step,
    sync_tile,
    sync_tile_nc,
    unstable_bbox,
)
from repro.sandpile.lazy import LazyFlags
from repro.sandpile.model import center_pile, max_stable, random_uniform, sparse_random, uniform
from repro.sandpile.mpi import DistributedResult, run_distributed
from repro.sandpile.mpi2d import Distributed2DResult, run_distributed_2d
from repro.sandpile.omp import TiledAsyncStepper, TiledSyncStepper, wave_partition
from repro.sandpile.reference import (
    async_compute_new_state,
    async_step_reference,
    stabilize_reference,
    sync_compute_new_state,
    sync_step_reference,
)
from repro.sandpile.simulate import RunResult, make_stepper, run_to_fixpoint
from repro.sandpile.theory import (
    add,
    burning_test,
    enumerate_recurrent,
    group_order,
    identity,
    is_recurrent,
    stabilize,
)
from repro.sandpile.vectorized import (
    AsyncVecStepper,
    FrontierAsyncStepper,
    FrontierSyncStepper,
    SplitSyncStepper,
    SyncVecStepper,
)

__all__ = [
    "Avalanche",
    "AvalancheStatistics",
    "drive_avalanches",
    "avalanche_statistics",
    "toppling_profile",
    "center_pile",
    "uniform",
    "max_stable",
    "sparse_random",
    "random_uniform",
    "sync_step",
    "sync_tile",
    "sync_tile_nc",
    "async_sweep",
    "async_tile_relax",
    "unstable_bbox",
    "grow_window",
    "sync_compute_new_state",
    "async_compute_new_state",
    "sync_step_reference",
    "async_step_reference",
    "stabilize_reference",
    "LazyFlags",
    "TiledSyncStepper",
    "TiledAsyncStepper",
    "wave_partition",
    "SyncVecStepper",
    "AsyncVecStepper",
    "FrontierSyncStepper",
    "FrontierAsyncStepper",
    "SplitSyncStepper",
    "DeviceModel",
    "GpuStepper",
    "LazyGpuStepper",
    "CpuModel",
    "HybridStepper",
    "DistributedResult",
    "run_distributed",
    "Distributed2DResult",
    "run_distributed_2d",
    "RunResult",
    "run_to_fixpoint",
    "make_stepper",
    "stabilize",
    "add",
    "identity",
    "is_recurrent",
    "burning_test",
    "group_order",
    "enumerate_recurrent",
]

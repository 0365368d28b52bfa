"""Shared infrastructure: RNG, units, tables, colours, errors, resilience."""

from repro.common.checkpoint import CHECKPOINT_FORMAT, CheckpointStore, Snapshot
from repro.common.errors import (
    CheckpointError,
    CommunicationError,
    ConfigurationError,
    DataValidationError,
    KernelError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.common.job import Job, JobProgress, OneShotJob
from repro.common.resilience import (
    Deadline,
    DegradationEvent,
    DegradationLog,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
)
from repro.common.rng import DEFAULT_SEED, derive_seed, make_rng, spawn_rngs
from repro.common.supervisor import (
    CircuitBreaker,
    CircuitOpenError,
    Heartbeat,
    JobInterrupted,
    Supervisor,
)
from repro.common.tables import Table, format_table, histogram_bar

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "CommunicationError",
    "SchedulingError",
    "DataValidationError",
    "KernelError",
    "CheckpointError",
    "Job",
    "JobProgress",
    "OneShotJob",
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "Snapshot",
    "Supervisor",
    "CircuitBreaker",
    "CircuitOpenError",
    "Heartbeat",
    "JobInterrupted",
    "InjectedFault",
    "RetryPolicy",
    "Deadline",
    "FaultInjector",
    "DegradationEvent",
    "DegradationLog",
    "DEFAULT_SEED",
    "make_rng",
    "spawn_rngs",
    "derive_seed",
    "Table",
    "format_table",
    "histogram_bar",
]

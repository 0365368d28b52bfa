"""Declarative fault scenarios and the default campaign matrix.

A :class:`Scenario` names one (substrate, fault kind, seed) cell plus
free-form workload parameters.  The fault kinds:

``inject-raise``
    An exception is injected inside a task attempt; retries must absorb
    it (or, where every attempt fails by construction, the error must
    surface with actionable diagnostics).
``worker-kill``
    A worker process dies mid-task (easypap: ``os._exit`` in a pool
    worker; wrench: the fault model's transient host failures).
``deadline``
    A time budget expires mid-run; the run must stop gracefully — a
    resumable snapshot on checkpointing substrates, a diagnosable
    timeout error on simmpi's deadlocked world.
``corrupt-checkpoint``
    The newest snapshot file is bit-flipped between kill and resume; the
    resume must fall back to the previous valid snapshot.
``kill-resume``
    The run is interrupted mid-flight and resumed from its latest
    checkpoint; the resumed result must be bit-identical.
``region-kill``
    A worker dies at a later step of a segment that ``run_to_fixpoint``
    runs as one parallel region; the run must resume on a rebuilt set
    from the last step every worker published.

The easypap process backend leases its workers from an idle pool that
outlives each job, so five more kinds check what one lease may hand the
next (each job must reach the bit-identical fixpoint):

``pool-kill``
    An idle pooled worker is killed between two jobs; the next job must
    run on a freshly forked set.
``pool-failed-job``
    A worker dies mid-job and the job exhausts its retries; the next job
    must not receive any worker of the failed set.
``pool-isolation``
    Back-to-back jobs on different grid sizes and fused step counts reuse
    one set; nothing of the first (planes, claim ids, replies) may reach
    the second.
``pool-late-kernel``
    A tile kernel is registered after the idle set forked; the next job
    must run on workers forked after the registration.
``pool-concurrent``
    Two threads lease at once; each must get a set of its own.

Not every kind applies to every substrate (there is no worker process to
kill in the thread-based mapreduce engine, and an SPMD world has no
mid-run snapshot); :func:`default_campaign` enumerates the meaningful
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_SEED

__all__ = ["KINDS", "SUBSTRATES", "Scenario", "default_campaign"]

POOL_KINDS = (
    "pool-kill", "pool-failed-job", "pool-isolation", "pool-late-kernel", "pool-concurrent"
)
KINDS = frozenset(
    {
        "inject-raise", "worker-kill", "region-kill", "deadline", "corrupt-checkpoint",
        "kill-resume", *POOL_KINDS,
    }
)
SUBSTRATES = ("easypap", "mapreduce", "simmpi", "wrench")


@dataclass(frozen=True)
class Scenario:
    """One cell of a campaign: a fault kind on a substrate with a seed."""

    substrate: str
    kind: str
    seed: int = DEFAULT_SEED
    #: free-form workload knobs the substrate harness understands
    params: dict = field(default_factory=dict)
    #: scenario needs real worker processes (skipped where unavailable)
    requires_processes: bool = False

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ConfigurationError(
                f"unknown substrate {self.substrate!r}; choose from {sorted(SUBSTRATES)}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(KINDS)}"
            )

    @property
    def name(self) -> str:
        return f"{self.substrate}/{self.kind}@seed={self.seed}"


#: the meaningful (substrate, kind) cells; see the module docstring for
#: why the matrix is not a full cross product
_DEFAULT_CELLS: tuple[tuple[str, str, bool], ...] = (
    ("easypap", "inject-raise", True),
    ("easypap", "worker-kill", True),
    ("easypap", "region-kill", True),
    ("easypap", "deadline", False),
    ("easypap", "corrupt-checkpoint", False),
    ("easypap", "kill-resume", False),
    *(("easypap", kind, True) for kind in POOL_KINDS),
    ("mapreduce", "inject-raise", False),
    ("mapreduce", "deadline", False),
    ("mapreduce", "corrupt-checkpoint", False),
    ("mapreduce", "kill-resume", False),
    ("simmpi", "inject-raise", False),
    ("simmpi", "deadline", False),
    ("simmpi", "kill-resume", False),
    ("wrench", "worker-kill", False),
    ("wrench", "kill-resume", False),
)


def default_campaign(
    *,
    seeds: tuple[int, ...] = (DEFAULT_SEED,),
    substrates: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] | None = None,
) -> list[Scenario]:
    """The standard matrix: every meaningful cell × every seed.

    ``substrates``/``kinds`` filter the matrix (None keeps everything);
    filtering to an empty list is a configuration error, not a vacuously
    green campaign.
    """
    out = [
        Scenario(substrate=s, kind=k, seed=seed, requires_processes=procs)
        for (s, k, procs) in _DEFAULT_CELLS
        if (substrates is None or s in substrates) and (kinds is None or k in kinds)
        for seed in seeds
    ]
    if not out:
        raise ConfigurationError(
            f"no scenarios match substrates={substrates!r} kinds={kinds!r}"
        )
    return out

"""The benchmark's own arithmetic: percentiles, sample rules, outcome balance.

Kept free of the program under test so the unit tests in ``tests/`` can
check it in isolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: a reported percentile needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    the samples at or below it (``q`` in (0, 1]).

    Nearest rank always returns a measured sample, never an interpolation
    between two, so a percentile over a time-bounded run stays a latency
    some job actually had.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie strictly above the q-percentile rank."""
    return n - max(1, math.ceil(q * n))


#: a repetition whose yardstick ran this much slower than in the run's
#: fastest repetition is set aside
SLOW_REP = 1.15


@dataclass
class Rep:
    """One repetition of a workload's block of jobs.

    ``ref`` and ``wall`` hold each job position's latency in reference time
    (see :mod:`yardstick`) and in wall time, None where the job gave no
    correct result; ``yard`` is the median yardstick time of the probes
    taken during the repetition.
    """

    ref: list
    wall: list
    yard: float


def steady_reps(reps: list[Rep], keep_at_least: int) -> list[Rep]:
    """The repetitions the host ran at the speed of the run's fastest one.

    Small shared hosts drop into a slower CPU state for seconds at a time.
    Reference time cancels the slowdown of a single job, but not the extra
    queueing it brings an open loop, so repetitions whose yardstick ran more
    than SLOW_REP slower than in the fastest are set aside — while at least
    *keep_at_least* remain.  A slowdown the program causes in every
    repetition sets none aside.
    """
    fastest = min(r.yard for r in reps)
    keep = [r for r in reps if r.yard <= SLOW_REP * fastest]
    if len(keep) < keep_at_least:
        keep = sorted(reps, key=lambda r: r.yard)[:keep_at_least]
    return keep


def position_medians(reps) -> list[float | None]:
    """Median over repetitions of each job position's latency.

    *reps* holds one list per repetition of the same job sequence, with
    None where that job did not yield a correct result; such a position
    has no latency (None).
    """
    out: list[float | None] = []
    for column in zip(*reps):
        out.append(None if None in column else statistics.median(column))
    return out


@dataclass
class Outcomes:
    """What happened to every attempted job.

    ``wrong`` jobs completed but returned a result that failed the
    correctness check; they count as completed *and* as bad.
    """

    attempted: int = 0
    ok: int = 0
    wrong: int = 0
    failed: int = 0
    rejected: int = 0
    cancelled: int = 0

    @property
    def completed(self) -> int:
        return self.ok + self.wrong

    @property
    def bad(self) -> int:
        """Jobs that did not yield a correct result."""
        return self.wrong + self.failed + self.rejected + self.cancelled

    @property
    def failed_ratio(self) -> float:
        return self.bad / self.attempted if self.attempted else 0.0

    def balanced(self) -> bool:
        """attempted == completed + failed + rejected + cancelled."""
        return self.attempted == self.completed + self.failed + self.rejected + self.cancelled

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted, "completed": self.completed, "ok": self.ok,
            "wrong": self.wrong, "failed": self.failed, "rejected": self.rejected,
            "cancelled": self.cancelled, "failed_ratio": self.failed_ratio,
        }

"""Service configuration and job lists: the two files ``repro-serve run`` reads.

JSON always works.  YAML works for the config when ``pyyaml`` happens to
be installed — the dependency is *optional* and gated at call time,
matching the repo rule that missing third-party packages degrade with an
honest error instead of an import-time crash.

Config shape (JSON shown)::

    {
      "workers": 4,
      "cache_dir": "results-cache",
      "tenants": [
        {"name": "alice", "weight": 3, "max_active": 2, "max_queued": 16},
        {"name": "bob"}
      ]
    }

Jobs shape (JSON only; ``tenant`` defaults to ``"default"``, ``params``
to ``{}`` and ``priority`` to 0)::

    [
      {"tenant": "alice", "substrate": "simmpi", "workload": "world",
       "params": {"nranks": 2}, "priority": 1},
      {"substrate": "wrench", "workload": "montage"}
    ]

Both loaders raise :class:`~repro.common.errors.ConfigurationError` with
a message that names the file (and, for jobs, the row).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.serve.admission import TenantPolicy
from repro.serve.spec import JobSpec

__all__ = ["ServiceConfig", "load_config", "load_jobs"]

#: the keys a jobs row may carry, each with the one type it must have
_JOB_KEYS = {"tenant": str, "substrate": str, "workload": str, "params": dict, "priority": int}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to build a :class:`~repro.serve.service.JobService`."""

    tenants: tuple[TenantPolicy, ...]
    workers: int = 2
    cache_dir: str | None = None
    #: keep pickled results in process memory in front of the durable layer
    memory_cache: bool = True

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("config needs at least one tenant")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ServiceConfig":
        """Build from a parsed config document (see module docs for shape)."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config root must be a mapping, got {type(doc).__name__}")
        unknown = set(doc) - {"tenants", "workers", "cache_dir", "memory_cache"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        raw_tenants = doc.get("tenants", [])
        tenants = []
        for row in raw_tenants:
            if not isinstance(row, dict):
                raise ConfigurationError(f"tenant entries must be mappings, got {row!r}")
            extra = set(row) - {"name", "weight", "max_active", "max_queued"}
            if extra:
                raise ConfigurationError(f"unknown tenant keys: {sorted(extra)}")
            tenants.append(TenantPolicy(**row))
        return cls(
            tenants=tuple(tenants),
            workers=int(doc.get("workers", 2)),
            cache_dir=doc.get("cache_dir"),
            memory_cache=bool(doc.get("memory_cache", True)),
        )


def load_config(path: str | os.PathLike) -> ServiceConfig:
    """Load a service config from a JSON (always) or YAML (gated) file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    if p.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # noqa: F401 - optional dependency, gated here
        except ImportError as exc:
            raise ConfigurationError(
                f"{p.name} is YAML but pyyaml is not installed; use JSON instead"
            ) from exc
        doc = yaml.safe_load(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {p} is not valid JSON: {exc}") from exc
    try:
        return ServiceConfig.from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config {p}: {exc}") from exc


def load_jobs(path: str | os.PathLike) -> list[tuple[str, JobSpec, int]]:
    """Load a jobs file (see module docs for shape) as ``(tenant, spec, priority)`` rows.

    Checks only the file's shape: the spec itself (known workload, valid
    params) is checked at submission, which rejects a bad one honestly.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read jobs {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"jobs {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigurationError(f"jobs {p}: root must be a list, got {type(doc).__name__}")
    jobs = []
    for i, row in enumerate(doc):
        where = f"jobs {p} row {i}"
        if not isinstance(row, dict):
            raise ConfigurationError(f"{where}: must be a mapping, got {type(row).__name__}")
        unknown = set(row) - set(_JOB_KEYS)
        if unknown:
            raise ConfigurationError(f"{where}: unknown job keys: {sorted(unknown)}")
        missing = [k for k in ("substrate", "workload") if k not in row]
        if missing:
            raise ConfigurationError(f"{where}: missing {missing}")
        for key, value in row.items():
            if type(value) is not _JOB_KEYS[key]:  # exact: a JSON true is no priority
                raise ConfigurationError(
                    f"{where}: {key} must be {_JOB_KEYS[key].__name__}, got {value!r}"
                )
        spec = JobSpec(row["substrate"], row["workload"], row.get("params", {}))
        jobs.append((row.get("tenant", "default"), spec, row.get("priority", 0)))
    return jobs

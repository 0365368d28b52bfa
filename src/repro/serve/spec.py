"""Job specs: the serializable submission unit of the serve layer.

A :class:`JobSpec` names a *workload* on a *substrate* plus canonical
parameters; the registry maps ``(substrate, workload)`` to the substrate
adapter's ``from_spec`` constructor.  This is the indirection that lets
the service (and its content-addressed cache) stay substrate-agnostic:
everything the result depends on travels inside the spec, nothing inside
closures.

**Cache keys.**  :func:`cache_key` hashes the *canonical* spec — params
merged with the builder's declared defaults, JSON-serialised with sorted
keys — together with :data:`SPEC_FORMAT`.  Two properties matter:

* **stability across processes**: the key is a pure function of the spec
  text, so a resubmission in a different process (or on a different day)
  hits the same cache entry;
* **stability across registry versions**: the volatile kernel-registry
  counter (:func:`repro.easypap.executor.registry_version` bumps on every
  registration, which depends on import order) is deliberately *not*
  hashed.  Builder semantics are versioned by the explicit
  ``version=`` each registration declares, folded into the key; bump it
  when a builder's meaning changes incompatibly.

``tests/serve/test_spec.py`` asserts both properties, including in a
subprocess.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.job import Job

__all__ = [
    "SPEC_FORMAT",
    "JobSpec",
    "register_workload",
    "registered_workloads",
    "canonical_spec",
    "cache_key",
    "build_job",
]

#: spec envelope format; bump on incompatible canonicalisation changes
SPEC_FORMAT = 1


@dataclass(frozen=True)
class JobSpec:
    """What a tenant submits: a named workload plus parameters.

    ``params`` may be partial — canonicalisation merges the builder's
    defaults, so ``JobSpec("easypap", "sandpile", {})`` and an explicit
    spelling of every default produce the *same* cache key.
    """

    substrate: str
    workload: str
    params: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        """Defaults-merged, validated, JSON-ready form (see module docs)."""
        return canonical_spec(self)

    def key(self) -> str:
        """The content-addressed cache key for this spec."""
        return cache_key(self)

    def build(self) -> Job:
        """Construct the substrate job this spec describes."""
        return build_job(self)


@dataclass(frozen=True)
class _Workload:
    builder: object  # callable(params: dict) -> Job
    defaults: dict
    version: int


_REGISTRY: dict[tuple[str, str], _Workload] = {}
_BUILTINS_LOADED = False


def register_workload(
    substrate: str, workload: str, builder, *, defaults: dict | None = None, version: int = 1
) -> None:
    """Register a spec constructor for ``(substrate, workload)``.

    ``builder(params)`` must return a :class:`~repro.common.job.Job`
    whose ``describe()['params']`` equals the canonical params — the
    round-trip the spec tests pin down.  ``defaults`` (typically the
    adapter's ``SPEC_DEFAULTS``) drive canonicalisation; ``version``
    is folded into every cache key minted for this workload.
    """
    key = (substrate, workload)
    if key in _REGISTRY:
        raise ConfigurationError(f"workload {substrate}/{workload} already registered")
    _REGISTRY[key] = _Workload(builder=builder, defaults=dict(defaults or {}), version=version)


def _ensure_builtins() -> None:
    # lazy: keep `import repro.serve` light and cycle-free; the four
    # substrate adapters register on first spec use
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.easypap.job import SandpileJob
    from repro.mapreduce.stepjob import MapReduceStepJob
    from repro.simmpi.job import SimMpiJob
    from repro.wrench.job import WrenchJob

    # version 2: iterations count grid iterations (k per call), not calls
    register_workload(
        "easypap", "sandpile", SandpileJob.from_spec,
        defaults=SandpileJob.SPEC_DEFAULTS, version=2,
    )
    register_workload(
        "mapreduce", "wordcount", MapReduceStepJob.from_spec,
        defaults=MapReduceStepJob.SPEC_DEFAULTS,
    )
    register_workload("simmpi", "world", SimMpiJob.from_spec, defaults=SimMpiJob.SPEC_DEFAULTS)
    register_workload("wrench", "montage", WrenchJob.from_spec, defaults=WrenchJob.SPEC_DEFAULTS)


def registered_workloads() -> list[tuple[str, str]]:
    """Sorted ``(substrate, workload)`` pairs currently registered."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def _lookup(spec: JobSpec) -> _Workload:
    _ensure_builtins()
    wl = _REGISTRY.get((spec.substrate, spec.workload))
    if wl is None:
        avail = ", ".join("/".join(k) for k in sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown workload {spec.substrate}/{spec.workload}; registered: {avail}"
        )
    return wl


def canonical_spec(spec: JobSpec) -> dict:
    """Defaults-merged canonical dict for *spec* (raises on unknown params)."""
    wl = _lookup(spec)
    unknown = set(spec.params) - set(wl.defaults)
    if wl.defaults and unknown:
        raise ConfigurationError(
            f"unknown params for {spec.substrate}/{spec.workload}: {sorted(unknown)}"
        )
    merged = {**wl.defaults, **spec.params}
    return {
        "substrate": spec.substrate,
        "workload": spec.workload,
        "params": {k: merged[k] for k in sorted(merged)},
        "workload_version": wl.version,
    }


def cache_key(spec: JobSpec) -> str:
    """sha256 over the canonical spec plus the spec format (hex digest)."""
    doc = {"format": SPEC_FORMAT, **canonical_spec(spec)}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_job(spec: JobSpec) -> Job:
    """Construct the job; its ``describe()`` must round-trip the spec."""
    wl = _lookup(spec)
    return wl.builder(dict(spec.params))

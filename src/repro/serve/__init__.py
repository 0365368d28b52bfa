"""repro.serve — multi-tenant async job service over every substrate.

The service layer the ROADMAP's "unified Job protocol" PR was building
towards: tenants submit :class:`~repro.serve.spec.JobSpec` values to a
:class:`~repro.serve.service.JobService` and get futures-based
:class:`~repro.serve.service.JobHandle` objects back (``await
handle.result()``, cancel, progress streaming); an admission layer
(:mod:`repro.serve.admission`) enforces per-tenant quotas with
weighted-fair queuing and sheds overload honestly; a content-addressed
result cache (:mod:`repro.serve.cache`, keyed by
:func:`repro.serve.spec.cache_key`) makes resubmitting an identical
assignment cost one dict lookup, bit-identical to the fresh run.

CLI surface: ``repro-serve {run,submit}``; SLO summaries live in
:mod:`repro.obs.adapters.serve`.
"""

from repro.serve.admission import AdmissionQueue, Rejected, TenantPolicy
from repro.serve.cache import ResultCache, result_fingerprint
from repro.serve.config import ServiceConfig, load_config, load_jobs
from repro.serve.service import JobCancelled, JobHandle, JobService
from repro.serve.spec import (
    SPEC_FORMAT,
    JobSpec,
    build_job,
    cache_key,
    canonical_spec,
    register_workload,
    registered_workloads,
)

__all__ = [
    "SPEC_FORMAT",
    "JobSpec",
    "register_workload",
    "registered_workloads",
    "canonical_spec",
    "cache_key",
    "build_job",
    "ResultCache",
    "result_fingerprint",
    "TenantPolicy",
    "Rejected",
    "AdmissionQueue",
    "JobService",
    "JobHandle",
    "JobCancelled",
    "ServiceConfig",
    "load_config",
    "load_jobs",
]

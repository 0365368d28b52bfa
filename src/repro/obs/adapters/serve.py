"""SLO views over the serve layer's metrics.

The service records raw series (``serve_queue_latency_seconds``,
``serve_job_seconds`` histograms; ``serve_jobs_total`` counters;
``serve_cache_hit_ratio`` gauge); this adapter derives the operator-facing
summary: p50/p99 quantile estimates per series (the standard
Prometheus-style linear interpolation inside the owning cumulative
bucket) and a compact SLO table the CLI prints after ``repro-serve
run``.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["SERVE_PID", "estimate_quantile", "slo_summary", "render_slo"]

#: track-group name the service records its spans under
SERVE_PID = "serve"


def estimate_quantile(hist: Histogram, q: float, **labels) -> float | None:
    """Estimate the q-quantile of one histogram series from its buckets.

    Linear interpolation within the bucket that holds the target rank
    (the ``histogram_quantile`` approach).  Observations above the last
    finite bucket clamp to that bucket's upper bound.  Returns None for
    an empty series or q outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        return None
    total = hist.count(**labels)
    if total == 0:
        return None
    rank = q * total
    # rebuild the cumulative counts for this one series from the snapshot
    from repro.obs.metrics import _labelkey  # same-package private helper

    key = _labelkey(labels)
    for row in hist.samples():
        if _labelkey(row["labels"]) != key:
            continue
        prev_cum, prev_ub = 0, 0.0
        finite = [(float(ub), c) for ub, c in row["buckets"].items() if ub != "+Inf"]
        for ub, cum in finite:
            if cum >= rank:
                in_bucket = cum - prev_cum
                if in_bucket <= 0:
                    return ub
                frac = (rank - prev_cum) / in_bucket
                return prev_ub + (ub - prev_ub) * frac
            prev_cum, prev_ub = cum, ub
        return finite[-1][0] if finite else None
    return None


def _series_labelsets(hist: Histogram) -> list[dict]:
    return [row["labels"] for row in hist.samples()]


def slo_summary(metrics: MetricsRegistry) -> dict:
    """The serve SLO view of *metrics* as a plain dict.

    Keys: ``queue_latency`` (per-tenant p50/p99/count),
    ``job_time`` (per-(tenant, substrate, outcome) p50/p99/count),
    ``cache_hit_ratio``, ``jobs`` (outcome counts per tenant).
    """
    out: dict = {"queue_latency": {}, "job_time": {}, "jobs": {}, "cache_hit_ratio": None}
    qh = metrics.get("serve_queue_latency_seconds")
    if isinstance(qh, Histogram):
        for labels in _series_labelsets(qh):
            name = labels.get("tenant", "?")
            out["queue_latency"][name] = {
                "count": qh.count(**labels),
                "p50": estimate_quantile(qh, 0.50, **labels),
                "p99": estimate_quantile(qh, 0.99, **labels),
            }
    jh = metrics.get("serve_job_seconds")
    if isinstance(jh, Histogram):
        for labels in _series_labelsets(jh):
            key = "/".join(
                labels.get(k, "?") for k in ("tenant", "substrate", "outcome")
            )
            out["job_time"][key] = {
                "count": jh.count(**labels),
                "p50": estimate_quantile(jh, 0.50, **labels),
                "p99": estimate_quantile(jh, 0.99, **labels),
            }
    jobs = metrics.get("serve_jobs_total")
    if jobs is not None:
        for row in jobs.samples():
            tenant = row["labels"].get("tenant", "?")
            outcome = row["labels"].get("outcome", "?")
            out["jobs"].setdefault(tenant, {})[outcome] = int(row["value"])
    ratio = metrics.get("serve_cache_hit_ratio")
    if ratio is not None and ratio.samples():
        out["cache_hit_ratio"] = ratio.samples()[0]["value"]
    return out


def _ms(v: float | None) -> str:
    return "-" if v is None else f"{v * 1e3:.1f}ms"


def render_slo(metrics: MetricsRegistry) -> str:
    """A terminal-friendly SLO table (see :func:`slo_summary`)."""
    s = slo_summary(metrics)
    lines = ["serve SLO summary"]
    for tenant, row in sorted(s["queue_latency"].items()):
        lines.append(
            f"  queue[{tenant}]: n={row['count']} p50={_ms(row['p50'])} p99={_ms(row['p99'])}"
        )
    for key, row in sorted(s["job_time"].items()):
        lines.append(
            f"  job[{key}]: n={row['count']} p50={_ms(row['p50'])} p99={_ms(row['p99'])}"
        )
    for tenant, row in sorted(s["jobs"].items()):
        cells = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        lines.append(f"  outcomes[{tenant}]: {cells}")
    if s["cache_hit_ratio"] is not None:
        lines.append(f"  cache hit ratio: {s['cache_hit_ratio']:.2f}")
    return "\n".join(lines)

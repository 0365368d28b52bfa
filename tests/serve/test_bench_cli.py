"""Tests for the bench harness, service config files, and the serve CLI."""

import asyncio
import json
import threading

import pytest

from repro.cli import serve_main
from repro.common.errors import ConfigurationError
from repro.common.job import Job, JobProgress
from repro.serve import (
    BenchReport,
    JobService,
    JobSpec,
    ServiceConfig,
    TenantPolicy,
    load_config,
    run_bench,
)
from repro.serve.spec import register_workload

FAST_MIX = [
    JobSpec("mapreduce", "wordcount", {"nsplits": 2, "lines_per_split": 2}),
    JobSpec("simmpi", "world", {"nranks": 2}),
    JobSpec("wrench", "montage", {"n_projections": 3, "n_difffits": 4}),
]

#: held shut while a test submits, so no gated job can finish before then
GATE = threading.Event()


class GatedJob(Job):
    """One step that blocks until :data:`GATE` opens."""

    name = "gated"
    substrate = "test"

    def __init__(self):
        self.done = False

    def step(self):
        if not GATE.wait(timeout=30):
            raise TimeoutError("the test never opened the gate")
        self.done = True
        return False

    def result(self):
        return {"done": self.done}

    def progress(self):
        return JobProgress(steps_done=int(self.done), done=self.done, steps_total=1)


register_workload("test", "gated", lambda p: GatedJob())


class TestRunBench:
    def test_report_accounts_for_every_request(self):
        async def body():
            async with JobService(
                [TenantPolicy(name="a"), TenantPolicy(name="b")], workers=2
            ) as svc:
                return await run_bench(svc, requests=8, rate=200.0, seed=1,
                                       specs=FAST_MIX)

        report = run_async(body())
        assert report.requests == 8
        total = report.completed + report.rejected + report.failed + report.cancelled
        assert total == 8
        assert len(report.latencies) == report.completed
        assert report.cache_hits <= report.completed
        assert sum(sum(r.values()) for r in report.by_tenant.values()) == 8

    def test_seed_fixes_the_arrival_schedule(self):
        # same seed => same tenant/spec choices (latencies differ, counts
        # per tenant must not)
        async def one():
            async with JobService(
                [TenantPolicy(name="a"), TenantPolicy(name="b")], workers=2
            ) as svc:
                return await run_bench(svc, requests=10, rate=500.0, seed=7,
                                       specs=FAST_MIX)

        a, b = run_async(one()), run_async(one())
        assert sorted(a.by_tenant) == sorted(b.by_tenant)
        for tenant in a.by_tenant:
            assert sum(a.by_tenant[tenant].values()) == sum(b.by_tenant[tenant].values())

    def test_shedding_shows_up_in_the_report(self):
        """Jobs that cannot finish while requests arrive must be shed.

        Every job waits on :data:`GATE`, which opens only once the last
        request has been admitted or rejected, so one slot running and one
        queued leave the rest to ``queue-full`` on any host speed.
        """
        requests = 12

        async def body():
            pol = TenantPolicy(name="a", max_active=1, max_queued=1)
            async with JobService([pol], workers=1) as svc:
                submit, submitted = svc.submit, []

                def submit_then_count(spec, **kw):
                    submitted.append(submit(spec, **kw))  # admitted or rejected here
                    if len(submitted) == requests:
                        GATE.set()
                    return submitted[-1]

                svc.submit = submit_then_count
                return await run_bench(svc, requests=requests, rate=5000.0,
                                       seed=0, specs=[JobSpec("test", "gated")],
                                       tenants=["a"])

        GATE.clear()
        try:
            report = run_async(body())
        finally:
            GATE.set()
        assert report.completed + report.rejected == requests
        assert report.rejected > 0
        assert report.rejected_reasons.get("queue-full", 0) == report.rejected

    def test_render_and_percentiles(self):
        report = BenchReport(requests=4, rate=10.0, duration=2.0, completed=4,
                             latencies=[0.010, 0.020, 0.030, 0.040])
        assert report.percentile(0.0) == 0.010
        assert report.percentile(1.0) == 0.040
        assert report.throughput == 2.0
        text = report.render()
        assert "4 completed" in text and "latency p50/p90/p99" in text

    def test_validation(self):
        async def bad(**kw):
            async with JobService([TenantPolicy(name="a")], workers=1) as svc:
                await run_bench(svc, **kw)

        with pytest.raises(ConfigurationError, match="requests"):
            run_async(bad(requests=0))
        with pytest.raises(ConfigurationError, match="rate"):
            run_async(bad(rate=-1.0))
        with pytest.raises(ConfigurationError, match="at least one"):
            run_async(bad(specs=[]))


def run_async(coro):
    return asyncio.run(coro)


class TestServiceConfig:
    def test_from_dict_round_trip(self):
        cfg = ServiceConfig.from_dict({
            "workers": 3,
            "cache_dir": "cache",
            "tenants": [
                {"name": "alice", "weight": 3, "max_active": 2},
                {"name": "bob"},
            ],
        })
        assert cfg.workers == 3
        assert cfg.cache_dir == "cache"
        assert [t.name for t in cfg.tenants] == ["alice", "bob"]
        assert cfg.tenants[0].weight == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ServiceConfig.from_dict({"tenants": [{"name": "a"}], "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown tenant keys"):
            ServiceConfig.from_dict({"tenants": [{"name": "a", "color": "red"}]})

    def test_empty_or_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one tenant"):
            ServiceConfig.from_dict({"tenants": []})
        with pytest.raises(ConfigurationError, match="workers"):
            ServiceConfig.from_dict({"tenants": [{"name": "a"}], "workers": 0})
        with pytest.raises(ConfigurationError, match="mapping"):
            ServiceConfig.from_dict(["not", "a", "dict"])

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps({"tenants": [{"name": "a"}], "workers": 4}))
        cfg = load_config(path)
        assert cfg.workers == 4 and cfg.tenants[0].name == "a"

    def test_load_missing_or_broken_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(bad)

    def test_yaml_is_gated_on_pyyaml(self, tmp_path):
        path = tmp_path / "serve.yaml"
        path.write_text("tenants:\n  - name: a\n")
        try:
            import yaml  # noqa: F401
        except ImportError:
            with pytest.raises(ConfigurationError, match="pyyaml"):
                load_config(path)
        else:  # pragma: no cover - only when pyyaml is installed
            assert load_config(path).tenants[0].name == "a"


class TestServeCli:
    def test_bench_writes_metrics_and_trace(self, tmp_path, capsys):
        prom = tmp_path / "serve.prom"
        trace = tmp_path / "serve-trace.json"
        rc = serve_main([
            "bench", "--requests", "6", "--rate", "200", "--workers", "2",
            "--metrics-prom", str(prom), "--trace-out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered load" in out and "SLO" in out or "outcomes:" in out
        assert "serve_queue_latency_seconds" in prom.read_text()
        records = json.loads(trace.read_text())
        events = records["traceEvents"] if isinstance(records, dict) else records
        assert any(e.get("name", "").startswith("serve:") for e in events)

    def test_run_from_config_and_jobs_files(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "workers": 2,
            "cache_dir": str(tmp_path / "cache"),
            "tenants": [{"name": "alice", "weight": 2}, {"name": "bob"}],
        }))
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"tenant": "alice", "substrate": "mapreduce", "workload": "wordcount",
             "params": {"nsplits": 2, "lines_per_split": 2}},
            {"tenant": "bob", "substrate": "simmpi", "workload": "world",
             "params": {"nranks": 2}},
        ]))
        rc = serve_main(["run", "--config", str(config), "--jobs", str(jobs)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("done") == 2
        assert "[cache hit]" not in out
        # a second batch over the same durable cache dir hits for both rows
        rc = serve_main(["run", "--config", str(config), "--jobs", str(jobs)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[cache hit]") == 2

    def test_submit_twice_hits_durable_cache(self, tmp_path, capsys):
        argv = [
            "submit", "--substrate", "wrench", "--workload", "montage",
            "--param", "n_projections=3", "--param", "n_difffits=4",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert serve_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert "[cache hit]" not in first
        assert serve_main(list(argv)) == 0  # fresh service, same durable dir
        second = capsys.readouterr().out
        assert "[cache hit]" in second

    def test_submit_unknown_workload_exits_nonzero(self, capsys):
        rc = serve_main(["submit", "--substrate", "easypap", "--workload", "nope"])
        assert rc == 1
        assert "invalid-spec" in capsys.readouterr().err

"""Tests for the service config and jobs files, and the ``repro-serve`` CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import serve_main
from repro.common.errors import ConfigurationError
from repro.serve import JobSpec, ServiceConfig, load_config, load_jobs

#: the committed pair the README and the CI serve job run
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "serve"
#: a valid one-tenant config file's text, and a valid jobs row for that tenant
CONFIG = json.dumps({"tenants": [{"name": "a"}]})
WORLD = {"tenant": "a", "substrate": "simmpi", "workload": "world"}


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

    def test_load_jobs_fills_defaults(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"substrate": "simmpi", "workload": "world"},
            {**WORLD, "params": {"nranks": 3}, "priority": 2},
        ]))
        assert load_jobs(path) == [
            ("default", JobSpec("simmpi", "world", {}), 0),
            ("a", JobSpec("simmpi", "world", {"nranks": 3}), 2),
        ]


#: case -> (config text, jobs text, the file the error line names, what
#: the line says); a text of None means that file does not exist.  Texts
#: are written as Latin-1, so "\xff" is a byte that starts no UTF-8 text.
MALFORMED = {
    "row-without-substrate": (
        CONFIG, json.dumps([{"tenant": "a", "workload": "world"}]), "jobs",
        "row 0: missing ['substrate']"),
    "jobs-not-a-list": (CONFIG, json.dumps(WORLD), "jobs", "root must be a list"),
    "priority-not-an-int": (
        CONFIG, json.dumps([WORLD, {**WORLD, "priority": "high"}]), "jobs",
        "row 1: priority must be int"),
    "row-not-a-mapping": (CONFIG, json.dumps([["simmpi", "world"]]), "jobs",
                          "row 0: must be a mapping"),
    "unknown-job-key": (CONFIG, json.dumps([{**WORLD, "color": "red"}]), "jobs",
                        "row 0: unknown job keys: ['color']"),
    "params-not-a-mapping": (CONFIG, json.dumps([{**WORLD, "params": [2]}]), "jobs",
                             "row 0: params must be dict"),
    "jobs-not-json": (CONFIG, "[{nope", "jobs", "is not valid JSON"),
    "jobs-missing": (CONFIG, None, "jobs", "cannot read jobs"),
    "jobs-not-utf8": (CONFIG, "\xff[", "jobs", "cannot read jobs"),
    "config-missing": (None, "[]", "config", "cannot read config"),
    "config-not-utf8": ("\xff{", "[]", "config", "cannot read config"),
    "unknown-config-key": (json.dumps({"tenants": [{"name": "a"}], "bogus": 1}), "[]",
                           "config", "unknown config keys"),
    "workers-not-an-int": (json.dumps({"tenants": [{"name": "a"}], "workers": "two"}), "[]",
                           "config", "workers must be int, got 'two'"),
    "workers-a-bool": (json.dumps({"tenants": [{"name": "a"}], "workers": True}), "[]",
                       "config", "workers must be int, got True"),
    "cache-dir-not-a-string": (json.dumps({"tenants": [{"name": "a"}], "cache_dir": 3}), "[]",
                               "config", "cache_dir must be str or null, got 3"),
    "memory-cache-not-a-bool": (
        json.dumps({"tenants": [{"name": "a"}], "memory_cache": "false"}), "[]",
        "config", "memory_cache must be bool, got 'false'"),
    "tenants-not-a-list": (json.dumps({"tenants": 5}), "[]", "config",
                           "tenants must be list, got 5"),
    "tenant-name-not-a-string": (json.dumps({"tenants": [{"name": 3}]}), "[]", "config",
                                 "tenant name must be str, got 3"),
    "tenant-weight-not-a-number": (
        json.dumps({"tenants": [{"name": "a", "weight": "heavy"}]}), "[]",
        "config", "tenant weight must be int or float, got 'heavy'"),
    "tenant-max-active-not-an-int": (
        json.dumps({"tenants": [{"name": "a", "max_active": 1.5}]}), "[]",
        "config", "tenant max_active must be int, got 1.5"),
    "tenant-max-queued-not-an-int": (
        json.dumps({"tenants": [{"name": "a", "max_queued": "8"}]}), "[]",
        "config", "tenant max_queued must be int, got '8'"),
}


class TestServeCli:
    def test_run_examples_write_metrics_and_trace(self, tmp_path, capsys):
        prom = tmp_path / "serve-slo.prom"
        mjson = tmp_path / "serve-metrics.json"
        trace = tmp_path / "serve-trace.json"
        rc = serve_main([
            "run", "--config", str(EXAMPLES / "config.json"),
            "--jobs", str(EXAMPLES / "jobs.json"), "--metrics-prom", str(prom),
            "--metrics-json", str(mjson), "--trace-out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = json.loads((EXAMPLES / "jobs.json").read_text())
        assert out.count(": done key=") == len(rows)
        assert "serve SLO summary" in out
        assert "serve_queue_latency_seconds" in prom.read_text()
        done = json.loads(mjson.read_text())["serve_jobs_total"]["samples"]
        assert sum(s["value"] for s in done if s["labels"]["outcome"] == "completed") == len(rows)
        records = json.loads(trace.read_text())
        events = records["traceEvents"] if isinstance(records, dict) else records
        assert any(e.get("name", "").startswith("serve:") for e in events)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_files_exit_2_with_one_line(self, case, tmp_path, capsys):
        config_text, jobs_text, named, says = MALFORMED[case]
        paths = {"config": tmp_path / "config.json", "jobs": tmp_path / "jobs.json"}
        for name, text in (("config", config_text), ("jobs", jobs_text)):
            if text is not None:
                paths[name].write_text(text, encoding="latin-1")
        rc = serve_main(["run", "--config", str(paths["config"]), "--jobs", str(paths["jobs"])])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        line, = captured.err.splitlines()
        assert says in line and str(paths[named]) in line

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

    def test_submit_param_without_equals_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            serve_main(["submit", "--substrate", "simmpi", "--workload", "world",
                        "--param", "nranks"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --param: expected key=value, got 'nranks'" in captured.err
        assert captured.err.startswith("usage: ")

    def test_submit_unknown_workload_exits_nonzero(self, capsys):
        rc = serve_main(["submit", "--substrate", "easypap", "--workload", "nope"])
        assert rc == 1
        assert "invalid-spec" in capsys.readouterr().err

"""Tests for the command-line entry points."""

import pytest

from repro.cli import carbon_main, sandpile_main, stripes_main


class TestSandpileCli:
    def test_default_run(self, capsys):
        rc = sandpile_main(["--size", "32", "--grains", "500", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stable after" in out

    def test_lazy_reports_savings(self, capsys):
        rc = sandpile_main(["--size", "64", "--config", "sparse", "--variant", "lazy", "--quiet"])
        assert rc == 0
        assert "lazy savings" in capsys.readouterr().out

    def test_async_kernel(self, capsys):
        rc = sandpile_main(["--size", "32", "--kernel", "asandpile", "--variant", "tiled",
                            "--grains", "500", "--quiet"])
        assert rc == 0

    def test_unknown_variant_exits_2(self, capsys):
        rc = sandpile_main(["--variant", "quantum"])
        assert rc == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_ppm_output(self, tmp_path, capsys):
        ppm = tmp_path / "out.ppm"
        rc = sandpile_main(["--size", "16", "--grains", "100", "--quiet", "--ppm", str(ppm)])
        assert rc == 0
        assert ppm.read_bytes().startswith(b"P6\n")

    def test_ascii_render_shown_by_default(self, capsys):
        sandpile_main(["--size", "16", "--grains", "64"])
        out = capsys.readouterr().out
        assert "\n" in out.strip()


class TestStripesCli:
    def test_default_run(self, capsys):
        rc = stripes_main(["--first-year", "2000", "--last-year", "2010"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reference mean" in out
        assert "all 11 years complete" in out

    def test_missing_winter_flagged(self, capsys):
        rc = stripes_main(["--first-year", "2010", "--last-year", "2020",
                           "--missing-winter", "2020"])
        assert rc == 0
        assert "2020" in capsys.readouterr().out

    def test_cluster_flag(self, capsys):
        rc = stripes_main(["--first-year", "2000", "--last-year", "2003", "--cluster"])
        assert rc == 0

    def test_ppm_output(self, tmp_path, capsys):
        ppm = tmp_path / "stripes.ppm"
        rc = stripes_main(["--first-year", "2000", "--last-year", "2005", "--ppm", str(ppm)])
        assert rc == 0
        assert ppm.exists()


@pytest.mark.slow
class TestCarbonCli:
    def test_tab1(self, capsys):
        rc = carbon_main(["--tab", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q1:" in out
        assert "heuristic" in out

    def test_tab2(self, capsys):
        rc = carbon_main(["--tab", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all-local" in out and "all-cloud" in out


@pytest.mark.slow
class TestCarbonAnswerKey:
    def test_answer_key_covers_both_tabs(self, capsys):
        rc = carbon_main(["--answer-key"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ANSWER KEY" in out
        assert "TAB 1" in out and "TAB 2" in out
        assert "Reference optimum" in out
        assert "Q3-5 reference optimum" in out


class TestChaosCli:
    def test_list_prints_matrix_without_running(self, capsys):
        from repro.cli import chaos_main

        rc = chaos_main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "easypap/kill-resume" in out
        assert "20 scenario(s)" in out

    def test_list_respects_filters(self, capsys):
        from repro.cli import chaos_main

        rc = chaos_main(["list", "--substrate", "simmpi", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simmpi/inject-raise@seed=7" in out
        assert "easypap" not in out

    def test_empty_filter_errors_out(self):
        from repro.cli import chaos_main
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            chaos_main(["run", "--substrate", "wrench", "--kind", "deadline"])

    def test_run_lite_campaign_with_exports(self, tmp_path, capsys):
        import json

        from repro.cli import chaos_main

        mj = tmp_path / "metrics.json"
        mp = tmp_path / "metrics.prom"
        tr = tmp_path / "trace.jsonl"
        rc = chaos_main(
            [
                "run",
                "--substrate", "simmpi",
                "--kind", "kill-resume",
                "--metrics-json", str(mj),
                "--metrics-prom", str(mp),
                "--trace-out", str(tr),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 passed, 0 violated, 0 skipped, 0 errored -> OK" in out
        payload = json.loads(mj.read_text())
        assert any("chaos_scenarios_total" in str(k) for k in payload)
        assert "chaos_scenarios_total" in mp.read_text()
        assert tr.exists()


class TestSymbolicCli:
    def test_table_output(self, capsys):
        from repro.cli import symbolic_main

        assert symbolic_main([]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "verdict" in out  # table header
        assert "heat_tile" in out and "inferred" in out
        assert "racy-by-design" in out
        assert "declaration sync_tile: exact [ok]" in out
        assert "over-declared" in out  # the fused k-family warns

    def test_json_output_is_parseable(self, capsys):
        import json

        from repro.cli import symbolic_main

        assert symbolic_main(["--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        kernels = {k["kernel"]: k for k in report["kernels"]}
        assert kernels["life_tile"]["source"] == "inferred"
        assert kernels["async_tile_relax"]["verdict"] == "racy-by-design"
        assert all(k["verdict"] != "refused-with-reason" for k in kernels.values())

    def test_out_file_always_json(self, tmp_path, capsys):
        import json

        from repro.cli import symbolic_main

        out = tmp_path / "verdicts.json"
        assert symbolic_main(["--out", str(out)]) == 0  # table to stdout
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert {c["status"] for c in report["declarations"]} == {"exact", "over-declared"}

    def test_check_main_dispatches_subcommand(self, capsys):
        from repro.cli import check_main

        assert check_main(["symbolic", "--format", "json"]) == 0
        assert '"kernels"' in capsys.readouterr().out

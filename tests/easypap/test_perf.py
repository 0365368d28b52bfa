"""Tests for the performance-campaign tooling."""

import multiprocessing

import pytest

from repro.common.errors import ConfigurationError
from repro.common.job import Job, JobProgress
from repro.easypap import executor
from repro.easypap.executor import ProcessBackend
from repro.easypap.perf import PerfCampaign, speedup_series


class FakeJob(Job):
    """Runs for a fixed number of iterations; exposes a metric."""

    def __init__(self, iterations: int, metric: float = 0.5) -> None:
        self.remaining = iterations
        self.steps = 0
        self.metric = metric

    def step(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.steps += 1
        return True

    def result(self):
        return self.steps

    def progress(self) -> JobProgress:
        return JobProgress(steps_done=self.steps, done=self.remaining <= 0)


class TestPerfCampaign:
    def test_full_grid_executed(self):
        campaign = PerfCampaign(
            factory=lambda n, tile: FakeJob(n * tile),
            grid={"n": [1, 2], "tile": [3, 4]},
        )
        points = campaign.run()
        assert len(points) == 4
        assert {p.iterations for p in points} == {3, 4, 6, 8}

    def test_params_recorded(self):
        campaign = PerfCampaign(factory=lambda n: FakeJob(n), grid={"n": [5]})
        (p,) = campaign.run()
        assert p.param("n") == 5
        with pytest.raises(KeyError):
            p.param("zzz")

    def test_metrics_evaluated_on_stepper(self):
        campaign = PerfCampaign(
            factory=lambda n: FakeJob(n, metric=n * 10.0),
            grid={"n": [1, 2]},
            metrics={"metric": lambda s: s.metric},
        )
        points = campaign.run()
        assert [p.extra("metric") for p in points] == [10.0, 20.0]

    def test_series_extraction(self):
        campaign = PerfCampaign(
            factory=lambda n, mode: FakeJob(n if mode == "a" else 2 * n),
            grid={"n": [1, 2, 3], "mode": ["a", "b"]},
        )
        campaign.run()
        series = campaign.series("n", y="iterations", mode="b")
        assert series == [(1, 2.0), (2, 4.0), (3, 6.0)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            PerfCampaign(factory=lambda: FakeJob(1), grid={}).run()

    def test_nonterminating_guarded(self):
        class Forever(FakeJob):
            def step(self):
                return True

        campaign = PerfCampaign(factory=lambda n: Forever(1), grid={"n": [1]}, max_iterations=10)
        with pytest.raises(ConfigurationError):
            campaign.run()

    def test_table_render(self):
        campaign = PerfCampaign(factory=lambda n: FakeJob(n), grid={"n": [1]})
        campaign.run()
        out = campaign.table("demo")
        assert "demo" in out and "iterations" in out

    def test_table_empty(self):
        campaign = PerfCampaign(factory=lambda n: FakeJob(n), grid={"n": [1]})
        assert campaign.table() == "<no points>"

    def test_integration_with_real_stepper(self):
        from repro.easypap.job import SandpileJob
        from repro.sandpile.model import center_pile

        campaign = PerfCampaign(
            factory=lambda tile_size: SandpileJob(
                center_pile(16, 16, 100), "sandpile", "tiled", tile_size=tile_size
            ),
            grid={"tile_size": [4, 8]},
            metrics={"computed": lambda s: s.stepper.tiles_computed},
        )
        points = campaign.run()
        assert len(points) == 2
        assert all(p.iterations > 0 for p in points)
        assert points[0].extra("computed") > points[1].extra("computed")

    @pytest.mark.skipif(not ProcessBackend.available(), reason="fork/shared_memory unavailable")
    def test_process_jobs_closed_after_run(self):
        from repro.easypap.job import SandpileJob
        from repro.sandpile.model import center_pile

        campaign = PerfCampaign(
            factory=lambda nworkers: SandpileJob(
                center_pile(16, 16, 200), "sandpile", "pfrontier", tile_size=8, nworkers=nworkers
            ),
            grid={"nworkers": [1, 2]},
        )
        assert len(campaign.run()) == 2
        # each job's close() returned its lease: every worker left is idle
        # in the pool, and shutting the pool down leaves no child behind
        assert executor.shutdown_idle_pool() == 1 + 2
        assert multiprocessing.active_children() == []


class TestSpeedupSeries:
    def test_basic(self):
        s = speedup_series([(1, 10.0), (2, 5.0), (4, 2.5)])
        assert s == [(1, 1.0), (2, 2.0), (4, 4.0)]

    def test_empty(self):
        assert speedup_series([]) == []

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            speedup_series([(1, 0.0)])

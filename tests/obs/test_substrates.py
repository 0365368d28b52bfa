"""Per-substrate acceptance tests: one Perfetto-loadable trace from each.

Every substrate run is validated through the same structural checker
(``chrome_checks``), so "loadable at ui.perfetto.dev" is one shared
definition: named processes/threads, non-negative monotonic spans per
lane, flow arrows that land on real spans.
"""

import pytest

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.executor import ProcessBackend, TaskBatch, TileTask, add_tile_span
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import TileGrid
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.engine import run_job, run_job_parallel
from repro.mapreduce.job import MapReduceJob
from repro.obs import Tracer, summarize, to_chrome_trace
from repro.obs.adapters.easypap import degradation_to_instants
from repro.obs.adapters.mapreduce import cluster_report_to_tracer
from repro.obs.adapters.simmpi import stats_to_registry, world_report_summary
from repro.obs.adapters.wrench import simulation_result_to_tracer
from repro.simmpi.ghost import HaloExchanger, split_rows
from repro.simmpi.runner import run_ranks

from tests.obs.chrome_checks import assert_valid_chrome_doc

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


# -- easypap ----------------------------------------------------------------------


def make_easypap_trace() -> Tracer:
    tracer = Tracer()
    for iteration, task, worker, start, end, kind, tx in [
        (1, 0, 0, 0.0, 1.0, "compute", 0),
        (1, 1, 1, 0.0, 0.5, "gpu", 1),
        (2, 0, 0, 1.0, 1.25, "compute", 0),
    ]:
        add_tile_span(
            tracer, iteration=iteration, task=task, worker=worker, start=start, end=end,
            kind=kind, tile_ty=0, tile_tx=tx,
        )
    return tracer


class TestEasypapAdapter:
    def test_spans_carry_tile_coordinates(self):
        tracer = make_easypap_trace()
        s = tracer.spans()[1]
        assert s.cat == "gpu" and s.tid == 1
        assert s.args["tile_ty"] == 0 and s.args["tile_tx"] == 1

    def test_degradation_events_become_instants(self):
        log = DegradationLog()
        log.record("process-backend", "pool-rebuild", "worker died", attempt=2)
        tracer = Tracer()
        assert degradation_to_instants(tracer, log) == 1
        (i,) = tracer.instants()
        assert i.name == "process-backend:pool-rebuild"
        assert i.cat == "degradation" and i.args["attempt"] == 2
        assert i.ts >= 0.0

    @needs_processes
    def test_process_backend_tiled_run_exports_to_perfetto(self):
        """Acceptance: a real multiprocess tiled run, Perfetto-loadable."""
        n = 8
        g = Grid2D(n, n)
        g.interior[:] = 6
        scratch = g.data.copy()
        tiles = list(TileGrid(n, n, 4))
        spec = [TileTask("sync_tile", 0, 1, t) for t in tiles]
        tracer = Tracer()
        with ProcessBackend(2, "dynamic", trace=tracer) as be:
            be.bind_planes(g.data, scratch)
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec),
                   iteration=1)
        assert len(tracer) == len(tiles)

        doc = to_chrome_trace(tracer)
        assert_valid_chrome_doc(doc)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(tiles)
        # per-tile data survived into the exported args, lossless
        assert {(e["args"]["tile_ty"], e["args"]["tile_tx"]) for e in spans} == {
            (t.ty, t.tx) for t in tiles
        }


class TestTracedDriver:
    def test_one_iteration_span_per_stepper_call(self):
        from repro.sandpile.model import center_pile
        from repro.sandpile.simulate import make_stepper, run_to_fixpoint

        grid = center_pile(16, 16, 300)
        stepper = make_stepper(grid.copy(), "sandpile", "vec")
        calls = 1
        while stepper():
            calls += 1
        tracer = Tracer()
        run_to_fixpoint(grid, "sandpile", "vec", trace=tracer)
        spans = tracer.spans()
        assert [s.name for s in spans] == [f"iteration {i}" for i in range(calls)]
        for i, s in enumerate(spans):
            assert (s.cat, s.pid, s.tid) == ("iteration", "easypap-driver", "driver")
            assert s.args == {"iteration": i, "kernel": "sandpile", "variant": "vec"}


class TestEasypapRunTimeline:
    """A whole traced run is one timeline: batches never overlap on a lane."""

    @pytest.mark.parametrize(
        "kernel,variant,opts",
        [
            ("sandpile", "omp", {"lazy": True}),  # simulated backend
            ("sandpile", "omp", {"backend": "threads"}),
            ("sandpile", "lazy", {}),
            ("asandpile", "omp", {"lazy": True}),
            # one segment as a parallel region of worker processes
            ("sandpile", "pfrontier", {"backend": "process", "k": 1}),
            ("sandpile", "pfrontier", {"backend": "process", "k": 4}),
        ],
    )
    def test_whole_run_exports_to_perfetto(self, kernel, variant, opts):
        from repro.sandpile.model import center_pile
        from repro.sandpile.simulate import run_to_fixpoint

        tracer = Tracer()
        run_to_fixpoint(
            center_pile(48, 48, 4_000), kernel, variant,
            tile_size=8, nworkers=4, trace=tracer, **opts,
        )
        assert any(s.pid == "easypap" for s in tracer.spans())
        assert_valid_chrome_doc(to_chrome_trace(tracer))


# -- mapreduce --------------------------------------------------------------------


def wc_mapper(_k, line):
    for w in str(line).split():
        yield w, 1


def wc_reducer(w, counts):
    yield w, sum(counts)


JOB = MapReduceJob(mapper=wc_mapper, reducer=wc_reducer, num_reducers=2)
SPLITS = [
    [(0, "alpha beta gamma"), (1, "beta gamma")],
    [(2, "gamma delta")],
    [(3, "alpha alpha beta")],
]


class TestMapreduceSubstrate:
    def test_parallel_run_with_injected_fault_exports_to_perfetto(self):
        """Acceptance: run_job_parallel + one injected fault, Perfetto-loadable."""
        tracer = Tracer()
        inj = FaultInjector(raise_on_tasks={1}, max_fires=1)
        result = run_job_parallel(
            JOB, SPLITS, max_workers=2, retry=FAST_RETRY,
            fault_injector=inj, tracer=tracer,
        )
        # tracing never changes the answer
        assert result.pairs == run_job(JOB, SPLITS).pairs
        assert inj.fires == 1

        names = [s.name for s in tracer.spans()]
        # one span per winning map/reduce task, plus the failed attempt
        for i in range(len(SPLITS)):
            assert f"map:{i}" in names
        for p in range(JOB.num_reducers):
            assert f"reduce:{len(SPLITS) + p}" in names
        assert "map:1#a1" in names and "shuffle" in names
        (failed,) = [s for s in tracer.spans() if s.cat == "failed"]
        assert failed.args["attempt"] == 1
        (fault,) = tracer.instants()
        assert fault.cat == "fault"

        # data-path arrows: every split spills into the shuffle, every
        # partition flows out of it
        flows = tracer.flows()
        assert len(flows) == len(SPLITS) + JOB.num_reducers
        assert_valid_chrome_doc(to_chrome_trace(tracer))

    def test_tracing_does_not_change_counters(self):
        traced = run_job_parallel(JOB, SPLITS, tracer=Tracer())
        plain = run_job_parallel(JOB, SPLITS)
        assert traced.counters.as_dict() == plain.counters.as_dict()

    def test_cluster_report_converts_with_faults_and_arrows(self):
        cfg = ClusterConfig(failure_prob=0.3, seed=3)
        result, report = SimulatedCluster(cfg).run(JOB, SPLITS)
        assert report.failures > 0  # seed chosen to actually exercise faults
        tracer = cluster_report_to_tracer(report, cfg)

        assert len(tracer.spans()) == len(report.attempts) + 1  # + shuffle
        assert len(tracer.instants()) == report.failures
        # arrows: one spill per map task, one partition per reduce task
        assert len(tracer.flows()) == len(SPLITS) + JOB.num_reducers
        shuffle = next(s for s in tracer.spans() if s.name == "shuffle")
        assert shuffle.start == pytest.approx(report.map_finish)
        assert shuffle.end == pytest.approx(report.shuffle_finish)
        assert_valid_chrome_doc(to_chrome_trace(tracer))

    def test_cluster_speculative_attempts_categorised(self):
        cfg = ClusterConfig(straggler_prob=0.9, speculate=True, seed=1)
        _, report = SimulatedCluster(cfg).run(JOB, SPLITS)
        assert report.speculative > 0
        tracer = cluster_report_to_tracer(report, cfg)
        cats = {s.cat for s in tracer.spans()}
        assert "speculative" in cats


# -- simmpi -----------------------------------------------------------------------


def ghost_rank_program(comm, nrows: int, ncols: int, depth: int, steps: int):
    import numpy as np

    start, stop = split_rows(nrows, comm.size)[comm.rank]
    owned = stop - start
    local = np.full((owned + 2 * depth, ncols), float(comm.rank))
    ex = HaloExchanger(comm, depth, owned_rows=owned)
    for _ in range(steps):
        comm.compute(1e-3 * owned)  # pretend stencil work
        ex.exchange(local)
    return comm.clock


class TestSimmpiSubstrate:
    def test_ghost_exchange_virtual_time_trace(self):
        """Acceptance: ghost exchange on virtual clocks with send->recv arrows."""
        nranks, steps = 3, 2
        tracer = Tracer(process="simmpi")
        report = run_ranks(
            nranks, ghost_rank_program, 12, 4, 1, steps, tracer=tracer
        )

        spans = tracer.spans()
        assert {s.pid for s in spans} == {"simmpi"}
        assert {s.tid for s in spans} == set(range(nranks))
        assert {"compute", "comm"} <= {s.cat for s in spans}

        # interior rank sendrecvs both ways, edge ranks once: 4 messages
        # per exchange round, each with exactly one send->recv arrow
        flows = tracer.flows()
        assert len(flows) == 4 * steps == report.total_messages
        for f in flows:
            assert f.src.pid == f.dst.pid == "simmpi"
            assert f.src.tid != f.dst.tid
            assert f.src.ts <= f.dst.ts  # messages never arrive before sending
        assert len({f.flow_id for f in flows}) == len(flows)

        # the trace's view of time agrees with the runner's report
        summary = world_report_summary(report, tracer)
        assert summary.makespan == pytest.approx(report.makespan)
        assert_valid_chrome_doc(to_chrome_trace(tracer))

    def test_report_only_summary_without_tracer(self):
        report = run_ranks(2, ghost_rank_program, 8, 4, 1, 1)
        summary = world_report_summary(report)
        assert summary.span_count == 2
        assert summary.makespan == pytest.approx(report.makespan)

    def test_stats_to_registry(self):
        report = run_ranks(2, ghost_rank_program, 8, 4, 1, 1)
        reg = stats_to_registry(report)
        sent = reg.get("simmpi_messages_sent_total")
        total = sum(
            sent.value(rank=str(r)) for r in range(2)
        )
        assert total == report.total_messages
        clock = reg.get("simmpi_virtual_clock_seconds")
        assert clock.value(rank="0") == pytest.approx(report.clocks[0])


# -- wrench -----------------------------------------------------------------------


class TestWrenchSubstrate:
    @pytest.fixture(scope="class")
    def montage_run(self):
        from repro.wrench.platform import make_platform
        from repro.wrench.simulation import simulate
        from repro.wrench.workflow import montage_workflow

        wf = montage_workflow()
        assert len(wf.graph()) == 738
        result = simulate(wf, make_platform(cluster_nodes=64))
        return wf, result

    def test_montage_738_exports_to_perfetto(self, montage_run):
        """Acceptance: the Montage-738 DAG trace, Perfetto-loadable."""
        wf, result = montage_run
        tracer = simulation_result_to_tracer(result, wf)

        compute_spans = [s for s in tracer.spans() if s.cat != "transfer"]
        assert len(compute_spans) == len(result.executions) == 738
        # DAG arrows connect every executed edge of the workflow
        assert len(tracer.flows()) == wf.graph().number_of_edges()
        # lanes mirror the platform topology: site pid, resource tid
        assert {s.pid for s in compute_spans} == {ex.site for ex in result.executions}
        assert_valid_chrome_doc(to_chrome_trace(tracer))

    def test_trace_time_axis_matches_makespan(self, montage_run):
        wf, result = montage_run
        summary = summarize(simulation_result_to_tracer(result, wf))
        assert summary.t1 == pytest.approx(result.makespan)

    def test_energy_counter_tracks_per_site(self, montage_run):
        wf, result = montage_run
        tracer = simulation_result_to_tracer(result)
        counters = tracer.counters()
        for site, joules in result.energy_joules.items():
            samples = [c for c in counters if c.pid == site]
            assert [c.values[site] for c in samples] == [0.0, joules]
            assert samples[-1].ts == pytest.approx(result.makespan)

    def test_failed_attempts_marked(self):
        from repro.wrench.platform import make_platform
        from repro.wrench.simulation import FaultModel, simulate
        from repro.wrench.workflow import montage_workflow

        wf = montage_workflow(n_projections=8, n_difffits=8)
        result = simulate(
            wf,
            make_platform(cluster_nodes=4),
            fault_model=FaultModel(failure_prob=0.3, seed=2),
        )
        failures = [ex for ex in result.executions if ex.failed]
        assert failures  # seed chosen to actually exercise faults
        tracer = simulation_result_to_tracer(result, wf)
        assert len([s for s in tracer.spans() if s.cat == "failed"]) == len(failures)
        assert len(tracer.instants()) == len(failures)
        assert_valid_chrome_doc(to_chrome_trace(tracer))


class TestFrontierCounters:
    """The pfrontier window log projects onto counter tracks."""

    def test_window_log_becomes_counter_samples(self):
        from repro.obs.adapters import frontier_to_counters

        tracer = Tracer()
        log = [
            (0, (0, 20, 0, 20), 9),
            (1, (2, 18, 3, 17), 4),
            (2, (7, 11, 8, 12), 1),
        ]
        n = frontier_to_counters(tracer, log)
        assert n == 3
        samples = tracer.counters()
        assert len(samples) == 3
        assert [s.ts for s in samples] == [0.0, 1.0, 2.0]
        assert samples[0].values == {"window_cells": 400, "active_tiles": 9}
        assert samples[1].values == {"window_cells": 224, "active_tiles": 4}
        assert samples[2].values == {"window_cells": 16, "active_tiles": 1}
        assert all(s.pid == "easypap" and s.name == "frontier" for s in samples)

    def test_live_stepper_log_round_trips(self):
        from repro.obs.adapters import frontier_to_counters
        from repro.sandpile.model import center_pile
        from repro.sandpile.pfrontier import ParallelFrontierStepper

        g = center_pile(24, 24, 200)
        with ParallelFrontierStepper(g, tile_size=8) as stepper:
            while stepper():
                pass
        tracer = Tracer()
        n = frontier_to_counters(tracer, stepper.window_log, name="fr")
        assert n == len(stepper.window_log) > 0
        # the shrinking frontier decays to its final window
        cells = [s.values["window_cells"] for s in tracer.counters()]
        assert max(cells) <= 24 * 24
        assert sum(cells) == stepper.window_cells

"""Command-line entry points.

Four small CLIs, mirroring how a student would poke at each system:

* ``repro-sandpile`` — stabilise a configuration with a chosen kernel
  variant, print statistics and an ASCII rendering, optionally save a PPM;
* ``repro-stripes``  — run the four-phase warming-stripes workflow, print
  the data-quality report and save the stripes image;
* ``repro-carbon``   — answer the Tab-1/Tab-2 questions and print the
  tables;
* ``repro-check``    — run the correctness tooling: the AST project lint,
  symbolic footprint verification/certification over the kernel registry
  (``repro-check symbolic`` runs that gate alone, ``--format json`` for
  the CI artifact), the static race certification of every registered
  variant, and the halo depth/message-pattern analysis.  Exits non-zero
  on any unexpected verdict, so CI can gate on it;
* ``repro-trace``    — off-line trace exploration: export a recorded trace
  (an ``repro.obs`` session or an easypap task-record file) to Chrome
  trace-event JSON for https://ui.perfetto.dev, print an ASCII timeline or
  numeric summary, or diff two runs side by side;
* ``repro-chaos``    — run a chaos campaign: fault scenarios × substrates
  × seeds, each asserting recovery invariants (bit-identical results,
  bounded retries, honest accounting).  Exits non-zero on any violation;
* ``repro-serve``    — the multi-tenant job service: ``run`` a batch of
  spec submissions from a config + jobs file, or ``submit`` one spec (with
  an optional durable result cache, so resubmitting is a cache hit even
  across processes).  ``--metrics-prom`` / ``--trace-out`` export the SLO
  metrics and the Perfetto trace.

``python -m repro.cli <command> ...`` dispatches to the same entry points.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = [
    "sandpile_main",
    "stripes_main",
    "carbon_main",
    "check_main",
    "symbolic_main",
    "trace_main",
    "chaos_main",
    "serve_main",
    "main",
]


def sandpile_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-sandpile``."""
    from repro.common.colors import ascii_render, sandpile_to_rgb, write_ppm
    from repro.easypap.kernel import REGISTRY
    from repro.sandpile import center_pile, run_to_fixpoint, sparse_random, uniform

    p = argparse.ArgumentParser(prog="repro-sandpile", description="Abelian sandpile simulator")
    p.add_argument("--size", type=int, default=128, help="grid side length (default 128)")
    p.add_argument(
        "--config",
        choices=["center", "uniform", "sparse"],
        default="center",
        help="initial configuration (Fig. 1a center pile, Fig. 1b uniform-4, or sparse)",
    )
    p.add_argument("--grains", type=int, default=25_000, help="grains for the center pile")
    p.add_argument("--kernel", default="sandpile", choices=["sandpile", "asandpile"])
    p.add_argument(
        "--variant",
        default="vec",
        help="kernel variant: seq, vec, frontier (bounding-box stepping over "
        "the active region), tiled, lazy, split, omp, pfrontier (default vec)",
    )
    p.add_argument("--tile-size", type=int, default=32)
    p.add_argument("--nworkers", type=int, default=4)
    p.add_argument("--policy", default="dynamic", help="omp: chunk scheduling policy")
    p.add_argument(
        "--backend",
        choices=["sequential", "simulated", "threads", "process"],
        help="executor for omp: virtual workers (simulated, its default), a real "
        "thread pool, or real worker processes over shared memory (process); "
        "pfrontier runs on process (its default) or sequential, in process",
    )
    p.add_argument(
        "--chunk", type=int, default=1, help="omp: chunk size for cyclic/dynamic/guided"
    )
    p.add_argument(
        "--fused-k",
        type=int,
        default=1,
        metavar="K",
        help="pfrontier: temporal-blocking depth — fuse K grid iterations into "
        "one step, one band per worker between barriers (default 1)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="process backend (omp --backend process, pfrontier): attempts per "
        "tile batch or parallel region, a retried region resuming from its last "
        "step, before giving up or falling back to the parent (default 3)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="process backend: wall-clock budget per batch attempt, or per "
        "step of a parallel region (default: unbounded)",
    )
    p.add_argument(
        "--no-fallback",
        action="store_true",
        help="process backend: fail hard when a batch or region runs out of "
        "retries instead of finishing it in the parent (a batch on threads, "
        "a region in process)",
    )
    p.add_argument("--ppm", metavar="PATH", help="write the final state as a PPM image")
    p.add_argument("--quiet", action="store_true")
    args = p.parse_args(argv)

    if args.config == "center":
        grid = center_pile(args.size, args.size, args.grains)
    elif args.config == "uniform":
        grid = uniform(args.size, args.size, 4)
    else:
        grid = sparse_random(args.size, args.size)

    variants = REGISTRY.variants(args.kernel)
    if args.variant not in variants:
        print(f"unknown variant {args.variant!r}; available: {', '.join(variants)}", file=sys.stderr)
        return 2

    opts = {}
    degradation = None
    if args.variant in ("tiled", "lazy", "omp", "split", "pfrontier"):
        opts["tile_size"] = args.tile_size
    if args.variant in ("omp", "pfrontier"):
        opts["nworkers"] = args.nworkers
        if args.backend is not None:
            opts["backend"] = args.backend
    if args.variant == "pfrontier":
        opts["k"] = args.fused_k
    if args.variant == "omp":
        opts["policy"] = args.policy
        opts["chunk"] = args.chunk
    # the resilience knobs reach the process backend: omp's with --backend
    # process, pfrontier's unless --backend says otherwise
    if opts.get("backend", "process" if args.variant == "pfrontier" else None) == "process":
        from repro.common.resilience import DegradationLog, RetryPolicy

        degradation = DegradationLog()
        opts["retry"] = RetryPolicy(max_attempts=args.max_retries)
        opts["task_timeout"] = args.task_timeout
        opts["allow_fallback"] = not args.no_fallback
        opts["degradation"] = degradation
    result = run_to_fixpoint(grid, args.kernel, args.variant, **opts)
    print(
        f"{args.kernel}/{args.variant}: stable after {result.iterations} iterations, "
        f"{grid.total_grains()} grains on grid, {grid.sink_absorbed} absorbed by the sink"
    )
    if result.tiles_computed:
        print(
            f"tiles computed {result.tiles_computed}, skipped {result.tiles_skipped} "
            f"({100 * result.skip_fraction:.1f}% lazy savings)"
        )
    if degradation:
        print(f"degradations: {degradation.summary()}", file=sys.stderr)
    if not args.quiet:
        print(ascii_render(grid.interior))
    if args.ppm:
        write_ppm(args.ppm, sandpile_to_rgb(grid.interior))
        print(f"wrote {args.ppm}")
    return 0


def stripes_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-stripes``."""
    from repro.climate import run_warming_stripes_workflow

    p = argparse.ArgumentParser(prog="repro-stripes", description="Warming stripes via MapReduce")
    p.add_argument("--first-year", type=int, default=1881)
    p.add_argument("--last-year", type=int, default=2019)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", dest="input_format", default="month-files",
                   choices=["month-files", "station-files"])
    p.add_argument("--missing-winter", type=int, metavar="YEAR",
                   help="blank out Nov/Dec of YEAR (the 2020 validation lesson)")
    p.add_argument("--cluster", action="store_true", help="run on the simulated cluster")
    p.add_argument("--ppm", metavar="PATH", help="write the stripes image as PPM")
    args = p.parse_args(argv)

    wf = run_warming_stripes_workflow(
        first_year=args.first_year,
        last_year=args.last_year,
        seed=args.seed,
        input_format=args.input_format,
        with_missing_winter=args.missing_winter,
        on_cluster=args.cluster,
    )
    s = wf.stripes
    print(
        f"{len(wf.annual_means)} years, reference mean {s.reference_mean:.2f} degC, "
        f"colourbar [{s.vmin:.2f}, {s.vmax:.2f}], trend {s.trend_degrees():+.2f} degC"
    )
    print(f"data quality: {wf.quality.summary()}")
    print(s.ascii())
    if args.ppm:
        s.save_ppm(args.ppm)
        print(f"wrote {args.ppm}")
    return 0


def carbon_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-carbon``."""
    from repro.carbon import (
        DEFAULT_SCENARIO,
        baseline_summary,
        question1_baseline,
        question1_baselines,
        question2_first_two_levels,
        question3_comparison,
        tab1_table,
        tab2_table,
        treasure_hunt,
    )

    p = argparse.ArgumentParser(prog="repro-carbon", description="Carbon-aware workflow scheduling")
    p.add_argument("--tab", type=int, choices=[1, 2], default=1)
    p.add_argument("--hunt", action="store_true", help="tab 2: run the treasure-hunt sweep")
    p.add_argument("--answer-key", action="store_true",
                   help="print the full instructor answer sheet for both tabs")
    args = p.parse_args(argv)

    if args.answer_key:
        from repro.carbon import answer_sheet

        print(answer_sheet())
        return 0

    if args.tab == 1:
        print("Q1:", baseline_summary(question1_baseline()))
        print(tab1_table(question3_comparison(), bound=DEFAULT_SCENARIO.time_bound))
    else:
        print(tab2_table(list(question1_baselines().values())))
        print(tab2_table(list(question2_first_two_levels().values())))
        if args.hunt:
            results = treasure_hunt()
            print(tab2_table(results, top=10))
    return 0


def symbolic_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-check symbolic``.

    Runs the symbolic footprint pass over the full tile-kernel registry:
    every hand declaration is cross-checked against the inferred footprint
    (fails on under-declaration, warns on over-declaration) and every
    kernel gets a static verdict — race-free, racy-by-design, or
    refused-with-reason.  ``--format json`` emits the machine-readable
    report CI uploads as an artifact.
    """
    import repro.gallery  # noqa: F401 - fills the kernel registry
    import repro.sandpile.simulate  # noqa: F401 - fills the kernel registry
    from repro.analysis.symbolic import (
        certify_kernels,
        kernel_verdict_table,
        verdicts_to_json,
        verify_declarations,
    )

    p = argparse.ArgumentParser(
        prog="repro-check symbolic",
        description="Symbolic footprint inference: verify declarations, certify kernels",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", metavar="PATH", help="also write the report to a file")
    args = p.parse_args(argv)

    checks = verify_declarations()
    verdicts = certify_kernels()
    report = verdicts_to_json(verdicts, checks)

    if args.format == "json":
        text = json.dumps(report, indent=2)
    else:
        lines = [kernel_verdict_table(verdicts), ""]
        for c in checks:
            marker = "ok" if c.ok else "FAIL"
            lines.append(f"declaration {c.kernel}: {c.status} [{marker}] ({c.detail})")
        over = [c for c in checks if c.status == "over-declared"]
        for c in over:
            lines.append(
                f"warning: {c.kernel} is over-declared (sound, but conservative)"
            )
        text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) if args.format != "json" else text)
            fh.write("\n")
        print(f"wrote {args.out}")

    if not report["ok"]:
        bad = [v["kernel"] for v in report["kernels"] if not v["ok"]]
        bad += [c["kernel"] for c in report["declarations"] if not c["ok"]]
        print(
            f"symbolic: FAILED for {', '.join(sorted(set(bad)))}",
            file=sys.stderr,
        )
        return 1
    return 0


def check_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-check`` (also ``python -m repro.cli check``).

    ``repro-check symbolic ...`` dispatches to the symbolic-inference
    subcommand (:func:`symbolic_main`).  Otherwise runs five gates and
    fails on the first broken one:

    1. the AST project lint over ``src/repro``;
    2. symbolic footprint verification and kernel certification (the
       ``symbolic`` subcommand's checks, table format);
    3. static race certification of every registered kernel variant —
       each verdict must match the variant's registered expectation
       (``racy-by-design`` variants must be flagged, everything else must
       certify conflict-free);
    4. certification of the parallel frontier's region shares: for each
       step of a real ``pfrontier`` run, the row runs the region deals to
       ``--nworkers`` participants are statically checked and
       shadow-replayed (observed accesses must stay inside the declared
       footprints) — once at ``k=1`` and once at the fused
       temporal-blocking depth (``--fused-k``, halo verdict included).
       The participants' copy-forward writes are not race-certified
       (``test_segments_match_call_by_call_sequential`` checks them for
       bit-identity instead);
    5. halo-depth sufficiency and sendrecv pattern matching for the MPI
       ghost-cell variant.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "symbolic":
        return symbolic_main(argv[1:])

    from repro.analysis import (
        analyze_exchange_pattern,
        certify_all,
        certify_dynamic_frontier,
        check_halo_depth,
        run_lint,
        verdict_table,
    )

    p = argparse.ArgumentParser(prog="repro-check", description="Correctness tooling")
    p.add_argument("--height", type=int, default=12, help="certification grid height")
    p.add_argument("--width", type=int, default=12, help="certification grid width")
    p.add_argument("--tile-size", type=int, default=4)
    p.add_argument("--nworkers", type=int, default=4)
    p.add_argument(
        "--policy",
        default="dynamic",
        help="chunk-plan policy to certify the variants under (dynamic chunk=1 "
        "is the adversarial superset of all policies; default dynamic)",
    )
    p.add_argument("--chunk", type=int, default=1)
    p.add_argument(
        "--fused-k",
        type=int,
        default=3,
        help="temporal-blocking depth to certify the fused pfrontier schedule at",
    )
    p.add_argument("--max-ranks", type=int, default=8, help="halo pattern world sizes to check")
    p.add_argument("--skip-lint", action="store_true")
    p.add_argument("--skip-symbolic", action="store_true",
                   help="skip symbolic footprint verification/certification")
    p.add_argument("--skip-races", action="store_true")
    p.add_argument("--skip-dynamic", action="store_true",
                   help="skip the pfrontier region-share certification")
    p.add_argument("--skip-halo", action="store_true")
    args = p.parse_args(argv)

    failed = False

    if not args.skip_lint:
        issues = run_lint()
        if issues:
            print(f"lint: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue}")
            failed = True
        else:
            print("lint: clean")

    if not args.skip_symbolic:
        if symbolic_main([]) != 0:
            failed = True

    if not args.skip_races:
        verdicts = certify_all(
            height=args.height,
            width=args.width,
            tile_size=args.tile_size,
            nworkers=args.nworkers,
            policy=args.policy,
            chunk=args.chunk,
        )
        print(verdict_table(verdicts))
        bad = [v for v in verdicts if not v.ok]
        if bad:
            for v in bad:
                print(f"race check: {v.qualified_name} is {v.verdict}, expected {v.expected}")
                if v.report is not None and v.report.conflicts:
                    print(v.report.summary())
            failed = True
        else:
            print(f"race check: all {len(verdicts)} variants match their expectation")

    if not args.skip_dynamic:
        for k in (1, args.fused_k):
            cert = certify_dynamic_frontier(nworkers=args.nworkers, k=k)
            print(cert.summary())
            if not cert.ok:
                failed = True

    if not args.skip_halo:
        for depth in (1, 2, 4):
            verdict = check_halo_depth(depth, stencil_radius=1, iterations_between_exchanges=depth)
            if not verdict.ok:
                print(f"halo: {verdict}")
                failed = True
        for nranks in range(1, args.max_ranks + 1):
            report = analyze_exchange_pattern(nranks)
            if not report.ok:
                print(f"halo: {report.describe()}")
                failed = True
        if not failed:
            print(f"halo: depth model and 1..{args.max_ranks}-rank sendrecv patterns clean")

    return 1 if failed else 0


#: fields of a task-record row, the easypap trace files of earlier versions
_TASK_RECORD_FIELDS = (
    "iteration", "task", "worker", "start", "end", "kind", "tile_ty", "tile_tx",
)


def _load_any_trace(path: str):
    """Load *path* as a Tracer, auto-detecting the file flavour.

    ``repro.obs`` session files carry a ``type`` key on every row.  The
    easypap task-record files earlier versions wrote (one row per tile,
    no ``type``) become the tile spans the backends record today.
    """
    from repro.easypap.executor import TILE_PID, add_tile_span
    from repro.obs import Tracer

    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if rows and "type" in rows[0]:
        return Tracer.load_jsonl(path)
    tracer = Tracer(process=TILE_PID)
    for row in rows:
        add_tile_span(tracer, **{k: row[k] for k in _TASK_RECORD_FIELDS if k in row})
    return tracer


def trace_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-trace`` (also ``python -m repro.cli trace``).

    Subcommands:

    * ``export``  — Chrome trace-event JSON (``--out``, Perfetto-loadable)
      or an ASCII timeline (``--ascii``);
    * ``summary`` — makespan / busy%% / per-lane task counts, optionally
      for one easypap iteration (``--iteration``; pass ``--pid easypap``
      to keep only the tile spans of a traced ``run_to_fixpoint``);
    * ``diff``    — two traces of the same workload side by side (the
      Fig. 3 comparison, generalised).
    """
    from repro.obs import diff_summaries, summarize

    p = argparse.ArgumentParser(prog="repro-trace", description="Off-line trace exploration")
    sub = p.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser("export", help="convert a trace for Perfetto (or the terminal)")
    p_export.add_argument("input", help="trace file (obs session or easypap task records)")
    p_export.add_argument("--out", metavar="PATH", help="write Chrome trace JSON here")
    p_export.add_argument("--ascii", action="store_true", help="print an ASCII timeline")
    p_export.add_argument("--pid", help="restrict the ASCII view to one track group")
    p_export.add_argument("--width", type=int, default=72)

    p_summary = sub.add_parser("summary", help="numeric summary of one trace")
    p_summary.add_argument("input")
    p_summary.add_argument("--pid", help="restrict to one track group")
    p_summary.add_argument(
        "--iteration", type=int, metavar="N",
        help="easypap traces: summarise only iteration N (with --pid easypap: its tiles)",
    )

    p_diff = sub.add_parser("diff", help="compare two traces of the same workload")
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.add_argument("--pid", help="restrict both sides to one track group")
    p_diff.add_argument(
        "--iteration", type=int, metavar="N",
        help="easypap traces: compare only iteration N on both sides",
    )

    args = p.parse_args(argv)

    if args.command == "export":
        tracer = _load_any_trace(args.input)
        if args.ascii:
            from repro.obs import ascii_timeline

            print(ascii_timeline(tracer, width=args.width, pid=args.pid))
        if args.out:
            from repro.obs import save_chrome_trace

            save_chrome_trace(tracer, args.out)
            print(f"wrote {args.out} ({len(tracer.records)} records)")
        if not args.ascii and not args.out:
            print("nothing to do: pass --out PATH and/or --ascii", file=sys.stderr)
            return 2
        return 0

    if args.command == "summary":
        tracer = _load_any_trace(args.input)
        where = None
        title = args.input
        if args.iteration is not None:
            where = lambda s: s.args.get("iteration") == args.iteration  # noqa: E731
            title = f"{args.input} iteration {args.iteration}"
        print(summarize(tracer, pid=args.pid, where=where).render(title=title))
        return 0

    # diff
    where = None
    left_name, right_name = args.left, args.right
    if args.iteration is not None:
        where = lambda s: s.args.get("iteration") == args.iteration  # noqa: E731
        left_name = f"{args.left} iteration {args.iteration}"
        right_name = f"{args.right} iteration {args.iteration}"
    left = summarize(_load_any_trace(args.left), pid=args.pid, where=where)
    right = summarize(_load_any_trace(args.right), pid=args.pid, where=where)
    print(diff_summaries(left, right, left_name=left_name, right_name=right_name).render())
    return 0


def chaos_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-chaos`` (also ``python -m repro.cli chaos``).

    Subcommands:

    * ``run``  — execute a campaign (default: every meaningful
      substrate × fault-kind cell) and print the outcome table; exits 1
      on any violated invariant or errored scenario.  ``--metrics-json``
      / ``--metrics-prom`` export the campaign and supervisor counters.
    * ``list`` — print the scenarios a ``run`` with the same filters
      would execute, without running anything.
    """
    from repro.chaos import KINDS, SUBSTRATES, default_campaign, run_campaign

    p = argparse.ArgumentParser(prog="repro-chaos", description="Chaos campaigns")
    sub = p.add_subparsers(dest="command", required=True)

    def add_filters(sp):
        sp.add_argument(
            "--substrate", action="append", choices=sorted(SUBSTRATES),
            help="restrict to a substrate (repeatable; default: all four)",
        )
        sp.add_argument(
            "--kind", action="append", choices=sorted(KINDS),
            help="restrict to a fault kind (repeatable; default: all)",
        )
        sp.add_argument(
            "--seed", type=int, action="append",
            help="campaign seed (repeatable; default: the library seed)",
        )

    p_run = sub.add_parser("run", help="execute a campaign and assert its invariants")
    add_filters(p_run)
    p_run.add_argument("--metrics-json", metavar="PATH",
                       help="write the campaign metrics registry as JSON")
    p_run.add_argument("--metrics-prom", metavar="PATH",
                       help="write the metrics in Prometheus text format")
    p_run.add_argument("--trace-out", metavar="PATH",
                       help="save the supervisors' degradation trace (obs JSONL)")

    p_list = sub.add_parser("list", help="print the matching scenarios without running")
    add_filters(p_list)

    args = p.parse_args(argv)

    kwargs = {}
    if args.substrate:
        kwargs["substrates"] = tuple(args.substrate)
    if args.kind:
        kwargs["kinds"] = tuple(args.kind)
    if args.seed:
        kwargs["seeds"] = tuple(args.seed)
    scenarios = default_campaign(**kwargs)

    if args.command == "list":
        for sc in scenarios:
            extra = " (needs worker processes)" if sc.requires_processes else ""
            print(f"{sc.name}{extra}")
        print(f"{len(scenarios)} scenario(s)")
        return 0

    from repro.obs import Tracer
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    tracer = Tracer(process="chaos") if args.trace_out else None
    report = run_campaign(scenarios, metrics=metrics, tracer=tracer)
    print(report.render())
    _write_metrics(metrics, args.metrics_json, args.metrics_prom)
    if args.trace_out:
        tracer.save_jsonl(args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0 if report.ok else 1


def _write_metrics(metrics, json_path: str | None, prom_path: str | None) -> None:
    """Write *metrics* as JSON and in Prometheus text format, where a path is given."""
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json(indent=2))
        print(f"wrote {json_path}")
    if prom_path:
        with open(prom_path, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_prometheus())
        print(f"wrote {prom_path}")


def _parse_param(text: str):
    """``key=value`` with JSON-decoded value (bare words stay strings)."""
    if "=" not in text:
        raise ValueError(f"expected key=value, got {text!r}")
    key, _, raw = text.partition("=")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-serve`` (also ``python -m repro.cli serve``).

    Subcommands:

    * ``run``    — start a service from ``--config`` (JSON always, YAML
      when pyyaml is installed), submit every job in ``--jobs`` (a JSON
      list of ``{"tenant", "substrate", "workload", "params",
      "priority"}`` rows), drain, and print per-job outcomes plus the
      SLO summary.  Exits 1 when any job *failed* (rejections are honest
      outcomes, not errors), and 2, with one line naming the file, when
      either file cannot be read or is malformed; ``examples/serve/``
      holds a pair to start from.
    * ``submit`` — one spec through an ephemeral single-tenant service;
      with ``--cache-dir`` the result persists, so resubmitting the same
      spec is a cache hit even in a fresh process.
    """
    import asyncio

    from repro.common.errors import ConfigurationError
    from repro.obs import MetricsRegistry, Tracer, save_chrome_trace
    from repro.obs.adapters.serve import render_slo
    from repro.serve import (
        JobCancelled,
        JobService,
        JobSpec,
        Rejected,
        ResultCache,
        TenantPolicy,
        load_config,
        load_jobs,
    )

    p = argparse.ArgumentParser(prog="repro-serve", description="Multi-tenant async job service")
    sub = p.add_subparsers(dest="command", required=True)

    def add_exports(sp):
        sp.add_argument("--metrics-prom", metavar="PATH",
                        help="write the metrics registry in Prometheus text format")
        sp.add_argument("--metrics-json", metavar="PATH",
                        help="write the metrics registry as JSON")
        sp.add_argument("--trace-out", metavar="PATH",
                        help="write the per-job spans as Chrome trace JSON (Perfetto)")

    p_run = sub.add_parser("run", help="serve a batch of submissions from files")
    p_run.add_argument("--config", required=True, metavar="PATH",
                       help="service config file (tenants, workers, cache_dir)")
    p_run.add_argument("--jobs", required=True, metavar="PATH",
                       help="JSON list of submissions")
    add_exports(p_run)

    p_submit = sub.add_parser("submit", help="run one spec through an ephemeral service")
    p_submit.add_argument("--substrate", required=True)
    p_submit.add_argument("--workload", required=True)
    p_submit.add_argument("--param", action="append", default=[], metavar="K=V",
                          help="spec parameter (repeatable; value parsed as JSON)")
    p_submit.add_argument("--tenant", default="cli")
    p_submit.add_argument("--cache-dir", metavar="DIR",
                          help="durable result cache (resubmission = cross-process hit)")
    add_exports(p_submit)

    args = p.parse_args(argv)

    metrics = MetricsRegistry()
    tracer = Tracer(process="serve") if args.trace_out else None

    def export() -> None:
        _write_metrics(metrics, args.metrics_json, args.metrics_prom)
        if args.trace_out:
            save_chrome_trace(tracer, args.trace_out)
            print(f"wrote {args.trace_out} ({len(tracer.records)} records)")

    if args.command == "run":
        try:
            config = load_config(args.config)
            jobs = load_jobs(args.jobs)
        except ConfigurationError as exc:
            print(f"repro-serve: {exc}", file=sys.stderr)
            return 2
        cache = ResultCache(config.cache_dir, memory=config.memory_cache)

        async def drive() -> int:
            failed = 0
            async with JobService(
                config.tenants, workers=config.workers, cache=cache,
                metrics=metrics, tracer=tracer,
            ) as service:
                handles = [
                    service.submit(spec, tenant=tenant, priority=priority)
                    for tenant, spec, priority in jobs
                ]
                for (tenant, spec, _), handle in zip(jobs, handles):
                    label = f"{tenant}: {spec.substrate}/{spec.workload}"
                    try:
                        result = await handle.result()
                    except JobCancelled as exc:
                        print(f"{label}: cancelled ({exc})")
                        continue
                    except Exception as exc:
                        print(f"{label}: FAILED ({exc})", file=sys.stderr)
                        failed += 1
                        continue
                    if isinstance(result, Rejected):
                        print(f"{label}: {result}")
                    else:
                        hit = " [cache hit]" if handle.cached else ""
                        print(f"{label}: done{hit} key={handle.key[:12]}")
            return failed

        failures = asyncio.run(drive())
        print(render_slo(metrics))
        export()
        return 1 if failures else 0

    # submit
    params = dict(_parse_param(t) for t in args.param)
    spec = JobSpec(args.substrate, args.workload, params)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    async def one() -> int:
        async with JobService(
            [TenantPolicy(name=args.tenant)], workers=1, cache=cache,
            metrics=metrics, tracer=tracer,
        ) as service:
            handle = service.submit(spec, tenant=args.tenant)
            result = await handle.result()
            if isinstance(result, Rejected):
                print(str(result), file=sys.stderr)
                return 1
            hit = " [cache hit]" if handle.cached else ""
            print(f"{spec.substrate}/{spec.workload}: done{hit} key={handle.key}")
            print(json.dumps(result, default=repr, indent=2, sort_keys=True))
            return 0

    rc = asyncio.run(one())
    export()
    return rc


_COMMANDS = {
    "sandpile": sandpile_main,
    "stripes": stripes_main,
    "carbon": carbon_main,
    "check": check_main,
    "trace": trace_main,
    "chaos": chaos_main,
    "serve": serve_main,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatcher for ``python -m repro.cli <command> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join(sorted(_COMMANDS))
        print(f"usage: python -m repro.cli {{{names}}} [options]")
        return 0 if argv else 2
    cmd = _COMMANDS.get(argv[0])
    if cmd is None:
        print(f"unknown command {argv[0]!r}; available: {', '.join(sorted(_COMMANDS))}",
              file=sys.stderr)
        return 2
    return cmd(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())

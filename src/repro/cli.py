"""Command-line interface.

::

    python -m repro run program.c --inputs 1,2,3 --opt O3
    python -m repro transform program.c --inputs-file stream.txt
    python -m repro trace program.c --why quan
    python -m repro stats G721_encode --opt O3
    python -m repro stats GNUGO_drift --governed --alternate
    python -m repro annotate UNEPIC --opt O0 --backend both --html unepic.html
    python -m repro disasm GNUGO --opt O3
    python -m repro workloads
    python -m repro perf record --workload UNEPIC --update-baseline
    python -m repro perf report GNUGO --flamegraph gnugo.folded
    python -m repro perf check --baseline PERF_BASELINE.json
    python -m repro dash --workload UNEPIC --out repro-dash.html
    python -m repro report --table 6 --workload G721_encode --workload RASTA
    python -m repro report --figure 14 --workload UNEPIC
    python -m repro serve --port 8080
    python -m repro loadgen --smoke --out BENCH_service.json

``run`` executes a mini-C file on the simulated StrongARM and prints the
metrics; ``transform`` runs the full reuse pipeline and prints the
memoized source plus the before/after comparison; ``trace`` runs the
pipeline with tracing on and exports a Chrome trace, a JSONL span log,
and the segment decision ledger; ``stats`` prints the runtime
reuse-table telemetry of a transformed execution (``--governed`` adds
the online governor's state and transitions, ``--alternate`` runs on a
workload's alternate/shifted input stream, ``--repeat`` runs the
session several times and reports p50/p90/p99 run latency);
``annotate`` prints the line-level cycle & reuse annotation — the
simulator's ``perf annotate`` — and optionally writes the heat-shaded
HTML page; ``disasm`` dumps the VM bytecode interleaved with the
source lines it compiled from; ``perf`` records
cycle-attribution profiles into the append-only perf store, renders the
measured-vs-ledger report, and gates CI against a committed baseline
(``check`` exits non-zero on any cycle or checksum regression);
``dash`` renders the whole observability surface — metrics registry,
ledger verdicts, attribution trees, perf trends — into one static HTML
file; ``report``
regenerates any of the paper's tables/figures for a subset of
workloads; ``serve`` starts the multi-tenant compile-and-run HTTP
service (:mod:`repro.service`) and ``loadgen`` load-tests it —
concurrent client sessions over the registered workloads with every
served output verified against a direct facade run, writing the
latency/throughput report to ``BENCH_service.json``.

Every command goes through the stable facade (:mod:`repro.api`); this
module contains no pipeline or machine wiring of its own.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import api
from .errors import ReproError


def _parse_inputs(args) -> list:
    if getattr(args, "inputs_file", None):
        with open(args.inputs_file) as f:
            return api.parse_input_stream(f.read())
    if getattr(args, "inputs", None):
        return api.parse_input_stream(args.inputs)
    return []


def _read_source(path: str) -> str:
    with open(path) as f:
        return f.read()


def _resolve_workload(name: str):
    """``get_workload`` with CLI-grade errors: an unknown name becomes a
    :class:`~repro.errors.ConfigError` (exit code 2) that lists the
    registered workloads instead of a raw traceback."""
    from .workloads import ALL_WORKLOADS, get_workload

    try:
        return get_workload(name)
    except KeyError:
        names = ", ".join(w.name for w in ALL_WORKLOADS)
        raise api.ConfigError(
            f"unknown workload {name!r}; registered workloads: {names}"
        ) from None


def _resolve_target(args):
    """Shared file-or-workload resolution for the single-target commands
    (``stats``, ``trace``, ``annotate``, ``disasm``).

    A target path that exists on disk is a mini-C file; anything else
    must name a registered workload.  Returns ``(source, profile
    inputs, run inputs or None, pipeline config, title)``."""
    import os

    run_inputs = None
    if os.path.exists(args.target):
        if getattr(args, "alternate", False):
            raise api.ConfigError("--alternate requires a registered workload")
        source = _read_source(args.target)
        inputs = _parse_inputs(args)
        config = api.PipelineConfig(
            min_executions=getattr(args, "min_executions", 32)
        )
        title = args.target
    else:
        from .experiments.adaptive import workload_config

        workload = _resolve_workload(args.target)
        source = workload.source
        inputs = _parse_inputs(args) or workload.default_inputs()
        if getattr(args, "alternate", False):
            run_inputs = workload.alternate_inputs()
        config = workload_config(workload)
        title = workload.name
    return source, inputs, run_inputs, config, title


def cmd_run(args) -> int:
    source = _read_source(args.file)
    inputs = _parse_inputs(args)
    options = api.CompileOptions(opt=args.opt, reuse=False, backend=args.backend)
    result = api.compile(source, options).run(inputs, api.RunOptions(entry=args.entry))
    metrics = result.metrics
    print(f"result: {result.value}")
    print(f"cycles: {metrics.cycles}")
    print(f"time:   {metrics.seconds:.6f} s (simulated SA-1110 @ 206 MHz)")
    print(f"energy: {metrics.energy_joules:.6f} J")
    print(f"output: {metrics.output_count} values, checksum {metrics.output_checksum:#010x}")
    return 0


def cmd_transform(args) -> int:
    source = _read_source(args.file)
    inputs = _parse_inputs(args)
    config = api.PipelineConfig(min_executions=args.min_executions)
    program = api.compile(source, api.CompileOptions(config=config))
    result = program.profile(inputs)

    counts = result.counts
    print(
        f"// segments: {counts['analyzed']} analyzed, "
        f"{counts['profiled']} profiled, {counts['transformed']} transformed"
    )
    for record in result.specializations:
        bindings = ", ".join(b.describe() for b in record.bindings)
        print(f"// specialized {record.original} -> {record.specialized} [{bindings}]")
    for segment in result.selected:
        print(
            f"// {segment.describe()}: R={segment.reuse_rate:.3f} "
            f"C={segment.measured_granularity:.0f}cy O={segment.overhead:.0f}cy "
            f"gain={segment.gain:.0f}cy/exec"
        )
    print(program.transformed_source())

    if not args.no_measure and result.selected:
        run_options = api.RunOptions(entry=args.entry)
        original = api.compile(
            source, api.CompileOptions(reuse=False)
        ).run(inputs, run_options)
        transformed = program.run(inputs, run_options)
        match = original.output_checksum == transformed.output_checksum
        print(f"// original:    {original.seconds:.6f} s")
        print(f"// transformed: {transformed.seconds:.6f} s")
        print(f"// speedup:     {transformed.speedup_vs(original):.2f}x")
        print(f"// outputs match: {match}")
        if not match:
            return 1
    return 0


def cmd_trace(args) -> int:
    """Run the reuse pipeline with tracing on and export the evidence:
    a Chrome trace (``<stem>.trace.json``), the span/event log
    (``<stem>.trace.jsonl``), and the decision ledger
    (``<stem>.ledger.json``), plus the ledger table on stdout."""
    import json
    from pathlib import Path

    from .obs import write_chrome_trace, write_jsonl

    source, inputs, _run_inputs, config, title = _resolve_target(args)
    program = api.compile(source, api.CompileOptions(config=config, trace=True))
    result = program.profile(inputs)
    tracer = program.tracer

    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / Path(title).stem
    chrome_path = f"{base}.trace.json"
    jsonl_path = f"{base}.trace.jsonl"
    ledger_path = f"{base}.ledger.json"
    write_chrome_trace(tracer, chrome_path)
    write_jsonl(tracer, jsonl_path)
    with open(ledger_path, "w", encoding="utf-8") as f:
        json.dump(result.ledger.to_json(), f, indent=1, sort_keys=True)
        f.write("\n")

    counts = result.counts
    print(
        f"// segments: {counts['analyzed']} analyzed, "
        f"{counts['profiled']} profiled, {counts['transformed']} transformed"
    )
    print(f"// chrome trace: {chrome_path} ({len(tracer.spans)} spans)")
    print(f"// span log:     {jsonl_path}")
    print(f"// ledger:       {ledger_path}")
    print()
    if args.why:
        print(result.ledger.why(args.why))
    else:
        print(result.ledger.render())
    return 0


def cmd_stats(args) -> int:
    """Transform a program (or a registered workload), execute it with its
    reuse tables installed, and print the runtime table telemetry.

    ``--governed`` installs governor-managed tables and reports the
    governor's state machine; ``--alternate`` runs a registered workload
    on its alternate (typically distribution-shifted) input stream while
    still profiling on the default stream — the combination demonstrates
    the governor reacting to a shift the profile never saw.  Runs go
    through a metered :class:`~repro.api.Session` (tables stay warm
    across ``--repeat`` runs) and the report closes with the session's
    p50/p90/p99 run-latency quantiles.
    """
    from .experiments.report import (
        render_governor,
        render_hit_ratio_series,
        render_reuse_stats,
    )
    from .obs.render import render_session_latency

    source, inputs, run_inputs, config, _title = _resolve_target(args)
    session = api.Session(
        api.CompileOptions(opt=args.opt, config=config, governed=args.governed),
        metrics=True,
    )
    program = session.compile(source)
    program.profile(inputs)
    if not program.result.selected:
        print("nothing was transformed; no reuse tables to report")
        return 1
    result = None
    for _ in range(max(1, args.repeat)):
        result = session.run(source, run_inputs if run_inputs is not None else inputs)
    metrics = result.metrics
    print(render_reuse_stats(metrics.table_stats, metrics.merged_members))
    print()
    print(render_hit_ratio_series(metrics.table_stats))
    if args.governed:
        print()
        print(render_governor(metrics.governor))
    print()
    print(render_session_latency(session.registry.snapshot()))
    return 0


def cmd_annotate(args) -> int:
    """Line-level cycle & reuse annotation — the simulator's
    ``perf annotate``.

    Compiles the target in line-attribution mode (``profile="lines"``),
    runs it, and joins per-line body/overhead cycles with the source
    map's reuse-site locations and the ledger's estimates.  ``--backend
    both`` annotates on the closure tree and the bytecode VM (the two
    must agree line-for-line); ``--html`` also writes the heat-shaded
    single-file HTML page."""
    from .obs.annotate import build_annotation, render_html, render_text

    source, inputs, _run_inputs, config, title = _resolve_target(args)
    backends = ("closures", "vm") if args.backend == "both" else (args.backend,)
    annotations = []
    for backend in backends:
        program = api.compile(
            source,
            api.CompileOptions(
                opt=args.opt, config=config, profile="lines", backend=backend
            ),
        )
        program.profile(inputs)
        result = program.run(inputs)
        annotations.append(
            build_annotation(
                source,
                result.profile(),
                result.source_map,
                title=f"{title}@{args.opt}",
            )
        )
    for i, annotation in enumerate(annotations):
        if i:
            print()
        print(render_text(annotation))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as f:
            f.write(render_html(annotations))
        print(f"\nannotated HTML: {args.html}")
    return 0


def cmd_disasm(args) -> int:
    """Dump the VM bytecode of a workload (or file) interleaved with the
    source lines it compiled from, including per-line breakdowns of
    block-batched CHARGE groups.  By default the reuse-transformed
    program is shown (probes and all); ``--no-reuse`` disassembles the
    original."""
    from .obs.annotate import render_disasm

    source, inputs, _run_inputs, config, _title = _resolve_target(args)
    program = api.compile(
        source,
        api.CompileOptions(opt=args.opt, config=config, reuse=not args.no_reuse),
    )
    if not args.no_reuse:
        program.profile(inputs)
    vm_program, source_map = program.disassemble()
    print(render_disasm(source, vm_program, source_map))
    return 0


def cmd_perf_record(args) -> int:
    from .experiments.perf import record_workloads
    from .obs.perfdb import PerfDB, write_baseline

    names = args.workload or _default_perf_workloads()
    db = PerfDB(args.db)
    rows = record_workloads(
        names,
        opts=args.opt or ["O0"],
        variants=args.variant or ["static"],
        db=db,
    )
    for row in rows:
        print(
            f"recorded {row['workload']}@{row['opt']}@{row['variant']}: "
            f"{row['cycles']} cycles, checksum {row['output_checksum']:#010x}"
        )
    if args.update_baseline:
        write_baseline(args.baseline, rows, tolerance_pct=args.tolerance)
        print(f"baseline written: {args.baseline} ({len(rows)} rows)")
    print(f"store: {db.path}")
    return 0


def cmd_perf_report(args) -> int:
    from pathlib import Path

    from .experiments.perf import measure_workload
    from .experiments.report import render_perf_history
    from .obs.perfdb import PerfDB

    row, result = measure_workload(
        args.target, opt=args.opt_level, variant=args.variant_name
    )
    profile = result.profile()
    print(profile.measured_vs_ledger())
    print()
    print(profile.render(max_depth=args.depth))
    if args.flamegraph:
        Path(args.flamegraph).write_text(profile.collapsed() + "\n", encoding="utf-8")
        print(f"\ncollapsed stacks: {args.flamegraph}")
    if args.history:
        db = PerfDB(args.db)
        print()
        print(
            render_perf_history(
                db.rows(args.target, args.opt_level, args.variant_name) + [row]
            )
        )
    return 0


def cmd_perf_check(args) -> int:
    from .experiments.perf import check_workloads
    from .obs.perfdb import PerfDB

    db = PerfDB(args.db) if args.record else None
    regressions, rows = check_workloads(
        args.baseline, workloads=args.workload or None, db=db
    )
    for row in rows:
        print(
            f"measured {row['workload']}@{row['opt']}@{row['variant']}: "
            f"{row['cycles']} cycles, checksum {row['output_checksum']:#010x}"
        )
    if not rows:
        print("no baseline rows matched the selected workloads", file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} regression(s) against {args.baseline}:")
        for regression in regressions:
            print(f"  FAIL {regression.describe()}")
        return 1
    print(f"\nOK: {len(rows)} row(s) within baseline {args.baseline}")
    return 0


def _default_perf_workloads() -> list[str]:
    # the two representative workloads the CI gate measures: one loop
    # segment (UNEPIC) and one function segment workload (GNU Go)
    return ["UNEPIC", "GNUGO"]


def cmd_dash(args) -> int:
    """Build the static-HTML dashboard: fresh measurements, aggregated
    metrics registry and perf-store trends in one self-contained file."""
    import datetime
    import json
    import os

    from .experiments.dash import write_dashboard
    from .obs.perfdb import PerfDB

    names = args.workload or _default_perf_workloads()
    db = PerfDB(args.db)
    generated = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S UTC"
    )
    service_bench = None
    if args.service_bench and os.path.exists(args.service_bench):
        with open(args.service_bench, encoding="utf-8") as f:
            service_bench = json.load(f)
    path = write_dashboard(
        args.out,
        names,
        opts=args.opt or ["O0"],
        variants=args.variant or ["static"],
        db=db if db.path.exists() else None,
        generated=generated,
        service_bench=service_bench,
    )
    print(f"dashboard written: {path}")
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant compile-and-run service until interrupted."""
    import time

    from .service import ServiceConfig, ServiceThread

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        drain_grace=args.drain_grace,
        trace=args.trace,
        trace_capacity=args.trace_capacity,
        log_capacity=args.log_capacity,
    )
    server = ServiceThread(config).start()
    try:
        print(f"repro service listening on {server.url}")
        print("endpoints: POST /v1/compile, POST /v1/run; "
              "GET /v1/stats, /metrics, /healthz, /v1/trace, /v1/events")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\ndraining...", file=sys.stderr)
    finally:
        server.close()
    return 0


def cmd_tail(args) -> int:
    """Follow a running service's structured event log (``GET
    /v1/events``), rendering one text line per record.

    Long-polls with a server-side ``wait`` so an idle service costs one
    request per ``--interval`` seconds, not a busy loop.  ``--once``
    drains whatever the ring currently holds and exits — the shape the
    CI smoke step uses against the live loadgen server."""
    import asyncio

    from .obs.render import render_event_line
    from .service.client import ServiceClient

    async def tail() -> int:
        client = ServiceClient(args.host, args.port)
        since = args.since
        try:
            while True:
                wait = 0.0 if args.once else args.interval
                reply = await client.events(
                    since=since, wait=wait, level=args.level, limit=args.limit
                )
                if reply.status != 200:
                    print(f"error: {reply.status} {reply.payload}", file=sys.stderr)
                    return 1
                payload = reply.payload
                for record in payload["records"]:
                    print(render_event_line(record))
                if payload.get("dropped"):
                    print(
                        f"... {payload['dropped']} records dropped "
                        "(ring overran the cursor)",
                        file=sys.stderr,
                    )
                since = payload["next_seq"]
                if args.once:
                    return 0
        finally:
            await client.close()

    try:
        return asyncio.run(tail())
    except KeyboardInterrupt:
        return 0


def cmd_loadgen(args) -> int:
    """Load-test the service and write the latency/verification report.

    Exits non-zero when any request failed (after retries) or any served
    output diverged from the direct facade run — the CI contract."""
    import json

    from .service import LoadgenConfig, run_loadgen, smoke_config

    if args.smoke:
        config = smoke_config(out=args.out, trace_out=args.trace_out)
    else:
        config = LoadgenConfig(
            sessions=args.sessions,
            runs_per_session=args.runs_per_session,
            tenants=args.tenants,
            workloads=tuple(args.workload) if args.workload else None,
            input_prefix=args.input_prefix,
            chunk=args.chunk,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            out=args.out,
            trace=args.trace or args.trace_out is not None,
            trace_out=args.trace_out,
        )
    report = run_loadgen(config, host=args.host, port=args.port)
    totals, latency = report["totals"], report["latency"]["run"]
    print(
        f"sessions: {totals['sessions']}  requests: {totals['requests']}  "
        f"runs: {totals['runs']}  errors: {totals['errors']}"
    )
    if latency.get("count"):
        print(
            f"run latency: p50 {latency['p50_ms']:.1f} ms, "
            f"p90 {latency['p90_ms']:.1f} ms, p99 {latency['p99_ms']:.1f} ms"
        )
    print(
        f"throughput: {totals['throughput_rps']:.1f} req/s over "
        f"{totals['wall_seconds']:.1f} s  "
        f"(429 retries: {totals['retries_backpressure']}, "
        f"evictions: {totals['retries_evicted']})"
    )
    verification = report["verification"]
    print(
        f"verification: {verification['checked']} outputs checked, "
        f"{verification['mismatches']} mismatches"
    )
    tracing = report.get("tracing")
    if tracing is not None:
        print(
            f"tracing: {tracing['traced_runs']} traced runs, "
            f"{len(tracing['slowest'])} span trees fetched, "
            f"{tracing['orphan_spans']} orphan spans"
        )
        if args.trace_render:
            from .obs.render import render_trace_tree

            blocks = [render_trace_tree(entry) for entry in tracing["slowest"]]
            with open(args.trace_render, "w", encoding="utf-8") as f:
                f.write("\n\n".join(blocks) + "\n")
            print(f"slowest-request render written: {args.trace_render}")
    if config.out:
        print(f"report written: {config.out}")
    if not report["ok"]:
        for err in report["errors"][:10]:
            print(f"  FAIL {err}", file=sys.stderr)
        print(json.dumps(report["verification"]), file=sys.stderr)
        return 1
    return 0


def cmd_workloads(args) -> int:
    from .workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        kind = "variant" if workload.is_variant else "primary"
        print(f"{workload.name:16} [{kind}] {workload.description}")
    return 0


def _selected_workloads(args):
    from .workloads import ALL_WORKLOADS

    if args.workload:
        return [_resolve_workload(name) for name in args.workload]
    return ALL_WORKLOADS


def cmd_report(args) -> int:
    from .experiments import (
        ExperimentRunner,
        energy_table,
        figure14,
        figure15,
        render_energy,
        render_speedups,
        render_sweep,
        render_table3,
        render_table4,
        render_table5,
        render_table10,
        speedup_table,
        table3,
        table4,
        table5,
        table10,
    )

    runner = ExperimentRunner()
    workloads = _selected_workloads(args)
    if args.table == 3:
        print(render_table3(table3(runner, workloads)))
    elif args.table == 4:
        print(render_table4(table4(runner, workloads)))
    elif args.table == 5:
        print(render_table5(table5(runner, workloads)))
    elif args.table in (6, 7):
        level = "O0" if args.table == 6 else "O3"
        rows, mean = speedup_table(runner, level, workloads)
        print(render_speedups(rows, mean, level, args.table))
    elif args.table in (8, 9):
        level = "O0" if args.table == 8 else "O3"
        print(render_energy(energy_table(runner, level, workloads), level, args.table))
    elif args.table == 10:
        rows, mean = table10(runner, workloads)
        print(render_table10(rows, mean))
    elif args.figure in (14, 15):
        fig = figure14 if args.figure == 14 else figure15
        level = "O0" if args.figure == 14 else "O3"
        print(render_sweep(fig(runner, workloads), level, args.figure))
    else:
        print("specify --table {3..10} or --figure {14,15}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Computation-reuse compiler scheme (Ding & Li, CGO 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mini-C file on the simulated machine")
    p_run.add_argument("file")
    p_run.add_argument("--opt", choices=("O0", "O3"), default="O0")
    p_run.add_argument(
        "--backend",
        choices=("closures", "vm"),
        default=None,
        help="execution backend (default: REPRO_BACKEND or vm)",
    )
    p_run.add_argument("--entry", default="main")
    p_run.add_argument("--inputs", help="comma-separated input stream")
    p_run.add_argument("--inputs-file", help="whitespace-separated input stream file")
    p_run.set_defaults(func=cmd_run)

    p_tr = sub.add_parser("transform", help="apply the reuse pipeline to a mini-C file")
    p_tr.add_argument("file")
    p_tr.add_argument("--entry", default="main")
    p_tr.add_argument("--inputs", help="comma-separated profiling input stream")
    p_tr.add_argument("--inputs-file")
    p_tr.add_argument("--min-executions", type=int, default=32)
    p_tr.add_argument("--no-measure", action="store_true")
    p_tr.set_defaults(func=cmd_transform)

    p_trace = sub.add_parser(
        "trace", help="trace the reuse pipeline and dump the decision ledger"
    )
    p_trace.add_argument("target", help="mini-C file path or workload name")
    p_trace.add_argument("--inputs", help="comma-separated profiling input stream")
    p_trace.add_argument("--inputs-file")
    p_trace.add_argument("--min-executions", type=int, default=32)
    p_trace.add_argument(
        "--out-dir", help="directory for the trace/ledger files (default: .)"
    )
    p_trace.add_argument(
        "--why",
        help="print the decision history of one segment "
        "(id, function name, or function@workload)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="runtime reuse-table telemetry for a file or workload"
    )
    p_stats.add_argument("target", help="mini-C file path or workload name")
    p_stats.add_argument("--opt", choices=("O0", "O3"), default="O0")
    p_stats.add_argument("--inputs", help="comma-separated input stream")
    p_stats.add_argument("--inputs-file")
    p_stats.add_argument("--min-executions", type=int, default=32)
    p_stats.add_argument(
        "--governed",
        action="store_true",
        help="install governor-managed tables and report governor state",
    )
    p_stats.add_argument(
        "--alternate",
        action="store_true",
        help="run a registered workload on its alternate (shifted) inputs "
        "while profiling on the default stream",
    )
    p_stats.add_argument(
        "--repeat", type=int, default=1,
        help="session runs to execute (tables stay warm between runs)",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_ann = sub.add_parser(
        "annotate",
        help="line-level cycle & reuse annotation (the perf-annotate view)",
    )
    p_ann.add_argument("target", help="mini-C file path or workload name")
    p_ann.add_argument("--opt", choices=("O0", "O3"), default="O0")
    p_ann.add_argument(
        "--backend",
        choices=("closures", "vm", "both"),
        default="closures",
        help="backend(s) to annotate; 'both' adds an HTML selector",
    )
    p_ann.add_argument(
        "--html", help="also write the heat-shaded HTML page to this path"
    )
    p_ann.add_argument("--inputs", help="comma-separated input stream")
    p_ann.add_argument("--inputs-file")
    p_ann.add_argument("--min-executions", type=int, default=32)
    p_ann.set_defaults(func=cmd_annotate)

    p_dis = sub.add_parser(
        "disasm", help="VM bytecode interleaved with the source lines"
    )
    p_dis.add_argument("target", help="mini-C file path or workload name")
    p_dis.add_argument("--opt", choices=("O0", "O3"), default="O0")
    p_dis.add_argument(
        "--no-reuse", action="store_true",
        help="disassemble the untransformed program (no probes)",
    )
    p_dis.add_argument("--inputs", help="comma-separated profiling input stream")
    p_dis.add_argument("--inputs-file")
    p_dis.add_argument("--min-executions", type=int, default=32)
    p_dis.set_defaults(func=cmd_disasm)

    p_wl = sub.add_parser("workloads", help="list the benchmark workloads")
    p_wl.set_defaults(func=cmd_workloads)

    p_perf = sub.add_parser(
        "perf", help="cycle-attribution profiles, perf store, regression gate"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_rec = perf_sub.add_parser(
        "record", help="measure workloads and append rows to the perf store"
    )
    p_rec.add_argument(
        "--workload", action="append",
        help="workload to measure (repeatable; default: UNEPIC, GNUGO)",
    )
    p_rec.add_argument(
        "--opt", action="append", choices=("O0", "O3"),
        help="opt level (repeatable; default: O0)",
    )
    p_rec.add_argument(
        "--variant", action="append", choices=("static", "governed"),
        help="table variant (repeatable; default: static)",
    )
    p_rec.add_argument("--db", default=".repro_perf", help="perf store directory")
    p_rec.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed baseline from these measurements",
    )
    p_rec.add_argument("--baseline", default="PERF_BASELINE.json")
    p_rec.add_argument(
        "--tolerance", type=float, default=0.0,
        help="default cycle tolerance (%%) written into the baseline",
    )
    p_rec.set_defaults(func=cmd_perf_record)

    p_prep = perf_sub.add_parser(
        "report", help="measured-vs-ledger table and attribution tree for a workload"
    )
    p_prep.add_argument("target", help="workload name")
    p_prep.add_argument("--opt-level", choices=("O0", "O3"), default="O0")
    p_prep.add_argument(
        "--variant-name", choices=("static", "governed"), default="static"
    )
    p_prep.add_argument(
        "--depth", type=int, default=6, help="attribution tree depth limit"
    )
    p_prep.add_argument(
        "--flamegraph", help="write collapsed-stack lines to this path"
    )
    p_prep.add_argument(
        "--history", action="store_true",
        help="append the perf-store cycle history for this configuration",
    )
    p_prep.add_argument("--db", default=".repro_perf", help="perf store directory")
    p_prep.set_defaults(func=cmd_perf_report)

    p_chk = perf_sub.add_parser(
        "check", help="re-measure the baseline configurations; exit 1 on regression"
    )
    p_chk.add_argument("--baseline", default="PERF_BASELINE.json")
    p_chk.add_argument(
        "--workload", action="append",
        help="restrict the gate to these workloads (repeatable)",
    )
    p_chk.add_argument(
        "--record", action="store_true",
        help="also append the measured rows to the perf store",
    )
    p_chk.add_argument("--db", default=".repro_perf", help="perf store directory")
    p_chk.set_defaults(func=cmd_perf_check)

    p_dash = sub.add_parser(
        "dash", help="build the self-contained HTML observability dashboard"
    )
    p_dash.add_argument(
        "--workload", action="append",
        help="workload to include (repeatable; default: UNEPIC, GNUGO)",
    )
    p_dash.add_argument(
        "--opt", action="append", choices=("O0", "O3"),
        help="opt level (repeatable; default: O0)",
    )
    p_dash.add_argument(
        "--variant", action="append", choices=("static", "governed"),
        help="table variant (repeatable; default: static)",
    )
    p_dash.add_argument("--db", default=".repro_perf", help="perf store directory")
    p_dash.add_argument("--out", default="repro-dash.html", help="output HTML path")
    p_dash.add_argument(
        "--service-bench", default="BENCH_service.json",
        help="loadgen report to embed as the service panel (skipped if absent)",
    )
    p_dash.set_defaults(func=cmd_dash)

    p_srv = sub.add_parser(
        "serve", help="start the multi-tenant compile-and-run HTTP service"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: bind an ephemeral port and print it)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=0,
        help="worker threads executing runs (default: cpu count + 2)",
    )
    p_srv.add_argument(
        "--max-pending", type=int, default=64,
        help="in-flight bound before requests get 429 + Retry-After",
    )
    p_srv.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="seconds before an admitted request gets 504",
    )
    p_srv.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    p_srv.add_argument(
        "--trace", choices=("auto", "all", "off"), default="auto",
        help="request tracing: auto traces requests carrying a "
             "traceparent header, all traces everything, off disables",
    )
    p_srv.add_argument(
        "--trace-capacity", type=int, default=256,
        help="assembled span trees kept for GET /v1/trace/<id> (LRU)",
    )
    p_srv.add_argument(
        "--log-capacity", type=int, default=2048,
        help="structured event-log ring size (0 disables /v1/events)",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_tail = sub.add_parser(
        "tail", help="follow a running service's structured event log"
    )
    p_tail.add_argument("--host", default="127.0.0.1")
    p_tail.add_argument("--port", type=int, required=True)
    p_tail.add_argument(
        "--since", type=int, default=0,
        help="start cursor (0: everything still in the ring)",
    )
    p_tail.add_argument(
        "--level", choices=("debug", "info", "warning", "error"),
        default="info", help="minimum record level to show",
    )
    p_tail.add_argument("--limit", type=int, default=500,
                        help="max records per poll")
    p_tail.add_argument(
        "--interval", type=float, default=10.0,
        help="long-poll wait per request when following",
    )
    p_tail.add_argument(
        "--once", action="store_true",
        help="drain the current ring contents and exit",
    )
    p_tail.set_defaults(func=cmd_tail)

    p_lg = sub.add_parser(
        "loadgen", help="load-test the service; verify served outputs bit-for-bit"
    )
    p_lg.add_argument(
        "--smoke", action="store_true",
        help="the bounded CI shape (32 sessions, 4 workloads, both backends)",
    )
    p_lg.add_argument(
        "--sessions", type=int, default=1000,
        help="concurrent client sessions to drive",
    )
    p_lg.add_argument("--runs-per-session", type=int, default=4)
    p_lg.add_argument("--tenants", type=int, default=2)
    p_lg.add_argument(
        "--workload", action="append",
        help="workload to include (repeatable; default: all registered)",
    )
    p_lg.add_argument("--input-prefix", type=int, default=256)
    p_lg.add_argument("--chunk", type=int, default=64)
    p_lg.add_argument("--max-pending", type=int, default=256)
    p_lg.add_argument("--request-timeout", type=float, default=60.0)
    p_lg.add_argument(
        "--host", default=None,
        help="target an already-running service instead of booting one",
    )
    p_lg.add_argument("--port", type=int, default=None)
    p_lg.add_argument(
        "--out", default=None, help="write the JSON report (BENCH_service.json)"
    )
    p_lg.add_argument(
        "--trace", action="store_true",
        help="send traceparent on every request and fetch the slowest "
             "requests' span trees into the report",
    )
    p_lg.add_argument(
        "--trace-out", default=None,
        help="write per-run trace records + slowest span trees as JSONL "
             "(implies --trace)",
    )
    p_lg.add_argument(
        "--trace-render", default=None,
        help="write the slowest-request span trees as a text render",
    )
    p_lg.set_defaults(func=cmd_loadgen)

    p_rep = sub.add_parser("report", help="regenerate a paper table/figure")
    p_rep.add_argument("--table", type=int)
    p_rep.add_argument("--figure", type=int)
    p_rep.add_argument(
        "--workload", action="append", help="restrict to workload (repeatable)"
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

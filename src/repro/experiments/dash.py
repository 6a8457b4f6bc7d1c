"""Collector behind ``repro dash``: measure, aggregate, render to HTML.

:mod:`repro.obs.dash` is the pure renderer; this module produces its
input.  One shared :class:`~repro.obs.metrics.MetricsRegistry` rides
along through every :func:`~repro.experiments.perf.measure_workload`
call, so the embedded OpenMetrics exposition aggregates the whole
dashboard build (per-segment probe counters sum across workloads); the
perf store supplies the trend history.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .. import api
from ..obs.annotate import build_annotation, render_fragment
from ..obs.dash import DashData, WorkloadPanel, render_dashboard
from ..obs.metrics import MetricsRegistry
from ..obs.perfdb import PerfDB, baseline_key
from ..obs.render import (
    render_hit_ratio_series,
    render_perf_history,
    render_service_bench,
    render_session_latency,
    render_slowest_requests,
)
from ..workloads import get_workload
from .adaptive import workload_config
from .perf import measure_workload
from .report import render_governor, render_reuse_stats

__all__ = ["collect_dashboard", "write_dashboard"]

# histogram layout mirrors api.Session so both feeds aggregate into one family
_RUN_SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


def _annotate_fragment(name: str, opt: str) -> str:
    """Both backends' annotated-source HTML for one workload@opt.

    Line mode is a separate pair of runs (marks disable fusion in the
    closure backend, so the measured panel keeps its own run untouched);
    the fragment gets a per-panel uid so several panels' backend
    selectors coexist on one page."""
    workload = get_workload(name)
    annotations = []
    for backend in ("closures", "vm"):
        program = api.compile(
            workload.source,
            api.CompileOptions(
                opt=opt,
                config=workload_config(workload),
                profile="lines",
                backend=backend,
            ),
        )
        inputs = workload.default_inputs()
        program.profile(inputs)
        result = program.run(inputs)
        annotations.append(
            build_annotation(
                workload.source,
                result.profile(),
                result.source_map,
                title=f"{name}@{opt}",
            )
        )
    return render_fragment(annotations, uid=f"{name}-{opt}")


def _panel(
    name: str,
    opt: str,
    variant: str,
    registry: MetricsRegistry,
    db: Optional[PerfDB],
) -> WorkloadPanel:
    history = db.rows(name, opt, variant) if db is not None else []
    started = time.perf_counter()
    row, result = measure_workload(name, opt, variant, metrics=registry)
    registry.histogram(
        "repro_session_run_seconds",
        "Per-run wall-clock seconds.",
        buckets=_RUN_SECONDS_BUCKETS,
    ).observe(time.perf_counter() - started)
    profile = result.profile()
    metrics = result.metrics
    ledger_text = result.ledger.render() if result.ledger is not None else ""
    return WorkloadPanel(
        key=baseline_key(name, opt, variant),
        cycles=metrics.cycles,
        seconds=metrics.seconds,
        energy_joules=metrics.energy_joules,
        output_checksum=metrics.output_checksum,
        table_text=render_reuse_stats(metrics.table_stats) if metrics.table_stats else "",
        hit_ratio_text=(
            render_hit_ratio_series(metrics.table_stats) if metrics.table_stats else ""
        ),
        governor_text=render_governor(metrics.governor) if metrics.governor else "",
        ledger_text=ledger_text,
        measured_vs_ledger=profile.measured_vs_ledger(),
        profile_text=profile.render(max_depth=4),
        history_text=render_perf_history(history + [row]) if history else "",
        annotate_html=_annotate_fragment(name, opt) if variant == "static" else "",
    )


def collect_dashboard(
    workloads: Sequence[str],
    opts: Sequence[str] = ("O0",),
    variants: Sequence[str] = ("static",),
    db: Optional[PerfDB] = None,
    title: str = "repro dashboard",
    generated: str = "",
    service_bench: Optional[dict] = None,
) -> DashData:
    """Measure every (workload, opt, variant) combination and assemble
    the :class:`~repro.obs.dash.DashData` for rendering.

    ``generated`` is caller-supplied timestamp text (kept out of this
    module so the collector stays deterministic and testable);
    ``service_bench`` is an optional parsed ``BENCH_service.json``
    report to embed as the service load-test block."""
    registry = MetricsRegistry()
    panels = [
        _panel(name, opt, variant, registry, db)
        for name in workloads
        for opt in opts
        for variant in variants
    ]
    tracing = (service_bench or {}).get("tracing")
    return DashData(
        title=title,
        generated=generated,
        metrics_text=registry.render_openmetrics(),
        session_text=render_session_latency(registry.snapshot()),
        service_text=render_service_bench(service_bench) if service_bench else "",
        slowest_text=render_slowest_requests(tracing) if tracing else "",
        panels=panels,
    )


def write_dashboard(
    path: str,
    workloads: Sequence[str],
    opts: Sequence[str] = ("O0",),
    variants: Sequence[str] = ("static",),
    db: Optional[PerfDB] = None,
    title: str = "repro dashboard",
    generated: str = "",
    service_bench: Optional[dict] = None,
) -> str:
    """Collect and write the dashboard HTML; returns ``path``."""
    data = collect_dashboard(
        workloads,
        opts=opts,
        variants=variants,
        db=db,
        title=title,
        generated=generated,
        service_bench=service_bench,
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_dashboard(data))
    return path

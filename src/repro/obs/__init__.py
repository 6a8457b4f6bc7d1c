"""Observability: structured tracing, decision ledger, trace exporters.

Zero-dependency and off by default.  Three pillars:

* :class:`Tracer` (:mod:`repro.obs.tracer`) — process-local nested spans
  with wall-clock and simulated-cycle attribution; enabled explicitly or
  with ``REPRO_TRACE``.
* :class:`DecisionLedger` (:mod:`repro.obs.ledger`) — per-candidate
  verdicts from every reuse-pipeline stage, with the numbers and margins
  behind each decision.
* Exporters (:mod:`repro.obs.export`) — JSONL and Chrome
  ``chrome://tracing`` trace-event formats.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — Counter /
  Gauge / Histogram families with OpenMetrics exposition; each run
  publishes into one only when the program is metered.
* :class:`EventLog` (:mod:`repro.obs.log`) — leveled, rate-limited,
  ring-buffered structured JSONL records with trace/span ids stamped on
  every record; ``None`` by default so un-logged runs pay nothing.
* :mod:`repro.obs.dash` — the deterministic static-HTML dashboard
  renderer behind ``repro dash`` (series glyphs shared via
  :mod:`repro.obs.render`).

Runtime reuse telemetry (eviction counts, occupancy high-water marks,
hit-ratio time series) lives with the data structures that produce it in
:mod:`repro.runtime.hashtable` and is surfaced through
``Machine.metrics()`` and the ``repro stats`` CLI.
"""

from .ledger import DecisionLedger, SegmentRecord, Verdict
from .tracer import (
    Span,
    Tracer,
    assemble_tree,
    format_traceparent,
    get_tracer,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_tracer,
)
from .log import EventLog, get_event_log, set_event_log
from .export import to_chrome, to_jsonl, write_chrome_trace, write_jsonl
from .profiler import (
    CycleProfile,
    CycleProfiler,
    ProfileNode,
    SegmentAttribution,
    ledger_costs,
)
from .perfdb import PerfDB, Regression, baseline_key, check_rows, load_baseline, write_baseline
from .metrics import MetricsRegistry, parse_openmetrics, render_openmetrics
from .render import render_hit_ratio_series, render_perf_history, sparkline
from .dash import DashData, WorkloadPanel, render_dashboard

__all__ = [
    "DecisionLedger",
    "SegmentRecord",
    "Verdict",
    "Span",
    "Tracer",
    "assemble_tree",
    "format_traceparent",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "set_tracer",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "to_chrome",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "CycleProfile",
    "CycleProfiler",
    "ProfileNode",
    "SegmentAttribution",
    "ledger_costs",
    "PerfDB",
    "Regression",
    "baseline_key",
    "check_rows",
    "load_baseline",
    "write_baseline",
    "MetricsRegistry",
    "parse_openmetrics",
    "render_openmetrics",
    "render_hit_ratio_series",
    "render_perf_history",
    "sparkline",
    "DashData",
    "WorkloadPanel",
    "render_dashboard",
]

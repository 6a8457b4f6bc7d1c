"""The ``repro dash`` static-HTML dashboard renderer.

One self-contained HTML file aggregating everything the observability
layer knows about a set of workload runs: the live metrics registry
(as an embedded OpenMetrics exposition), the decision ledger's verdicts,
the cycle-attribution tree and the perf store's trend sparklines.  The
renderer is *pure* — :func:`render_dashboard`
maps a :class:`DashData` value to a string, with no clocks, no I/O and
no iteration-order dependence — so the output is golden-file pinned
(``tests/obs/test_dash.py``); :mod:`repro.experiments.dash` does the
measuring and assembles the data.

Monospace telemetry (tables, attribution trees, sparklines) is embedded
as ``<pre>`` blocks using the same renderers as the CLI reports
(:mod:`repro.obs.render`), so the dashboard and the terminal always
agree.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field

from .annotate import ANNOTATE_CSS

__all__ = ["DashData", "WorkloadPanel", "render_dashboard", "write_dashboard"]


@dataclass
class WorkloadPanel:
    """Everything the dashboard shows for one measured configuration.

    All ``*_text`` fields are pre-rendered monospace blocks (empty
    string hides the block)."""

    key: str                      # workload@opt@variant
    cycles: int
    seconds: float
    energy_joules: float
    output_checksum: int
    table_text: str = ""          # reuse-table telemetry table
    hit_ratio_text: str = ""      # sampled hit-ratio sparklines
    governor_text: str = ""       # governor state + transitions
    ledger_text: str = ""         # decision ledger verdict table
    measured_vs_ledger: str = ""  # profiler est-vs-measured table
    profile_text: str = ""        # cycle attribution tree
    history_text: str = ""        # perf-store trend (sparkline)
    annotate_html: str = ""       # annotated-source fragment (pre-rendered HTML)


@dataclass
class DashData:
    """Input of :func:`render_dashboard`."""

    title: str
    generated: str                # caller-supplied timestamp text ("" to omit)
    metrics_text: str             # OpenMetrics exposition of the registry
    session_text: str = ""        # session run-latency quantiles (p50/p90/p99)
    service_text: str = ""        # loadgen report block (BENCH_service.json)
    slowest_text: str = ""        # slowest requests joined to span trees
    panels: list[WorkloadPanel] = field(default_factory=list)


_CSS = """\
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       background: #fafafa; color: #1a1a1a; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a1a; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: .95rem; margin-bottom: .2rem; }
table.summary { border-collapse: collapse; margin: 1rem 0; }
table.summary th, table.summary td { border: 1px solid #bbb; padding: .3rem .6rem;
       text-align: left; font-size: .9rem; }
table.summary th { background: #eee; }
pre { background: #fff; border: 1px solid #ddd; padding: .6rem; overflow-x: auto;
      font-size: .8rem; line-height: 1.25; }
.meta { color: #666; font-size: .8rem; }
details > summary { cursor: pointer; font-weight: 600; margin-top: 1.5rem; }
details.annotate > summary { margin-top: .6rem; font-weight: 600; }
details.annotate { background: #fff; border: 1px solid #ddd; padding: .6rem; }
""" + ANNOTATE_CSS


def _e(text) -> str:
    return html.escape(str(text), quote=True)


def _pre_block(title: str, text: str) -> list[str]:
    if not text:
        return []
    return [f"<h3>{_e(title)}</h3>", f"<pre>{_e(text)}</pre>"]


def render_dashboard(data: DashData) -> str:
    """Deterministic HTML for a :class:`DashData`; same input, same
    bytes (the golden-file property)."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{_e(data.title)}</title>",
        f"<style>{_CSS}</style>",
        "</head>",
        "<body>",
        f"<h1>{_e(data.title)}</h1>",
    ]
    if data.generated:
        parts.append(f'<p class="meta">generated: {_e(data.generated)}</p>')

    # summary table over all panels
    rows = []
    for panel in data.panels:
        rows.append(
            "<tr>"
            f'<td><a href="#{_e(panel.key)}">{_e(panel.key)}</a></td>'
            f"<td>{panel.cycles}</td>"
            f"<td>{panel.seconds:.6f}</td>"
            f"<td>{panel.energy_joules:.4f}</td>"
            f"<td>{panel.output_checksum:#010x}</td>"
            "</tr>"
        )
    parts.append('<table class="summary">')
    parts.append(
        "<tr><th>Configuration</th><th>Cycles</th><th>Seconds</th>"
        "<th>Joules</th><th>Checksum</th></tr>"
    )
    parts.extend(rows)
    parts.append("</table>")

    for panel in data.panels:
        parts.append(f'<h2 id="{_e(panel.key)}">{_e(panel.key)}</h2>')
        parts.extend(_pre_block("Perf-store trend", panel.history_text))
        parts.extend(_pre_block("Reuse-table telemetry", panel.table_text))
        parts.extend(_pre_block("Hit-ratio series", panel.hit_ratio_text))
        parts.extend(_pre_block("Governor", panel.governor_text))
        parts.extend(_pre_block("Measured vs ledger", panel.measured_vs_ledger))
        parts.extend(_pre_block("Cycle attribution", panel.profile_text))
        parts.extend(_pre_block("Decision ledger", panel.ledger_text))
        if panel.annotate_html:
            # pre-rendered trusted fragment from obs.annotate — embedded
            # raw (escaping it would destroy the markup)
            parts.append('<details class="annotate">')
            parts.append("<summary>Annotated source (line-level cycles &amp; reuse)</summary>")
            parts.append(panel.annotate_html)
            parts.append("</details>")

    parts.extend(_pre_block("Session run latency", data.session_text))
    parts.extend(_pre_block("Service load test", data.service_text))
    parts.extend(_pre_block("Slowest requests (span trees)", data.slowest_text))
    if data.metrics_text:
        parts.append("<details>")
        parts.append("<summary>Metrics registry (OpenMetrics)</summary>")
        parts.append(f"<pre>{_e(data.metrics_text)}</pre>")
        parts.append("</details>")
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"


def write_dashboard(path: str, data: DashData) -> str:
    """Render and write the dashboard; returns ``path``."""
    text = render_dashboard(data)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path

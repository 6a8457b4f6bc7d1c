"""Golden-file test for the dashboard renderer.

``render_dashboard`` is a pure function, so its output is pinned
byte-for-byte.  To regenerate after an intentional renderer change::

    PYTHONPATH=src python tests/obs/test_dash.py

then review the diff of ``tests/obs/golden/dash.html``.
"""

from pathlib import Path

from repro.obs.dash import DashData, WorkloadPanel, render_dashboard

GOLDEN = Path(__file__).parent / "golden" / "dash.html"


def _sample_data() -> DashData:
    """A fixed DashData exercising every rendered element: empty and
    populated text blocks, characters that need HTML escaping."""
    clean = WorkloadPanel(
        key="UNEPIC@O0@static",
        cycles=5757080,
        seconds=0.027947,
        energy_joules=0.011458,
        output_checksum=0xC4C08DA2,
        table_text="Seg  Hits  Misses\n---  ----  ------\n3    5606  3394",
        hit_ratio_text="Hit-ratio over time\n  segment 3: |...===+++| final 62.3%",
        measured_vs_ledger="Seg  Est C  Meas C\n---  -----  ------\n3    120    118",
        profile_text="main 5757080cy\n  quan 3210000cy <reuse>",
        ledger_text='seg 3 quan: selected gain=42 "R*C - O > 0"',
        history_text="Perf history for UNEPIC@O0@static (3 runs)\ntrend |===| latest 5757080",
        annotate_html=(
            '<section data-panel="UNEPIC-O0" data-backend="closures">\n'
            '<table class="annotate"><tr><th>line</th><th class="src">source</th>'
            "</tr><tr><td>4</td>"
            '<td class="src">let q = quan(x);'
            '<span class="marker">probe:s3</span></td></tr></table>\n'
            "</section>"
        ),
    )
    governed = WorkloadPanel(
        key="GNUGO@O3@governed",
        cycles=9000000,
        seconds=0.043689,
        energy_joules=0.017913,
        output_checksum=0x00000042,
        governor_text="segment 7: disabled after window 4 (gain < 0)",
    )
    bare = WorkloadPanel(
        key="ADPCM_decode@O0@static",
        cycles=400000,
        seconds=0.001942,
        energy_joules=0.000796,
        output_checksum=0x7F00FF01,
    )
    return DashData(
        title='repro dashboard <escape & check "quotes">',
        generated="2026-01-01 00:00:00 UTC",
        metrics_text=(
            "# TYPE repro_reuse_hits counter\n"
            'repro_reuse_hits_total{segment="3"} 5606\n'
            "# EOF\n"
        ),
        session_text=(
            "Session run latency (wall-clock, bucket-interpolated)\n"
            "  runs 3  p50 27.95ms  p90 43.69ms  p99 43.69ms  total 73.58ms"
        ),
        slowest_text=(
            "Slowest requests (8 traced runs, 0 orphan spans)\n"
            "\n"
            "  trace deadbeef  workload=G721_encode  tenant=t0  status=200"
            "  server 215.7ms  (3 spans, 1 events)\n"
            "    http.request  215.72ms  [service]  method=POST path=/v1/run\n"
            "      session.run  201.94ms  [api]  backend=closures opt=O0\n"
            "        machine.run  28.39ms  [api]  cycles=107683 entry=main"
        ),
        panels=[clean, governed, bare],
    )


def test_dashboard_matches_golden():
    rendered = render_dashboard(_sample_data())
    assert GOLDEN.exists(), "golden file missing; run this file as a script"
    assert rendered == GOLDEN.read_text(encoding="utf-8")


def test_render_is_deterministic():
    assert render_dashboard(_sample_data()) == render_dashboard(_sample_data())


def test_escaping_and_structure():
    html = render_dashboard(_sample_data())
    assert "&lt;escape &amp; check &quot;quotes&quot;&gt;" in html
    assert "<script" not in html.lower()
    # every panel is linked from the summary table and anchored
    for key in ("UNEPIC@O0@static", "GNUGO@O3@governed", "ADPCM_decode@O0@static"):
        assert f'href="#{key}"' in html
        assert f'id="{key}"' in html
    assert html.count("<pre>") == html.count("</pre>")
    # the annotate fragment is embedded raw (markers survive unescaped),
    # and the session-latency quantile block is rendered
    assert '<span class="marker">probe:s3</span>' in html
    assert "Session run latency" in html
    # the slowest-request join panel renders its span tree as monospace
    assert "Slowest requests (span trees)" in html
    assert "http.request  215.72ms  [service]" in html


def test_empty_blocks_are_omitted():
    html = render_dashboard(_sample_data())
    # the governed panel has no table/profile text: its section renders
    # the governor block only
    section = html.split('id="GNUGO@O3@governed"')[1].split("<h2")[0]
    assert "Governor" in section
    assert "Cycle attribution" not in section


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render_dashboard(_sample_data()), encoding="utf-8")
    print(f"regenerated {GOLDEN}")

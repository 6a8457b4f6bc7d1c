"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};

static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 6; i++)
        r += tab[i] * ((v + i) & 31) + v % (i + 2);
    return r;
}

int main(void) {
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestRun:
    def test_run_prints_metrics(self, program_file, capsys):
        rc = main(["run", program_file, "--inputs", "1,2,3,1,2,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycles:" in out
        assert "energy:" in out
        assert "checksum" in out

    def test_run_o3_fewer_cycles(self, program_file, capsys):
        main(["run", program_file, "--inputs", "1,2,3"])
        o0 = capsys.readouterr().out
        main(["run", program_file, "--opt", "O3", "--inputs", "1,2,3"])
        o3 = capsys.readouterr().out
        cycles0 = int(o0.split("cycles: ")[1].split()[0])
        cycles3 = int(o3.split("cycles: ")[1].split()[0])
        assert cycles3 < cycles0

    def test_inputs_file(self, program_file, tmp_path, capsys):
        stream = tmp_path / "inputs.txt"
        stream.write_text("4 5 6 4 5 6")
        rc = main(["run", program_file, "--inputs-file", str(stream)])
        assert rc == 0
        assert "output: 1 values" in capsys.readouterr().out


class TestTransform:
    def test_transform_prints_source_and_speedup(self, program_file, capsys):
        inputs = ",".join(["7", "9", "7", "9"] * 30)
        rc = main(["transform", program_file, "--inputs", inputs, "--min-executions", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "__reuse_probe" in out
        assert "speedup:" in out
        assert "outputs match: True" in out

    def test_no_measure(self, program_file, capsys):
        inputs = ",".join(["7", "9"] * 40)
        rc = main(
            [
                "transform",
                program_file,
                "--inputs",
                inputs,
                "--min-executions",
                "8",
                "--no-measure",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" not in out


class TestWorkloads:
    def test_lists_all_fourteen(self, capsys):
        rc = main(["workloads"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[primary]") == 7
        assert out.count("[variant]") == 7
        assert "GNUGO" in out


class TestReport:
    def test_table3_for_one_workload(self, capsys):
        rc = main(["report", "--table", "3", "--workload", "RASTA"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 3" in out
        assert "RASTA" in out

    def test_missing_selector_errors(self, capsys):
        rc = main(["report"])
        assert rc == 2


class TestTrace:
    def test_trace_emits_chrome_jsonl_and_ledger(self, program_file, tmp_path, capsys):
        import json

        inputs = ",".join(["7", "9", "7", "9"] * 30)
        rc = main(
            [
                "trace", program_file,
                "--inputs", inputs,
                "--min-executions", "8",
                "--out-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # the printed ledger table names every candidate's fate
        assert "Segment" in out and "Stage" in out

        with open(tmp_path / "prog.trace.json") as f:
            chrome = json.load(f)
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"pipeline.run", "pipeline.prefilter", "profile.freq",
                "profile.value", "pipeline.transform"} <= names
        assert {e["ph"] for e in chrome["traceEvents"]} <= {"X", "i", "M"}

        with open(tmp_path / "prog.trace.jsonl") as f:
            docs = [json.loads(line) for line in f]
        assert any(d["type"] == "span" for d in docs)

        with open(tmp_path / "prog.ledger.json") as f:
            ledger = json.load(f)
        for seg in ledger["segments"]:
            if seg["selected"]:
                continue
            # every non-selected candidate has a rejecting verdict that
            # names the stage and carries a margin or a reason
            rejecting = [v for v in seg["verdicts"] if not v["passed"]]
            assert rejecting, f"segment {seg['seg_id']} has no rejection"
            v = rejecting[0]
            assert v["stage"]
            assert v["margin"] is not None or v["detail"].get("reason")

    def test_trace_why_query(self, program_file, tmp_path, capsys):
        inputs = ",".join(["7", "9"] * 40)
        rc = main(
            [
                "trace", program_file,
                "--inputs", inputs,
                "--min-executions", "8",
                "--out-dir", str(tmp_path),
                "--why", "kernel@anything",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel#" in out
        assert "feasibility" in out

    def test_trace_does_not_leak_process_tracer(self, program_file, tmp_path):
        from repro.obs import get_tracer

        inputs = ",".join(["7", "9"] * 20)
        main(["trace", program_file, "--inputs", inputs,
              "--min-executions", "8", "--out-dir", str(tmp_path)])
        assert get_tracer().enabled is False


class TestStats:
    def test_stats_for_file(self, program_file, capsys):
        inputs = ",".join(["7", "9", "7", "9"] * 30)
        rc = main(
            ["stats", program_file, "--inputs", inputs, "--min-executions", "8"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Reuse table telemetry" in out
        assert "EmptyMiss" in out and "Evictions" in out and "OccHWM" in out
        assert "Hit-ratio over time" in out

    def test_stats_for_workload(self, capsys):
        rc = main(["stats", "G721_encode"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Reuse table telemetry" in out

    def test_stats_nothing_transformed(self, tmp_path, capsys):
        path = tmp_path / "empty.c"
        path.write_text("int main(void) { return 0; }")
        rc = main(["stats", str(path)])
        assert rc == 1
        assert "nothing was transformed" in capsys.readouterr().out


class TestUnknownWorkloadHardening:
    """Every workload-taking command exits 2 (not a traceback) on an
    unknown name, and the error lists the registered workloads so the
    user can correct the spelling."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate", "NOSUCH"],
            ["disasm", "NOSUCH"],
            ["stats", "NOSUCH"],
            ["trace", "NOSUCH"],
            ["report", "--table", "3", "--workload", "NOSUCH"],
        ],
        ids=["annotate", "disasm", "stats", "trace", "report"],
    )
    def test_unknown_workload_exits_two_and_lists_names(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown workload 'NOSUCH'" in err
        # valid names are suggested in the message
        assert "UNEPIC" in err and "GNUGO" in err and "G721_encode" in err


class TestAnnotate:
    def test_annotate_workload_reconciles(self, capsys):
        rc = main(["annotate", "UNEPIC"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend: closures" in out
        # header shows cycles and attributed totals; they must agree
        header = out.splitlines()[1]
        cycles = int(header.split("cycles")[1].split()[0])
        attributed = int(header.split("attributed")[1].split()[0])
        assert cycles == attributed > 0
        assert "probe:s0" in out and "end:s0" in out
        assert "reuse sites" in out

    def test_annotate_both_backends_writes_html(self, tmp_path, capsys):
        html_path = tmp_path / "ann.html"
        rc = main(["annotate", "UNEPIC", "--backend", "both",
                   "--html", str(html_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend: closures" in out and "backend: vm" in out
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert 'data-backend="closures"' in html
        assert 'data-backend="vm"' in html
        assert "reproShow" in html

    def test_annotate_file_target(self, program_file, capsys):
        inputs = ",".join(["7", "9", "7", "9"] * 30)
        rc = main(["annotate", program_file, "--inputs", inputs,
                   "--min-executions", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel" in out


class TestDisasm:
    def test_disasm_workload_interleaves_source(self, capsys):
        rc = main(["disasm", "UNEPIC"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "function collapse_pyr" in out
        assert "; line" in out          # source interleave comments
        assert "PROBE" in out           # reuse ops present by default
        assert "CHARGE" in out

    def test_disasm_no_reuse_has_no_probes(self, capsys):
        rc = main(["disasm", "UNEPIC", "--no-reuse"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PROBE" not in out
        assert "; line" in out


class TestStatsLatency:
    def test_stats_repeat_reports_quantiles(self, capsys):
        rc = main(["stats", "UNEPIC", "--repeat", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Session run latency" in out
        assert "runs 3" in out
        assert "p50" in out and "p90" in out and "p99" in out


class TestReportEndToEnd:
    def test_table4_counts(self, capsys):
        rc = main(["report", "--table", "4", "--workload", "RASTA"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 4" in out
        assert "RASTA" in out

    def test_table6_speedups(self, capsys):
        rc = main(["report", "--table", "6", "--workload", "G721_encode"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 6" in out
        assert "Harmonic Mean" in out


class TestPerfEndToEnd:
    """``repro perf record|check|report`` against a temp store/baseline.

    One workload (UNEPIC) keeps the measuring cheap; the record fixture
    runs once per module and the gate is exercised clean and with an
    injected regression (a tampered baseline row).
    """

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("perf")
        baseline = root / "baseline.json"
        db = root / "store"
        rc = main([
            "perf", "record", "--workload", "UNEPIC",
            "--db", str(db), "--update-baseline", "--baseline", str(baseline),
        ])
        assert rc == 0
        return baseline, db

    def test_record_writes_store_and_baseline(self, recorded):
        import json

        baseline, db = recorded
        doc = json.loads(baseline.read_text())
        assert "UNEPIC@O0@static" in doc["rows"]
        lines = (db / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["segments"], "rows carry the per-segment attribution"

    def test_check_clean_exits_zero(self, recorded, capsys):
        baseline, _ = recorded
        rc = main(["perf", "check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: 1 row(s)" in out

    def test_check_injected_regression_exits_nonzero(
        self, recorded, tmp_path, capsys
    ):
        import json

        baseline, _ = recorded
        doc = json.loads(baseline.read_text())
        doc["rows"]["UNEPIC@O0@static"]["cycles"] -= 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        rc = main(["perf", "check", "--baseline", str(tampered)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "exceeds baseline" in out

    def test_check_unmatched_subset_exits_two(self, recorded, capsys):
        baseline, _ = recorded
        rc = main([
            "perf", "check", "--baseline", str(baseline),
            "--workload", "GNUGO",
        ])
        capsys.readouterr()
        assert rc == 2

    def test_report_prints_ledger_tree_and_flamegraph(self, tmp_path, capsys):
        folded = tmp_path / "unepic.folded"
        rc = main(["perf", "report", "UNEPIC", "--flamegraph", str(folded)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Measured vs ledger" in out
        assert "Cycle attribution" in out
        assert "seg:0" in out
        assert folded.read_text().startswith("run ")


class TestDashCommand:
    def test_dash_writes_self_contained_html(self, tmp_path, capsys):
        out_path = tmp_path / "dash.html"
        rc = main([
            "dash", "--workload", "UNEPIC",
            "--db", str(tmp_path / "nostore"), "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dashboard written" in out
        html = out_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "UNEPIC@O0@static" in html
        assert "repro_machine_cycles" in html  # embedded OpenMetrics
        assert "Cycle attribution" in html
        # the annotated-source panel and the session-latency block ride along
        assert "Annotated source" in html
        assert 'data-backend="closures"' in html and 'data-backend="vm"' in html
        assert "Session run latency" in html

"""Golden-file tests for the JSONL and Chrome trace exporters.

The tracer takes injected clocks and pid, so the export output is
byte-deterministic; the goldens under ``tests/obs/golden/`` are the
contract.  Regenerate them by running this file as a script:

    PYTHONPATH=src python tests/obs/test_export.py
"""

import json
from pathlib import Path

from repro.obs import Span, Tracer, to_chrome, to_jsonl, write_chrome_trace, write_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"


class StepClock:
    """Returns 100.0, 100.001, 100.002, ... — one ms per reading."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        value = 100.0 + self.reads * 0.001
        self.reads += 1
        return value


def build_tracer() -> Tracer:
    clock = StepClock()
    tracer = Tracer(enabled=True, clock=clock, wall=clock, pid=7)
    with tracer.span("pipeline.run", opt="O0"):
        with tracer.span("pipeline.prefilter", candidates=3):
            pass
        tracer.event("cache.hit", category="cache", kind="run", key="abc123")
        with tracer.span("profile.freq", category="profiling"):
            pass
    # a span from a second pid under the root, so the Chrome export
    # carries two process lanes
    tracer.spans.append(
        Span(
            span_id=4,
            parent_id=1,
            name="run.original",
            category="experiment",
            start_us=100_000_000,
            dur_us=1000,
            pid=8,
            args={"workload": "RASTA"},
        )
    )
    return tracer


class TestJsonl:
    def test_matches_golden(self):
        expected = (GOLDEN_DIR / "trace.jsonl").read_text()
        assert to_jsonl(build_tracer()) == expected

    def test_one_json_doc_per_line(self):
        lines = to_jsonl(build_tracer()).splitlines()
        docs = [json.loads(line) for line in lines]
        assert {d["type"] for d in docs} == {"span", "event"}

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(build_tracer(), path)
        assert path.read_text() == (GOLDEN_DIR / "trace.jsonl").read_text()

    def test_empty_tracer_yields_empty_text(self):
        assert to_jsonl(Tracer(enabled=True)) == ""


class TestChrome:
    def test_matches_golden(self):
        expected = json.loads((GOLDEN_DIR / "trace.chrome.json").read_text())
        assert to_chrome(build_tracer()) == expected

    def test_write_chrome_trace_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        write_chrome_trace(build_tracer(), path)
        assert path.read_text() == (GOLDEN_DIR / "trace.chrome.json").read_text()

    def test_document_is_valid_trace_event_format(self):
        doc = to_chrome(build_tracer())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["ts"], int)
                assert isinstance(event["dur"], int)
            if event["ph"] == "i":
                assert event["s"] == "p"

    def test_metadata_names_every_pid(self):
        doc = to_chrome(build_tracer())
        meta_pids = {
            e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        all_pids = {e["pid"] for e in doc["traceEvents"]}
        assert meta_pids == all_pids == {7, 8}


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    tracer = build_tracer()
    write_jsonl(tracer, GOLDEN_DIR / "trace.jsonl")
    write_chrome_trace(tracer, GOLDEN_DIR / "trace.chrome.json")
    print(f"wrote goldens under {GOLDEN_DIR}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()

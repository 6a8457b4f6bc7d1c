"""Edge cases for the trace exporters.

The golden tests (``test_export.py``) pin the happy path byte-for-byte;
these pin the corners: exporting an empty trace, and the ordering of
spans and events that carry several pids.
"""

import json

from repro.obs import Tracer, to_chrome, to_jsonl


class StepClock:
    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        value = 100.0 + self.reads * 0.001
        self.reads += 1
        return value


def _multi_pid_tracer() -> Tracer:
    """A span on pid 1, then a nested pair of spans and an event on each
    of pids 10 and 11."""
    tracer = Tracer(enabled=True, clock=StepClock(), wall=StepClock(), pid=1)
    with tracer.span("experiment.run"):
        pass
    for i in range(2):
        with tracer.span("run.original", workload=f"W{i}") as outer:
            with tracer.span("machine.execute") as inner:
                pass
        tracer.event("cache.miss", category="cache", index=i)
        outer.pid = inner.pid = tracer.events[-1]["pid"] = 10 + i
    return tracer


class TestEmptyTrace:
    def test_jsonl_is_empty_string(self):
        assert to_jsonl(Tracer(enabled=True)) == ""

    def test_chrome_has_no_events_and_no_metadata(self):
        doc = to_chrome(Tracer(enabled=True))
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_disabled_tracer_exports_empty(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            tracer.event("also.ignored")
        assert to_jsonl(tracer) == ""
        assert to_chrome(tracer)["traceEvents"] == []


class TestMultiPidTrace:
    def test_chrome_export_keeps_span_order_and_pids(self):
        doc = to_chrome(_multi_pid_tracer())
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # metadata first, one per pid, sorted
        assert events[: len(metadata)] == metadata
        assert [m["pid"] for m in metadata] == [1, 10, 11]
        # spans follow tracer order; the pid distinguishes lanes in the UI
        assert [s["name"] for s in spans] == [
            "experiment.run",
            "run.original", "machine.execute",
            "run.original", "machine.execute",
        ]
        assert [s["pid"] for s in spans] == [1, 10, 10, 11, 11]

    def test_events_follow_spans_in_jsonl(self):
        lines = to_jsonl(_multi_pid_tracer()).splitlines()
        docs = [json.loads(line) for line in lines]
        kinds = [d["type"] for d in docs]
        # spans first (in start order), then events
        assert kinds == sorted(kinds, key=lambda k: k != "span")
        events = [d for d in docs if d["type"] == "event"]
        assert [e["name"] for e in events] == ["cache.miss", "cache.miss"]

"""Tests for the structured tracer (spans, events, serialization)."""

import threading

import pytest

from repro.obs import Span, Tracer, get_tracer, set_tracer
from repro.obs.tracer import (
    _NULL_SPAN,
    assemble_tree,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.runtime.machine import Machine


class FakeClock:
    """Deterministic monotonic + wall clocks for exact timing assertions."""

    def __init__(self, start: float = 1000.0, step: float = 0.001) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_tracer(**kwargs) -> Tracer:
    clock = FakeClock()
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("wall", clock)
    kwargs.setdefault("pid", 42)
    kwargs.setdefault("enabled", True)
    return Tracer(**kwargs)


class TestDisabledTracer:
    def test_span_returns_shared_null_context(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b", category="x", foo=1) is _NULL_SPAN

    def test_null_span_enters_as_none(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as span:
            assert span is None
        assert tracer.spans == []

    def test_event_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.event("cache.hit", key="k")
        assert tracer.events == []


class TestSpans:
    def test_nesting_sets_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_sibling_spans_share_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_duration_from_injected_clock(self):
        tracer = make_tracer()
        with tracer.span("timed") as span:
            pass
        # FakeClock advances 1 ms per read; enter + exit = one step apart
        # (float subtraction may round one microsecond down)
        assert span.dur_us in (999, 1000)

    def test_span_args_recorded(self):
        tracer = make_tracer()
        with tracer.span("s", category="c", workload="RASTA", n=3) as span:
            span.args["late"] = True
        assert span.category == "c"
        assert span.args["workload"] == "RASTA"
        assert span.args["n"] == 3
        assert span.args["late"] is True

    def test_machine_cycle_attribution(self):
        tracer = make_tracer()
        machine = Machine("O0")
        with tracer.span("work", machine=machine) as span:
            machine.counters[0] += 10  # charge some ALU ops
        assert span.args["cycles_begin"] == 0
        assert span.args["cycles"] == machine.cycles
        assert span.args["cycles"] > 0

    def test_exception_recorded_and_propagated(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("no")
        assert span.args["error"] == "ValueError"
        assert tracer._stack == []

    def test_event_parented_to_open_span(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            tracer.event("cache.hit", category="cache", key="k")
        (event,) = tracer.events
        assert event["parent_id"] == outer.span_id
        assert event["args"] == {"key": "k"}


class TestTransport:
    def test_serialize_round_trip(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick")
        payload = tracer.serialize()
        assert [s["name"] for s in payload["spans"]] == ["outer", "inner"]
        assert payload["events"][0]["name"] == "tick"


class TestProcessLocal:
    def test_set_tracer_returns_previous(self):
        mine = Tracer(enabled=True)
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(previous)

    def test_default_tracer_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        previous = set_tracer(None)
        try:
            assert get_tracer().enabled is False
        finally:
            set_tracer(previous)

    @pytest.mark.parametrize("value", ["0", "", "false", "off", "no", " 0 ", "FALSE"])
    def test_falsy_env_values_leave_tracing_disabled(self, monkeypatch, value):
        # "REPRO_TRACE=0" must mean off, not "set, therefore on"
        monkeypatch.setenv("REPRO_TRACE", value)
        previous = set_tracer(None)
        try:
            assert get_tracer().enabled is False
        finally:
            set_tracer(previous)

    def test_clear_resets_ids(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []
        with tracer.span("b") as span:
            pass
        assert span.span_id == 1


class TestTraceparent:
    def test_round_trip(self):
        trace_id = new_trace_id()
        span_id = new_span_id()
        parsed = parse_traceparent(format_traceparent(trace_id, span_id))
        assert parsed == (trace_id, span_id)

    def test_ids_well_formed(self):
        assert len(new_trace_id()) == 32
        int(new_trace_id(), 16)  # pure hex
        assert 0 < new_span_id() < 2**64

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "not-a-traceparent",
            "00-abc-def-01",                                  # wrong lengths
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",        # all-zero trace
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",        # all-zero span
            "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",        # forbidden version
            "00-" + "x" * 32 + "-" + "2" * 16 + "-01",        # non-hex
            "00-" + "1" * 32 + "-" + "2" * 16,                # missing flags
        ],
    )
    def test_malformed_means_untraced(self, value):
        assert parse_traceparent(value) is None

    def test_case_and_whitespace_tolerated(self):
        header = "  00-" + "A" * 32 + "-" + "B" * 16 + "-01  "
        parsed = parse_traceparent(header)
        assert parsed == ("a" * 32, int("b" * 16, 16))


class TestTraceContext:
    def test_spans_stamped_with_trace_id(self):
        tracer = make_tracer(trace_id="ab" * 16)
        with tracer.span("s"):
            tracer.event("e")
        assert tracer.spans[0].trace_id == "ab" * 16
        assert tracer.events[0]["trace_id"] == "ab" * 16
        assert tracer.spans[0].to_dict()["trace_id"] == "ab" * 16

    def test_remote_parent_adopts_roots(self):
        tracer = make_tracer(remote_parent=777)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tracer.event("loose")  # no open span: parented to the remote too
        assert tracer.spans[0].parent_id == 777
        assert tracer.spans[1].parent_id == tracer.spans[0].span_id
        assert tracer.events[0]["parent_id"] == 777

    def test_current_span_id_tracks_stack(self):
        tracer = make_tracer(remote_parent=777)
        assert tracer.current_span_id() == 777
        with tracer.span("s") as span:
            assert tracer.current_span_id() == span.span_id
        assert tracer.current_span_id() == 777


class TestAssembleTree:
    def _payload(self):
        tracer = make_tracer(trace_id="cd" * 16, remote_parent=777)
        with tracer.span("http.request"):
            with tracer.span("session.run"):
                tracer.event("cache.hit")
            with tracer.span("machine.run"):
                pass
        return tracer.serialize()

    def test_full_reassembly(self):
        tree = assemble_tree(self._payload(), remote_parent=777)
        assert tree["trace_id"] == "cd" * 16
        assert tree["span_count"] == 3 and tree["event_count"] == 1
        assert tree["orphans"] == [] and tree["orphan_events"] == []
        (root,) = tree["roots"]
        assert root["name"] == "http.request"
        assert [c["name"] for c in root["children"]] == [
            "session.run", "machine.run",
        ]
        assert root["children"][0]["events"][0]["name"] == "cache.hit"

    def test_unknown_parent_is_orphan(self):
        payload = self._payload()
        payload["spans"][1]["parent_id"] = 999999  # sever session.run
        tree = assemble_tree(payload, remote_parent=777)
        assert [o["name"] for o in tree["orphans"]] == ["session.run"]
        # the event parented under the orphan still attaches to it
        assert tree["orphan_events"] == []

    def test_without_remote_parent_roots_become_orphans(self):
        # remote_parent undeclared: the root references an unseen parent
        tree = assemble_tree(self._payload())
        assert [o["name"] for o in tree["orphans"]] == ["http.request"]

    def test_empty_payload(self):
        tree = assemble_tree({"spans": [], "events": []})
        assert tree["roots"] == [] and tree["span_count"] == 0


class TestThreadLocalOverride:
    def test_override_is_per_thread(self):
        mine = Tracer(enabled=True, trace_id="ee" * 16)
        previous = set_tracer(mine)
        seen = {}
        try:
            def probe():
                seen["other"] = get_tracer()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert get_tracer() is mine
            # the other thread never sees this thread's override
            assert seen["other"] is not mine
        finally:
            set_tracer(previous)


class TestSpanDict:
    def test_to_dict_fields(self):
        span = Span(
            span_id=7, parent_id=3, name="n", category="c",
            start_us=123, dur_us=45, pid=9, args={"k": 1},
        )
        assert span.to_dict() == {
            "span_id": 7,
            "parent_id": 3,
            "name": "n",
            "category": "c",
            "start_us": 123,
            "dur_us": 45,
            "pid": 9,
            "args": {"k": 1},
        }

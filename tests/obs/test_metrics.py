"""Unit tests for the metrics registry and OpenMetrics exposition,
including end-to-end from a live Session."""

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    parse_openmetrics,
    render_openmetrics,
)


# -- families and children ---------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things", "Things.")
        c.inc()
        c.inc(2)
        assert c.labels().value == 3

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("repro_things").inc(-1)

    def test_labeled_children_are_memoized(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_things")
        a = fam.labels(segment="1")
        b = fam.labels(segment="1")
        assert a is b
        assert fam.labels(segment="2") is not a

    def test_label_names_fixed_by_first_call(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_things")
        fam.labels(segment="1")
        with pytest.raises(ConfigError):
            fam.labels(other="x")

    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_things", "Things.")
        assert reg.counter("repro_things") is a
        with pytest.raises(ConfigError):
            reg.gauge("repro_things")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("9bad")
        with pytest.raises(ConfigError):
            reg.counter("bad-name")
        fam = reg.counter("repro_ok")
        with pytest.raises(ConfigError):
            fam.labels(**{"bad-label": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_level")
        g.set(10.0)
        g.inc(2)
        g.dec(3)
        assert g.labels().value == 9.0


class TestHistogram:
    def test_observe_buckets_count_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        child = h.labels()
        assert child.count == 3
        assert child.sum == 55.5
        assert child.bucket_counts == [1, 2]  # cumulative; +Inf implied

    def test_default_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat")
        assert tuple(h.labels().bounds) == DEFAULT_BUCKETS

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("repro_lat", buckets=(10.0, 1.0))


# -- snapshots and deltas ----------------------------------------------------


def _filled_registry():
    reg = MetricsRegistry()
    reg.counter("repro_hits", "Hits.").labels(segment="1").inc(4)
    reg.counter("repro_hits").labels(segment="2").inc(1)
    reg.gauge("repro_occupancy", "Live entries.").labels(segment="1").set(7)
    reg.histogram("repro_cycles", "Cycles.", buckets=(100.0, 1000.0)).observe(250)
    return reg


class TestSnapshot:
    def test_snapshot_shape(self):
        snap = _filled_registry().snapshot()
        fams = snap["families"]
        assert fams["repro_hits"]["kind"] == "counter"
        assert {s["labels"]["segment"]: s["value"] for s in fams["repro_hits"]["samples"]} == {
            "1": 4,
            "2": 1,
        }
        hist = fams["repro_cycles"]["samples"][0]
        assert hist["count"] == 1
        assert hist["sum"] == 250
        assert hist["buckets"] == [[100.0, 0], [1000.0, 1]]

    def test_snapshot_is_detached(self):
        reg = _filled_registry()
        snap = reg.snapshot()
        reg.counter("repro_hits").labels(segment="1").inc(10)
        assert snap["families"]["repro_hits"]["samples"][0]["value"] == 4

    def test_delta_since(self):
        reg = _filled_registry()
        before = reg.snapshot()
        reg.counter("repro_hits").labels(segment="1").inc(6)
        reg.gauge("repro_occupancy").labels(segment="1").set(9)
        delta = reg.delta_since(before)
        fams = delta["families"]
        # only the changed child, diffed
        assert fams["repro_hits"]["samples"] == [
            {"labels": {"segment": "1"}, "value": 6}
        ]
        assert fams["repro_occupancy"]["samples"][0]["value"] == 9
        # untouched histogram dropped entirely
        assert "repro_cycles" not in fams

    def test_delta_since_none_is_full_snapshot(self):
        reg = _filled_registry()
        assert reg.delta_since(None) == reg.snapshot()


# -- OpenMetrics exposition --------------------------------------------------


class TestOpenMetrics:
    def test_render_is_deterministic_and_terminated(self):
        reg = _filled_registry()
        text = reg.render_openmetrics()
        assert text == reg.render_openmetrics()
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_hits counter" in text
        assert 'repro_hits_total{segment="1"} 4' in text
        assert 'repro_cycles_bucket{le="+Inf"} 1' in text

    def test_round_trip(self):
        snap = _filled_registry().snapshot()
        assert parse_openmetrics(render_openmetrics(snap)) == snap

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("repro_weird").labels(path='a"b\\c\nd').inc()
        snap = reg.snapshot()
        assert parse_openmetrics(render_openmetrics(snap)) == snap


# -- end to end --------------------------------------------------------------


class TestSessionMetrics:
    def test_live_session_end_to_end(self):
        import repro
        from repro.workloads import get_workload

        workload = get_workload("UNEPIC")
        with repro.Session(metrics=True) as session:
            session.run(workload.source, workload.default_inputs()[:512])
        fams = session.registry.snapshot()["families"]
        assert fams["repro_session_runs"]["samples"][0]["value"] == 1
        assert fams["repro_machine_cycles"]["samples"][0]["value"] > 0

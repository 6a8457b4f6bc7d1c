"""Live metrics registry with OpenMetrics exposition.

The tracer answers "what happened during this run"; the perf store
answers "how did runs change across commits".  This module answers the
deployment question in between: *what is the runtime doing right now?*
A :class:`MetricsRegistry` holds named metric families — Counter, Gauge,
Histogram — each fanning out into labeled children, and the runtime
publishes into it from two places, both handed the registry explicitly
(there is no process-wide registry):

* the :class:`~repro.runtime.machine.Machine`, once per run
  (probes/hits/misses/collisions/evictions/bypasses per segment, op
  tallies, cycles, and each governor's state transitions and last
  windowed gain — the view of R·C−O — read from the governor's state);
* the :class:`~repro.api.Session` facade (runs, wall time).

Design constraints, mirroring the rest of :mod:`repro.obs`:

1. **No registry, no cost.**  Metrics are no compile-time observer: a
   metered program's closures and bytecode are those of an un-metered
   one.  After a run ends, :meth:`~repro.runtime.machine.Machine.publish_metrics`
   copies the tallies the machine and its reuse tables already keep;
   lifetime table and governor counters go in by their growth since the
   table last published, so every probe is counted exactly once
   (enforced by ``tests/obs/test_metrics_differential.py``).
2. **Zero dependencies.**  The text format is OpenMetrics, hand-rolled
   and round-trip tested (:func:`render_openmetrics` /
   :func:`parse_openmetrics`); ``repro serve`` serves it at
   ``GET /metrics``.
3. **Atomic snapshots.**  Counter increments take a per-child lock, so
   concurrent publishers never lose an update; :meth:`MetricsRegistry.snapshot`
   takes the registry lock only to produce a consistent plain-dict copy, and
   :meth:`MetricsRegistry.delta_since` diffs two snapshots for
   incremental shipping.
"""

from __future__ import annotations

import re
import threading
from typing import Optional, Sequence

from ..errors import ConfigError

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "OPENMETRICS_CONTENT_TYPE",
    "render_openmetrics",
    "parse_openmetrics",
    "histogram_quantiles",
]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

# simulated-cycle scale: sub-thousand to hundreds of millions
DEFAULT_BUCKETS = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigError(f"invalid metric name {name!r}")
    return name


# -- children ----------------------------------------------------------------


class CounterChild:
    """One labeled monotone counter.  Increments hold a lock: runs that
    end on different threads publish into the same children."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict) -> None:
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ConfigError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class GaugeChild:
    """One labeled point-in-time value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict) -> None:
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class HistogramChild:
    """One labeled cumulative histogram (fixed upper bounds)."""

    __slots__ = ("labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, labels: dict, bounds: Sequence[float]) -> None:
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1


# -- families ----------------------------------------------------------------


class _Family:
    """A named metric with a fixed label-name set and labeled children.

    The first :meth:`labels` call fixes which label names the family
    takes (OpenMetrics forbids mixed label sets within a family);
    subsequent calls must match.  Children are memoized per label-value
    tuple, so hot paths resolve their child once and call ``inc`` on it.
    """

    kind = "untyped"
    _child_cls: type = CounterChild

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = lock
        self._label_names: Optional[tuple[str, ...]] = None
        self._children: dict[tuple, object] = {}

    def labels(self, **labels):
        key = tuple(sorted(labels.items()))
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            names = tuple(sorted(labels))
            for label in names:
                if not _LABEL_RE.match(label):
                    raise ConfigError(f"invalid label name {label!r}")
            if self._label_names is None:
                self._label_names = names
            elif names != self._label_names:
                raise ConfigError(
                    f"metric {self.name!r} takes labels {self._label_names}, "
                    f"got {names}"
                )
            child = self._make_child({k: str(v) for k, v in sorted(labels.items())})
            self._children[key] = child
            return child

    def _make_child(self, labels: dict):
        return self._child_cls(labels)

    # unlabeled convenience: a family used without labels has exactly one
    # child with the empty label set
    def _solo(self):
        return self.labels()


class Counter(_Family):
    kind = "counter"
    _child_cls = CounterChild

    def inc(self, amount=1) -> None:
        self._solo().inc(amount)


class Gauge(_Family):
    kind = "gauge"
    _child_cls = GaugeChild

    def set(self, value) -> None:
        self._solo().set(value)

    def inc(self, amount=1) -> None:
        self._solo().inc(amount)

    def dec(self, amount=1) -> None:
        self._solo().dec(amount)


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ConfigError(f"histogram buckets must be sorted and distinct: {buckets}")
        self.bounds = bounds

    def _make_child(self, labels: dict):
        return HistogramChild(labels, self.bounds)

    def observe(self, value) -> None:
        self._solo().observe(value)


_FAMILY_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# -- the registry ------------------------------------------------------------


class MetricsRegistry:
    """Process-embeddable metrics store: named families of labeled
    children, snapshottable atomically and renderable as OpenMetrics.

    Threading model: child mutation is a plain attribute add (atomic
    enough under the GIL for single-writer runtimes); family/child
    *creation* and :meth:`snapshot` serialize on one re-entrant lock so
    the exposition thread always reads a consistent view.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- family accessors (get-or-create) -----------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = Histogram(name, help, self._lock, buckets)
                    self._families[name] = family
        if not isinstance(family, Histogram):
            raise ConfigError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    def _family(self, cls: type, name: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help, self._lock)
                    self._families[name] = family
        if type(family) is not cls:
            raise ConfigError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent, JSON-safe copy of every family and child:
        ``{"families": {name: {"kind", "help", "samples": [...]}}}``.

        Counter/gauge samples are ``{"labels": {...}, "value": n}``;
        histogram samples carry cumulative ``buckets`` (pairs of
        ``[upper_bound, count]``, ``+Inf`` implied by ``count``), plus
        ``count`` and ``sum``."""
        with self._lock:
            families = {}
            for name in sorted(self._families):
                family = self._families[name]
                samples = []
                for key in sorted(family._children):
                    child = family._children[key]
                    if isinstance(child, HistogramChild):
                        samples.append(
                            {
                                "labels": dict(child.labels),
                                "buckets": [
                                    [bound, count]
                                    for bound, count in zip(
                                        child.bounds, child.bucket_counts
                                    )
                                ],
                                "count": child.count,
                                "sum": child.sum,
                            }
                        )
                    else:
                        samples.append(
                            {"labels": dict(child.labels), "value": child.value}
                        )
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            return {"families": families}

    def delta_since(self, previous: Optional[dict]) -> dict:
        """Snapshot-shaped diff against an earlier :meth:`snapshot`.

        Counters and histograms report the increase since ``previous``
        (samples with no change are dropped); gauges report their
        current value when it changed.  ``previous=None`` returns the
        full snapshot.  This is the streaming half of the registry: ship
        the delta, keep the snapshot as the new cursor."""
        current = self.snapshot()
        if previous is None:
            return current
        prev_families = previous.get("families", {})
        families = {}
        for name, family in current["families"].items():
            prev_samples = {
                _label_key(s["labels"]): s
                for s in prev_families.get(name, {}).get("samples", ())
            }
            kept = []
            for sample in family["samples"]:
                prev = prev_samples.get(_label_key(sample["labels"]))
                if family["kind"] == "gauge":
                    if prev is None or prev["value"] != sample["value"]:
                        kept.append(dict(sample))
                elif family["kind"] == "histogram":
                    base_count = prev["count"] if prev else 0
                    if sample["count"] != base_count:
                        prev_buckets = dict(prev["buckets"]) if prev else {}
                        kept.append(
                            {
                                "labels": dict(sample["labels"]),
                                "buckets": [
                                    [bound, count - prev_buckets.get(bound, 0)]
                                    for bound, count in sample["buckets"]
                                ],
                                "count": sample["count"] - base_count,
                                "sum": sample["sum"] - (prev["sum"] if prev else 0),
                            }
                        )
                else:
                    base = prev["value"] if prev else 0
                    if sample["value"] != base:
                        kept.append(
                            {
                                "labels": dict(sample["labels"]),
                                "value": sample["value"] - base,
                            }
                        )
            if kept:
                families[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "samples": kept,
                }
        return {"families": families}

    def render_openmetrics(self) -> str:
        return render_openmetrics(self.snapshot())


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def histogram_quantiles(sample: dict, quantiles: Sequence[float]) -> dict:
    """Estimate quantiles from one snapshot histogram sample.

    ``sample`` is the dict shape :meth:`MetricsRegistry.snapshot` emits
    for a histogram child (cumulative ``buckets`` as ``[bound, count]``
    pairs plus total ``count``).  Within the bucket holding the target
    rank the value is linearly interpolated between the bucket's bounds
    (the first bucket's lower edge is 0), the convention of Prometheus's
    ``histogram_quantile``; ranks that land in the implicit ``+Inf``
    bucket clamp to the highest finite bound.  Returns ``{q: value}``;
    an empty histogram yields 0.0 for every quantile.
    """
    buckets = [(float(b), int(c)) for b, c in sample.get("buckets", ())]
    count = sample.get("count", 0)
    out: dict = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if count == 0 or not buckets:
            out[q] = 0.0
            continue
        rank = q * count
        prev_bound, prev_cum = 0.0, 0
        for bound, cum in buckets:
            if cum >= rank:
                if cum == prev_cum:
                    out[q] = bound
                else:
                    frac = (rank - prev_cum) / (cum - prev_cum)
                    out[q] = prev_bound + (bound - prev_bound) * frac
                break
            prev_bound, prev_cum = bound, cum
        else:
            out[q] = buckets[-1][0]
    return out


# -- OpenMetrics text format -------------------------------------------------


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _label_str(labels: dict, extra: Optional[tuple] = None) -> str:
    items = sorted(labels.items())
    if extra is not None:
        items = items + [extra]
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{_escape(str(v))}"' for k, v in items) + "}"


def render_openmetrics(snapshot: dict) -> str:
    """Serialize a registry snapshot as OpenMetrics text.

    Counters get the mandated ``_total`` sample suffix; histograms emit
    cumulative ``_bucket{le=...}`` series (including ``+Inf``) plus
    ``_count`` and ``_sum``; the exposition ends with ``# EOF``.  Output
    is deterministic: families and label sets render sorted."""
    lines = []
    for name in sorted(snapshot.get("families", {})):
        family = snapshot["families"][name]
        kind = family["kind"]
        lines.append(f"# TYPE {name} {kind}")
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape(family['help'])}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "counter":
                lines.append(
                    f"{name}_total{_label_str(labels)} "
                    f"{_format_value(sample['value'])}"
                )
            elif kind == "histogram":
                for bound, count in sample["buckets"]:
                    le = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_label_str(labels, ('le', le))} {count}"
                    )
                lines.append(
                    f"{name}_bucket{_label_str(labels, ('le', '+Inf'))} "
                    f"{sample['count']}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_label_str(labels)} {_format_value(sample['sum'])}"
                )
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {_format_value(sample['value'])}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(text: Optional[str]) -> dict:
    if not text:
        return {}
    return {
        name: _unescape(raw) for name, raw in _LABEL_PAIR_RE.findall(text)
    }


def parse_openmetrics(text: str) -> dict:
    """Parse OpenMetrics text back into the snapshot dict shape.

    The inverse of :func:`render_openmetrics` over its own output (the
    round-trip is exact, which the line-format test pins); it also reads
    any plain Prometheus exposition of counters/gauges/histograms."""
    families: dict[str, dict] = {}
    kinds: dict[str, str] = {}
    histograms: dict[str, dict] = {}  # name -> label_key -> partial sample

    def family_for(name: str) -> dict:
        return families.setdefault(
            name, {"kind": kinds.get(name, "gauge"), "help": "", "samples": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            kinds[name] = kind
            family_for(name)["kind"] = kind
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family_for(name)["help"] = _unescape(help_text)
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ConfigError(f"unparseable exposition line: {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        raw_value = match.group("value")

        base = sample_name
        suffix = ""
        for candidate in ("_total", "_bucket", "_count", "_sum"):
            stem = sample_name[: -len(candidate)]
            if sample_name.endswith(candidate) and kinds.get(stem) in (
                "counter",
                "histogram",
            ):
                base, suffix = stem, candidate
                break
        kind = kinds.get(base, "gauge")

        if kind == "histogram":
            le = labels.pop("le", None)
            bucket = histograms.setdefault(base, {}).setdefault(
                _label_key(labels),
                {"labels": labels, "buckets": [], "count": 0, "sum": 0},
            )
            if suffix == "_bucket":
                if le != "+Inf":
                    bucket["buckets"].append(
                        [float(le), _parse_value(raw_value)]
                    )
            elif suffix == "_count":
                bucket["count"] = _parse_value(raw_value)
            elif suffix == "_sum":
                bucket["sum"] = _parse_value(raw_value)
            continue

        family = family_for(base)
        family["samples"].append(
            {"labels": labels, "value": _parse_value(raw_value)}
        )

    for name, by_labels in histograms.items():
        family = family_for(name)
        for key in sorted(by_labels):
            family["samples"].append(by_labels[key])
    return {"families": {name: families[name] for name in sorted(families)}}


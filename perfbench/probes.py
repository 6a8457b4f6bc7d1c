"""Per-layer measurement taken from outside the program.

:class:`LayerProbe` wraps public functions of the layers while it is
installed and counts what flows through them:

* ``runtime.jenkins.hash_key_words`` (calls and time; every table probe
  and the pipeline's collision-adjusted reuse rate hash through it);
* ``runtime.compiler.compile_program`` (calls, and a ``bench.codegen``
  tracer span that times it and is subtracted from the span it runs
  in);
* ``CompiledProgram.run`` (the operation tally, and reuse-table and
  governor telemetry of every run from its ``Metrics``);
* ``Session.run_program`` (marks runs whose tables persist across
  calls, so lifetime table counters are turned into per-run deltas).

Modules that imported a name directly (``from .jenkins import
hash_key_words``) are patched too.  Counters live per thread, because
the service runs requests on worker threads.

:func:`span_layers` turns the tracer spans the program already emits
(``pipeline.*``, ``profile.*``, ``session.run``, ``machine.run``) plus
the probe's ``bench.codegen`` spans into self times.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro import api
from repro.obs.tracer import get_tracer
from repro.reuse import pipeline as _pipeline
from repro.runtime import compiler as _compiler
from repro.runtime import hashtable as _hashtable
from repro.runtime import jenkins as _jenkins

CODEGEN_SPAN = "bench.codegen"

# the pipeline's own child spans; pipeline.untraced_s is what they miss
PIPELINE_CHILDREN = (
    "pipeline.analyze",
    "pipeline.specialize",
    "pipeline.prefilter",
    "pipeline.nesting",
    "pipeline.budget",
    "pipeline.transform",
    "profile.freq",
    "profile.value",
)

_COUNTERS = (
    "hash_calls",
    "hash_s",
    "codegen_calls",
    "ops",
    "probes",
    "hits",
    "collisions",
    "evictions",
    "transitions",
)
_TABLE_FIELDS = ("probes", "hits", "collisions", "evictions", "transitions")


def _table_totals(metrics) -> tuple:
    """Lifetime probe/hit/collision/eviction counts of a run's tables
    and the governor transitions so far."""
    probes = hits = collisions = evictions = 0
    for stats in metrics.table_stats.values():
        probes += stats.probes
        hits += stats.hits
        collisions += stats.collisions
        evictions += stats.evictions
    transitions = sum(len(snap["transitions"]) for snap in metrics.governor.values())
    return probes, hits, collisions, evictions, transitions


class LayerProbe:
    """Install with ``with LayerProbe() as probe:``; read :meth:`totals`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._last_tables: dict[int, tuple] = {}
        self._saved: list[tuple] = []

    # -- counters --------------------------------------------------------

    def _acc(self) -> dict:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = dict.fromkeys(_COUNTERS, 0)
            with self._lock:
                self._per_thread.append(acc)
            self._local.acc = acc
        return acc

    def totals(self) -> dict:
        with self._lock:
            threads = list(self._per_thread)
        out = dict.fromkeys(_COUNTERS, 0)
        for acc in threads:
            for key in _COUNTERS:
                out[key] += acc[key]
        return out

    # -- wrappers --------------------------------------------------------

    def _hash(self, original):
        clock = time.perf_counter

        def hash_key_words(words):
            start = clock()
            value = original(words)
            acc = self._acc()
            acc["hash_calls"] += 1
            acc["hash_s"] += clock() - start
            return value

        return hash_key_words

    def _codegen(self, original):
        def compile_program(program, machine):
            with get_tracer().span(CODEGEN_SPAN, category="bench"):
                compiled = original(program, machine)
            self._acc()["codegen_calls"] += 1
            return compiled

        return compile_program

    def _run(self, original):
        def run(program, *args, **kwargs):
            result = original(program, *args, **kwargs)
            self._record(program, result.metrics)
            return result

        return run

    def _run_program(self, original):
        def run_program(session, *args, **kwargs):
            self._local.session = True
            try:
                return original(session, *args, **kwargs)
            finally:
                self._local.session = False

        return run_program

    def _record(self, program, metrics) -> None:
        acc = self._acc()
        acc["ops"] += sum(metrics.counts.values())
        totals = _table_totals(metrics)
        if getattr(self._local, "session", False):
            # session tables persist: their counters are lifetime totals
            with self._lock:
                previous = self._last_tables.get(id(program), (0,) * len(totals))
                self._last_tables[id(program)] = totals
            totals = tuple(now - before for now, before in zip(totals, previous))
        for key, value in zip(_TABLE_FIELDS, totals):
            acc[key] += value

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "LayerProbe":
        hash_wrapper = self._hash(_jenkins.hash_key_words)
        codegen_wrapper = self._codegen(_compiler.compile_program)
        patches = [
            (_jenkins, "hash_key_words", hash_wrapper),
            (_hashtable, "hash_key_words", hash_wrapper),
            (_compiler, "compile_program", codegen_wrapper),
            (api, "compile_program", codegen_wrapper),
            (_pipeline, "compile_program", codegen_wrapper),
            (api.CompiledProgram, "run", self._run(api.CompiledProgram.run)),
            (api.Session, "run_program", self._run_program(api.Session.run_program)),
        ]
        for owner, name, wrapper in patches:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def _self_us(spans: list, children: dict, parent_names, child_names) -> int:
    """Σ over spans named in ``parent_names`` of their duration minus
    their direct children named in ``child_names``."""
    total = 0
    for span in spans:
        if span["name"] in parent_names:
            total += span["dur_us"] - sum(
                c["dur_us"] for c in children[span["span_id"]] if c["name"] in child_names
            )
    return total


def span_layers(spans: list) -> tuple[dict, list]:
    """Self times (seconds) and simulated cycles from span dicts
    (``Span.to_dict`` form), plus a list of accounting problems.

    Each parent is reconstructed exactly from its children and its self
    time: ``pipeline.run`` = its stage and profiling spans +
    ``pipeline.untraced``; ``session.run`` = ``machine.run`` +
    ``api.session_self``; ``machine.run`` = ``bench.codegen`` +
    ``runtime.exec``.
    """
    children: dict = defaultdict(list)
    by_id = {}
    total_us: dict = defaultdict(int)
    for span in spans:
        by_id[span["span_id"]] = span
        if span.get("parent_id") is not None:
            children[span["parent_id"]].append(span)
        total_us[span["name"]] += span["dur_us"]

    problems = []
    for span in spans:
        if span["name"] in PIPELINE_CHILDREN:
            parent = by_id.get(span.get("parent_id"))
            if parent is None or parent["name"] != "pipeline.run":
                problems.append(f"{span['name']} outside pipeline.run")
    untraced = _self_us(spans, children, ("pipeline.run",), PIPELINE_CHILDREN)
    staged = sum(
        c["dur_us"]
        for span in spans
        if span["name"] == "pipeline.run"
        for c in children[span["span_id"]]
        if c["name"] in PIPELINE_CHILDREN
    )
    if staged + untraced != total_us["pipeline.run"] or untraced < 0:
        problems.append("pipeline.run is not its stages plus pipeline.untraced")
    # a first run profiles lazily: pipeline.run is then a child too
    session_self = _self_us(spans, children, ("session.run",), ("machine.run", "pipeline.run"))
    exec_us = _self_us(spans, children, ("machine.run",), (CODEGEN_SPAN,))
    for name, value in (("api.session_self", session_self), ("runtime.exec", exec_us)):
        if value < 0:
            problems.append(f"{name} is negative")

    layers = {
        f"{name}_s": total_us[name] / 1e6
        for name in (
            "pipeline.analyze",
            "pipeline.specialize",
            "pipeline.prefilter",
            "pipeline.nesting",
            "pipeline.budget",
            "pipeline.transform",
            "profile.freq",
            "profile.value",
            "pipeline.run",
            "session.run",
            "machine.run",
        )
    }
    layers["pipeline.untraced_s"] = untraced / 1e6
    if total_us["session.run"]:
        layers["api.session_self_s"] = session_self / 1e6
    layers["runtime.exec_s"] = exec_us / 1e6
    layers["runtime.codegen_s"] = total_us[CODEGEN_SPAN] / 1e6
    layers["profile.cycles"] = sum(
        span["args"].get("cycles", 0)
        for span in spans
        if span["name"] in ("profile.freq", "profile.value")
    )
    return layers, problems

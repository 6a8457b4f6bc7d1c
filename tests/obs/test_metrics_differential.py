"""The metrics registry must be a pure observer that counts exactly.

Metrics are published once per run, after it ends, from the tallies the
machine and its reuse tables already keep
(:meth:`~repro.runtime.machine.Machine.publish_metrics`).  Lifetime table
and governor counters go in by their growth since the table last
published (the table's publish cursor).  Checked here:

* **Zero observer effect** — for every registered workload at O0 and O3
  with static and governed tables, a cold and a warm run on shared
  tables produce bit-identical :class:`Metrics` whether or not each run
  is published into a registry.
* **Exact reconciliation** — after those runs the registry's counters
  equal the machine's own accounting: every per-segment table and
  governor counter equals the tables' lifetime statistics, the cycle
  counter the sum of ``Metrics.cycles``.
* **Shared segment ids** — two programs with the same segment ids in one
  metered session publish into the same labeled counters, which must
  read the sum of both programs' tables.
* **Concurrent runs** — threads running one program on its shared tables
  publish every probe exactly once, and two metered programs running on
  two threads each publish their governor transitions into their own
  registry only.
"""

import copy
import sys
import threading
from collections import Counter

import pytest

import repro
from repro.experiments.adaptive import workload_config
from repro.minic.sema import analyze
from repro.obs.metrics import MetricsRegistry
from repro.opt.pipeline import optimize
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime.compiler import compile_program
from repro.runtime.governor import GovernorPolicy
from repro.runtime.machine import Machine
from repro.workloads import get_workload
from repro.workloads.registry import ALL_WORKLOADS

# Same prefix trick as the other differentials: every workload polls
# __input_avail, so a prefix keeps the full sweep fast.
_INPUT_PREFIX = 1024

# registry family -> TableStats field
_TABLE_FAMILIES = {
    "repro_reuse_probes": "probes",
    "repro_reuse_hits": "hits",
    "repro_reuse_misses": "misses",
    "repro_reuse_collisions": "collisions",
    "repro_reuse_empty_misses": "empty_misses",
    "repro_reuse_evictions": "evictions",
}
# registry family -> governor snapshot field
_GOVERNOR_FAMILIES = {
    "repro_reuse_bypassed": "bypassed_executions",
    "repro_governor_disables": "disables",
    "repro_governor_reenables": "reenables",
    "repro_governor_resizes": "resizes",
    "repro_governor_flushes": "flushes",
    "repro_governor_bypassed": "bypassed_executions",
}

_cache: dict[str, tuple] = {}


def _pipeline(workload):
    if workload.name not in _cache:
        inputs = workload.default_inputs()[:_INPUT_PREFIX]
        config = PipelineConfig(
            min_executions=workload.min_executions,
            memory_budget_bytes=workload.memory_budget_bytes,
            governor=workload.governor or GovernorPolicy(),
        )
        result = ReusePipeline(workload.source, config).run(inputs)
        _cache[workload.name] = (result, inputs)
    return _cache[workload.name]


def _measure(result, opt_level, inputs, governed, registry, runs=2):
    """``runs`` runs of one compiled program on one table set (the first
    cold, the rest warm), each published into ``registry`` when given."""
    program = copy.deepcopy(result.program)
    analyze(program)
    optimize(program, opt_level)
    machine = Machine(opt_level)
    tables = result.build_tables(governed=governed)
    compiled = compile_program(program, machine)
    measured = []
    for _ in range(runs):
        machine.rearm(list(inputs), tables)
        compiled.run("main")
        measured.append(machine.metrics())
        if registry is not None:
            machine.publish_metrics(registry)
    return measured


def _family_totals(snapshot, name):
    """Per-segment values of a counter family, summed over other labels."""
    family = snapshot["families"].get(name)
    if family is None:
        return {}
    totals: dict = {}
    for sample in family["samples"]:
        segment = sample["labels"].get("segment")
        totals[segment] = totals.get(segment, 0) + sample["value"]
    return totals


def _assert_registry_sums(snapshot, lifetimes):
    """Every table and governor counter of ``snapshot`` equals the sum,
    per segment, over ``lifetimes`` — one final ``Metrics`` per table set."""
    for family, field_name in _TABLE_FAMILIES.items():
        expected: dict = {}
        for metrics in lifetimes:
            for seg_id, stats in metrics.table_stats.items():
                label = str(seg_id)
                expected[label] = expected.get(label, 0) + getattr(stats, field_name)
        assert _family_totals(snapshot, family) == expected, family
    governed = any(metrics.governor for metrics in lifetimes)
    for family, field_name in _GOVERNOR_FAMILIES.items():
        expected = {}
        for metrics in lifetimes:
            for seg_id, snap in metrics.governor.items():
                label = str(seg_id)
                expected[label] = expected.get(label, 0) + snap[field_name]
        assert _family_totals(snapshot, family) == expected, family
        assert (family in snapshot["families"]) == governed, family


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_no_observer_effect(workload, opt_level, governed):
    result, inputs = _pipeline(workload)
    plain = _measure(result, opt_level, inputs, governed, registry=None)
    metered = _measure(result, opt_level, inputs, governed, MetricsRegistry())
    # Metrics equality covers counters, cycles, seconds, joules, checksum,
    # per-segment TableStats (incl. sampled series), governor telemetry —
    # for the cold run and the warm one on the same tables.
    assert plain == metered


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_counters_reconcile_exactly(workload, opt_level, governed):
    result, inputs = _pipeline(workload)
    registry = MetricsRegistry()
    runs = _measure(result, opt_level, inputs, governed, registry)
    snap = registry.snapshot()
    lifetime = runs[-1]  # the tables were shared: the last run's stats are lifetime

    hits = _family_totals(snap, "repro_reuse_hits")
    misses = _family_totals(snap, "repro_reuse_misses")
    for seg_id, stats in lifetime.table_stats.items():
        label = str(seg_id)
        assert hits.get(label, 0) == stats.hits, f"segment {seg_id} hits"
        assert misses.get(label, 0) == stats.misses, f"segment {seg_id} misses"

    cycles = snap["families"]["repro_machine_cycles"]["samples"][0]["value"]
    assert cycles == sum(run.cycles for run in runs)

    if governed:
        bypassed = sum(_family_totals(snap, "repro_reuse_bypassed").values())
        total_bypassed = sum(
            s["bypassed_executions"] for s in lifetime.governor.values()
        )
        assert bypassed == total_bypassed

    _assert_registry_sums(snap, [lifetime])


def _session_options(workload, opt, governed, profile_inputs):
    return repro.CompileOptions(
        opt=opt,
        config=workload_config(workload),
        governed=governed,
        profile_inputs=profile_inputs,
    )


@pytest.mark.parametrize(
    "name, governed, stream",
    [
        ("GNUGO", False, "default"),
        ("GNUGO", True, "default"),
        # the shifted stream makes the governor disable and bypass
        ("UNEPIC_drift", True, "alternate"),
    ],
)
def test_shared_segment_ids_publish_the_sum(name, governed, stream, tmp_path):
    """GNUGO at O0 and O3 are two programs with the same segment ids and
    separate tables; on one metered session their counters must add up."""
    workload = get_workload(name)
    profile_inputs = workload.default_inputs()[:4096]
    run_inputs = (
        profile_inputs if stream == "default" else workload.alternate_inputs()[:4096]
    )
    registry = MetricsRegistry()
    lifetimes = []
    with repro.Session(metrics=registry, cache=tmp_path) as session:
        for opt in ("O0", "O3"):
            program = session.compile(
                workload.source,
                _session_options(workload, opt, governed, profile_inputs),
            )
            lifetimes.append(session.run_program(program, run_inputs).metrics)
    assert lifetimes[0].table_stats.keys() == lifetimes[1].table_stats.keys()
    if stream == "alternate":
        assert all(
            snap["disables"] for metrics in lifetimes for snap in metrics.governor.values()
        )
    _assert_registry_sums(registry.snapshot(), lifetimes)


@pytest.mark.parametrize("name, governed", [("GNUGO", False), ("UNEPIC_drift", True)])
def test_concurrent_runs_publish_each_probe_once(name, governed):
    """Threads running one program on its shared tables: whatever order
    the runs end and publish in, the registry reads the lifetime totals."""
    workload = get_workload(name)
    profile_inputs = workload.default_inputs()[:4096]
    run_inputs = workload.alternate_inputs()[:1024]
    registry = MetricsRegistry()
    threads, runs_per_thread = 4, 2
    with repro.Session(metrics=registry) as session:
        program = session.compile(
            workload.source,
            _session_options(workload, "O0", governed, profile_inputs),
        )
        program.profile(profile_inputs)
        errors = []

        def worker():
            try:
                for _ in range(runs_per_thread):
                    session.run_program(program, run_inputs)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave publishers as often as possible
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not errors
        # one more run after the others: its table stats are the lifetime
        lifetime = session.run_program(program, run_inputs).metrics
    snap = registry.snapshot()
    assert lifetime.table_stats
    runs = snap["families"]["repro_machine_runs"]["samples"][0]["value"]
    assert runs == threads * runs_per_thread + 1
    _assert_registry_sums(snap, [lifetime])


def _transition_counts(snapshot) -> dict:
    family = snapshot["families"].get("repro_governor_transitions")
    if family is None:
        return {}
    return {
        (s["labels"]["segment"], s["labels"]["to"], s["labels"]["reason"]): s["value"]
        for s in family["samples"]
    }


def test_two_registries_on_two_threads_get_their_own_transitions():
    """Two metered, governed programs with separate registries run at once
    on two threads.  Each registry must read exactly its own program's
    state transitions (table actions — resizes, flushes — have their own
    counters), however the runs interleave."""
    workload = get_workload("UNEPIC_drift")
    profile_inputs = workload.default_inputs()[:4096]
    run_inputs = workload.alternate_inputs()[:4096]
    options = _session_options(workload, "O0", True, profile_inputs)
    registries = [MetricsRegistry(), MetricsRegistry()]
    programs = [
        repro.compile(workload.source, options, metrics=registry)
        for registry in registries
    ]
    for program in programs:
        program.profile(profile_inputs)
    expected = [Counter(), Counter()]
    windowed = [set(), set()]
    errors = []

    def worker(index):
        try:
            for _ in range(3):
                run = programs[index].run(run_inputs)
                for seg_id, snap in run.metrics.governor.items():
                    if snap["windows_closed"]:
                        windowed[index].add(str(seg_id))
                    for entry in snap["transitions"]:
                        if entry["reason"] not in ("resized", "flushed"):
                            key = (str(seg_id), entry["to"], entry["reason"])
                            expected[index][key] += 1
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two runs as often as possible
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors
    for registry, want, segments in zip(registries, expected, windowed):
        snapshot = registry.snapshot()
        assert sum(want.values()) > 0  # the shifted stream makes the governor act
        assert _transition_counts(snapshot) == dict(want)
        # the window gauges read each governor's last closed window
        for family in ("repro_governor_window_gain", "repro_governor_window_hit_rate"):
            samples = snapshot["families"][family]["samples"]
            assert {s["labels"]["segment"] for s in samples} == segments

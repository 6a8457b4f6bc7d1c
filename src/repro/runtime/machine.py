"""The abstract machine that executes compiled mini-C programs.

A :class:`Machine` bundles everything one execution needs:

* the operation tally (``counters``) and the selected cost table;
* global variable storage;
* the program's input stream and output sink (workload data flows
  through the ``__input_*`` / ``__output_*`` intrinsics; the output
  checksum is how we assert that a transformed program computes exactly
  what the original did);
* installed reuse tables (segment id -> table), the runtime side of the
  computation-reuse transformation;
* an optional profiler receiving ``__profile`` / ``__freq`` events;
* an optional cycle-attribution profiler
  (:class:`~repro.obs.profiler.CycleProfiler` on ``cycle_profiler``).
  It must be installed *before* ``compile_program``: the compiler emits
  attribution hooks only when one is present, so an unprofiled run
  executes exactly the closures it always did.

A machine outlives one run.  The facade keeps each compiled program's
machines warm, next to the code compiled against them, and re-arms one
per run with :meth:`Machine.rearm` (zeroed counters, the run's inputs,
the run's tables); the compiled program's own ``run`` resets globals
and I/O.  Experiments that measure one run simply build a fresh machine.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigError, InterpError
from .costs import CLASS_NAMES, N_CLASSES, CostTable, add_tally, cost_table
from .values import float_bits


@dataclass
class Metrics:
    """Summary of one program execution on a machine.

    ``table_stats`` snapshots the per-segment reuse-table telemetry
    (:class:`~repro.runtime.hashtable.TableStats`) — for merged tables
    this is the *per-member* statistics, so shared-table reports keep
    member identity; ``merged_members`` maps each merged table id to the
    segment ids probing through it.  ``governor`` holds one
    :meth:`~repro.runtime.governor.SegmentGovernor.snapshot` per governed
    segment (state, lifetime counters, transition history); it is empty
    for runs on plain static tables.
    """

    opt_level: str
    cycles: int
    seconds: float
    energy_joules: float
    counts: dict[str, int]
    output_checksum: int
    output_count: int
    table_stats: dict = field(default_factory=dict)
    merged_members: dict = field(default_factory=dict)
    governor: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"[{self.opt_level}] {self.cycles} cycles = {self.seconds:.6f}s, "
            f"{self.energy_joules:.4f}J, outputs={self.output_count} "
            f"(checksum {self.output_checksum:#010x})"
        )


class Machine:
    """Execution context for compiled mini-C programs."""

    #: execution backends ``compile_program`` can target
    BACKENDS = ("closures", "vm")

    def __init__(
        self,
        opt_level: str = "O0",
        capture_output: bool = False,
        fuse: bool = True,
        backend: str | None = None,
    ) -> None:
        self.cost: CostTable = cost_table(opt_level)
        self.counters: list[int] = [0] * N_CLASSES
        # Execution backend: the closure tree (the differential oracle)
        # or the register-bytecode VM.  ``None`` defers to the
        # REPRO_BACKEND environment variable so an unmodified test suite
        # can be pointed at either backend wholesale.
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND", "closures") or "closures"
        if backend not in self.BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.backend = backend
        # Block-fused cost accounting (repro.runtime.fuse).  Fused and
        # unfused execution produce bit-identical metrics; the flag exists
        # for the differential harness and for debugging.
        self.fuse = fuse
        self.globals: list = []
        self.reuse_tables: dict[int, object] = {}
        self.profiler = None
        # cycle-attribution profiler (repro.obs.profiler.CycleProfiler);
        # consulted at compile time by compile_program/compile_builtin
        self.cycle_profiler = None
        # live metrics registry (repro.obs.metrics.MetricsRegistry); also
        # consulted at compile time — the metered closures exist only
        # when a registry is installed before compile_program
        self.metrics_registry = None
        # debug info (repro.runtime.srcmap.SourceMap): when installed
        # before compile_program, both backends record per-line / per-pc
        # provenance into it.  Pure side table — never alters the
        # compiled artifact (pinned by the no-observer differential).
        self.source_map = None
        self.capture_output = capture_output
        self.captured_outputs: list = []
        self.debug_log: list[int] = []
        self._inputs: Sequence = ()
        self._input_pos = 0
        self._checksum = 0
        self._output_count = 0

    # -- input stream -------------------------------------------------------

    def set_inputs(self, inputs: Sequence) -> None:
        """Install the data the program will read via ``__input_*``."""
        self._inputs = inputs
        self._input_pos = 0

    def next_input(self):
        if self._input_pos >= len(self._inputs):
            raise InterpError("input stream exhausted (program should check __input_avail)")
        value = self._inputs[self._input_pos]
        self._input_pos += 1
        return value

    def input_available(self) -> int:
        return 1 if self._input_pos < len(self._inputs) else 0

    # -- output sink ----------------------------------------------------------

    def emit(self, value) -> None:
        if isinstance(value, float):
            word = float_bits(value)
        else:
            word = value & 0xFFFFFFFF
        self._checksum = (self._checksum * 31 + word) & 0xFFFFFFFF
        self._output_count += 1
        if self.capture_output:
            self.captured_outputs.append(value)

    @property
    def output_checksum(self) -> int:
        return self._checksum

    @property
    def output_count(self) -> int:
        return self._output_count

    # -- reuse tables -----------------------------------------------------------

    def install_table(self, segment_id: int, table) -> None:
        self.reuse_tables[segment_id] = table

    def table_for(self, segment_id: int):
        table = self.reuse_tables.get(segment_id)
        if table is None:
            raise InterpError(f"no reuse table installed for segment {segment_id}")
        return table

    def rearm(self, inputs: Sequence, tables: dict) -> None:
        """Prepare this machine for its next run: zero the counters, install
        ``inputs``, and replace the reuse tables with ``tables`` (segment id
        -> table).  Compiled code looks tables up through :meth:`table_for`
        at run time, so a warm program runs against any table set."""
        self.reset_counters()
        self.set_inputs(inputs)
        self.reuse_tables = dict(tables)

    # -- accounting ----------------------------------------------------------------

    def reset_counters(self) -> None:
        # In place: compiled closures and fused regions capture the list.
        self.counters[:] = [0] * N_CLASSES

    def charge_tally(self, delta) -> None:
        """Charge a whole tally vector (see :func:`repro.runtime.costs.add_tally`)."""
        add_tally(self.counters, delta)

    def reset_io(self) -> None:
        self._input_pos = 0
        self._checksum = 0
        self._output_count = 0
        self.captured_outputs = []
        self.debug_log = []

    @property
    def cycles(self) -> int:
        return self.cost.cycles_for(self.counters)

    @property
    def seconds(self) -> float:
        return self.cost.seconds_for(self.counters)

    @property
    def energy_joules(self) -> float:
        return self.cost.energy_joules_for(self.counters)

    def table_telemetry(self) -> tuple[dict, dict]:
        """Per-segment :class:`TableStats` snapshots plus merged-table
        membership (table id -> segment ids), preserving per-member
        identity for segments that share a merged table."""
        table_stats: dict[int, object] = {}
        merged_members: dict[str, list[int]] = {}
        for seg_id in sorted(self.reuse_tables):
            table = self.reuse_tables[seg_id]
            stats = getattr(table, "stats", None)
            if stats is None:
                continue
            table_stats[seg_id] = copy.deepcopy(stats)
            merged = getattr(table, "table", None)  # a MergedTableView?
            if merged is not None:
                merged_members.setdefault(merged.table_id, []).append(seg_id)
        return table_stats, merged_members

    def governor_telemetry(self) -> dict:
        """Per-segment governor snapshots (empty unless governed tables
        are installed); see :class:`~repro.runtime.governor.SegmentGovernor`."""
        snapshots: dict[int, dict] = {}
        for seg_id in sorted(self.reuse_tables):
            governor = getattr(self.reuse_tables[seg_id], "governor", None)
            if governor is not None:
                snapshots[seg_id] = governor.snapshot()
        return snapshots

    def publish_metrics(self, registry=None) -> None:
        """Publish this machine's run aggregates into a metrics registry
        (default: the installed ``metrics_registry``; no-op without one).

        Machine-level tallies (cycles, per-class ops, outputs) are
        per-run increments.  Table and governor statistics are *lifetime*
        totals of the installed tables, so they go through the counters'
        monotone ``advance_to``: live per-probe increments (from the
        metered closures) and end-of-run totals reconcile on the same
        counters without double counting.  One registry should observe
        one table population; publishing unrelated machines into it
        would interleave unrelated lifetimes.
        """
        registry = registry if registry is not None else self.metrics_registry
        if registry is None:
            return
        registry.counter(
            "repro_machine_runs", "Measured executions published."
        ).inc()
        registry.counter(
            "repro_machine_cycles", "Simulated cycles across published runs."
        ).inc(self.cycles)
        registry.counter(
            "repro_machine_outputs", "Values emitted via __output_*."
        ).inc(self.output_count)
        registry.histogram(
            "repro_run_cycles", "Per-run simulated cycle distribution."
        ).observe(self.cycles)
        ops = registry.counter(
            "repro_machine_ops", "Operation tally by cost class."
        )
        for index, name in enumerate(CLASS_NAMES):
            count = self.counters[index]
            if count:
                ops.labels(cls=name).inc(count)
        self._publish_table_metrics(registry)
        self._publish_governor_metrics(registry)

    def _publish_table_metrics(self, registry) -> None:
        probes = registry.counter(
            "repro_reuse_probes", "Reuse-table probes that consulted the table."
        )
        hits = registry.counter("repro_reuse_hits", "Reuse-table probe hits.")
        misses = registry.counter("repro_reuse_misses", "Reuse-table probe misses.")
        collisions = registry.counter(
            "repro_reuse_collisions", "Probe misses on an occupied slot."
        )
        empty = registry.counter(
            "repro_reuse_empty_misses", "Probe misses on an empty slot."
        )
        evictions = registry.counter(
            "repro_reuse_evictions", "Committed entries that displaced a resident."
        )
        occupancy = registry.gauge(
            "repro_table_occupancy", "Occupied reuse-table slots (merged: shared)."
        )
        occupancy_hwm = registry.gauge(
            "repro_table_occupancy_hwm", "Occupancy high-water mark."
        )
        hit_ratio = registry.gauge(
            "repro_table_hit_ratio", "Lifetime hits/probes of the table."
        )
        size_bytes = registry.gauge(
            "repro_table_size_bytes", "Modeled table size (merged: shared)."
        )
        for seg_id in sorted(self.reuse_tables):
            table = self.reuse_tables[seg_id]
            stats = getattr(table, "stats", None)
            if stats is None:
                continue
            label = {"segment": str(seg_id)}
            probes.labels(**label).advance_to(stats.probes)
            hits.labels(**label).advance_to(stats.hits)
            misses.labels(**label).advance_to(stats.misses)
            collisions.labels(**label).advance_to(stats.collisions)
            empty.labels(**label).advance_to(stats.empty_misses)
            evictions.labels(**label).advance_to(stats.evictions)
            occupancy.labels(**label).set(getattr(table, "occupied", 0))
            occupancy_hwm.labels(**label).set(stats.occupancy_hwm)
            hit_ratio.labels(**label).set(stats.hit_ratio)
            size_bytes.labels(**label).set(getattr(table, "size_bytes", 0))

    def _publish_governor_metrics(self, registry) -> None:
        snapshots = self.governor_telemetry()
        if not snapshots:
            return
        lifetime = {
            "repro_governor_disables": ("disables", "Governor disable transitions."),
            "repro_governor_reenables": ("reenables", "Governor re-enable transitions."),
            "repro_governor_resizes": ("resizes", "Governor-driven table resizes."),
            "repro_governor_flushes": ("flushes", "Governor-driven table flushes."),
            "repro_governor_bypassed": (
                "bypassed_executions", "Executions bypassed while disabled.",
            ),
        }
        active = registry.gauge(
            "repro_governor_active",
            "Governor state: 1 active, 0.5 probing, 0 disabled.",
        )
        state_value = {"active": 1.0, "probing": 0.5, "disabled": 0.0}
        for seg_id, snap in snapshots.items():
            label = {"segment": str(seg_id)}
            for metric, (field_name, help_text) in lifetime.items():
                registry.counter(metric, help_text).labels(**label).advance_to(
                    snap[field_name]
                )
            active.labels(**label).set(state_value.get(snap["state"], 0.0))

    def metrics(self) -> Metrics:
        counts = {name: self.counters[i] for i, name in enumerate(CLASS_NAMES)}
        table_stats, merged_members = self.table_telemetry()
        return Metrics(
            opt_level=self.cost.name,
            cycles=self.cycles,
            seconds=self.seconds,
            energy_joules=self.energy_joules,
            counts=counts,
            output_checksum=self.output_checksum,
            output_count=self.output_count,
            table_stats=table_stats,
            merged_members=merged_members,
            governor=self.governor_telemetry(),
        )

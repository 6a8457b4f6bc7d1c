"""The abstract machine that executes compiled mini-C programs.

A :class:`Machine` bundles everything one execution needs:

* the operation tally (``counters``) and the selected cost table, plus
  a running cycle total (``cycle_total``) that VM code translated under
  a cycle-reading observer keeps equal to their dot product;
* global variable storage;
* the program's input stream and output sink (workload data flows
  through the ``__input_*`` / ``__output_*`` intrinsics; the output
  checksum is how we assert that a transformed program computes exactly
  what the original did);
* installed reuse tables (segment id -> table), the runtime side of the
  computation-reuse transformation;
* an optional value-set profiler
  (:class:`~repro.profiling.valueset.ValueSetProfiler` on ``profiler``)
  for the ``__profile`` / ``__seg_enter`` / ``__seg_exit`` stubs.  It
  must be installed *before* ``compile_program``: the VM binds each
  profiled segment into its translated code at compile time (the
  closure backend calls the profiler's hooks at run time);
* an optional cycle-attribution profiler
  (:class:`~repro.obs.profiler.CycleProfiler` on ``cycle_profiler``).
  It too must be installed *before* ``compile_program``: the compiler
  emits attribution hooks only when one is present, so an unprofiled
  run executes exactly the closures it always did.

A machine outlives one run.  The facade keeps each compiled program's
machines warm, next to the code compiled against them, and re-arms one
per run with :meth:`Machine.rearm` (zeroed counters, the run's inputs,
the run's tables); the compiled program's own ``run`` resets globals
and I/O.  Experiments that measure one run simply build a fresh machine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigError, InterpError
from .costs import CLASS_NAMES, N_CLASSES, CostTable, cost_table
from .values import float_bits

# Lifetime table and governor counters: metric -> (field of the growth
# ``take_unpublished`` returns, help text).  Governor fields appear only
# for governed tables.
_LIFETIME_COUNTERS = {
    "repro_reuse_probes": ("probes", "Reuse-table probes that consulted the table."),
    "repro_reuse_hits": ("hits", "Reuse-table probe hits."),
    "repro_reuse_misses": ("misses", "Reuse-table probe misses."),
    "repro_reuse_collisions": ("collisions", "Probe misses on an occupied slot."),
    "repro_reuse_empty_misses": ("empty_misses", "Probe misses on an empty slot."),
    "repro_reuse_evictions": (
        "evictions", "Committed entries that displaced a resident.",
    ),
    "repro_reuse_bypassed": (
        "bypassed_executions", "Probes skipped by the governor's bypass.",
    ),
    "repro_governor_disables": ("disables", "Governor disable transitions."),
    "repro_governor_reenables": ("reenables", "Governor re-enable transitions."),
    "repro_governor_resizes": ("resizes", "Governor-driven table resizes."),
    "repro_governor_flushes": ("flushes", "Governor-driven table flushes."),
    "repro_governor_bypassed": (
        "bypassed_executions", "Executions bypassed while disabled.",
    ),
}

_GOVERNOR_STATE_VALUE = {"active": 1.0, "probing": 0.5, "disabled": 0.0}


class TableSlots(dict):
    """Segment id -> installed reuse table.

    One mapping per machine, for its whole life: translated VM code binds
    it once and indexes it at every probe, so :meth:`Machine.rearm`
    refills it in place.  A missing segment raises :class:`InterpError`.
    """

    __slots__ = ()

    def __missing__(self, segment_id):
        raise InterpError(f"no reuse table installed for segment {segment_id}")


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
        backend: str | None = None,
    ) -> None:
        self.cost: CostTable = cost_table(opt_level)
        self.counters: list[int] = [0] * N_CLASSES
        # The running cycle total, ``cost.cycles_for(counters)`` kept up to
        # date by VM translations made with a cycle-reading observer (the
        # value-set or the cycle profiler) installed; they read it instead
        # of the dot product.  Unobserved code never updates it.
        self.cycle_total: list[int] = [0]
        # Execution backend: the register-bytecode VM (the default, and
        # the fast engine) or the closure tree (the unfused reference
        # oracle).  ``None`` defers to the REPRO_BACKEND environment
        # variable so an unmodified test suite can be pointed at either
        # backend wholesale.
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "vm"
        if backend not in self.BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.backend = backend
        self.globals: list = []
        self.reuse_tables = TableSlots()
        # value-set profiler (repro.profiling.valueset.ValueSetProfiler);
        # the VM binds it into translated code at compile time
        self.profiler = None
        # cycle-attribution profiler (repro.obs.profiler.CycleProfiler);
        # consulted at compile time by compile_program/compile_builtin
        self.cycle_profiler = None
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
        return self.reuse_tables[segment_id]

    def rearm(self, inputs: Sequence, tables: dict) -> None:
        """Prepare this machine for its next run: zero the counters, install
        ``inputs``, and replace the reuse tables with ``tables`` (segment id
        -> table).  Compiled code indexes :attr:`reuse_tables` at run
        time and the mapping is refilled in place, so a warm program runs
        against any table set."""
        self.reset_counters()
        self.set_inputs(inputs)
        self.reuse_tables.clear()
        self.reuse_tables.update(tables)

    # -- accounting ----------------------------------------------------------------

    def reset_counters(self) -> None:
        # In place: compiled closures and translated VM code capture the lists.
        self.counters[:] = [0] * N_CLASSES
        self.cycle_total[0] = 0

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
            table_stats[seg_id] = stats.snapshot()
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

    def publish_metrics(self, registry) -> None:
        """Publish this run into a metrics registry, once, after it ends.

        Machine-level tallies (cycles, per-class ops, outputs) are this
        run's own.  Table and governor counters are lifetime totals of
        the installed tables, which later runs may share, so each is
        increased only by its growth since the table last published
        (``take_unpublished``, the table's publish cursor): every probe
        and governor transition reaches the registry exactly once, also
        when programs sharing the registry reuse segment ids.  Gauges
        take the last publisher's value; a governor's window gauges read
        its last closed window.
        """
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

    def _publish_table_metrics(self, registry) -> None:
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
            grown = table.take_unpublished()
            for metric, (field_name, help_text) in _LIFETIME_COUNTERS.items():
                if field_name in grown:
                    registry.counter(metric, help_text).labels(**label).inc(
                        grown[field_name]
                    )
            occupancy.labels(**label).set(getattr(table, "occupied", 0))
            occupancy_hwm.labels(**label).set(stats.occupancy_hwm)
            hit_ratio.labels(**label).set(stats.hit_ratio)
            size_bytes.labels(**label).set(getattr(table, "size_bytes", 0))
            governor = getattr(table, "governor", None)
            if governor is not None:
                self._publish_governor(registry, label, governor, grown)

    @staticmethod
    def _publish_governor(registry, label: dict, governor, grown: dict) -> None:
        registry.gauge(
            "repro_governor_active",
            "Governor state: 1 active, 0.5 probing, 0 disabled.",
        ).labels(**label).set(_GOVERNOR_STATE_VALUE[governor.state])
        for entry in grown["state_transitions"]:
            registry.counter(
                "repro_governor_transitions", "Governor state transitions."
            ).labels(**label, to=entry["to"], reason=entry["reason"]).inc()
        window = governor.last_window
        if window is not None:
            # the paper's R·C−O over the last closed window
            registry.gauge(
                "repro_governor_window_gain",
                "Windowed amortized gain R_w*C - O (cycles/execution).",
            ).labels(**label).set(window["gain"])
            registry.gauge(
                "repro_governor_window_hit_rate",
                "Hit rate of the last closed governor window.",
            ).labels(**label).set(window["hit_rate"])

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

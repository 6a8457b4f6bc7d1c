"""Hierarchical cycle-attribution profiler for measured runs.

The simulator's cost model is a linear integer dot product: at any point
in a run, ``Machine.cost.cycles_for(machine.counters)`` is the exact
cycle total so far.  The profiler exploits that linearity: at every
attribution boundary (function entry/exit, reuse-segment probe, commit,
end) it snapshots the running total and accrues the delta since the last
snapshot to the node on top of an *attribution stack*.  Because every
cycle charged between two snapshots lands in exactly one node, the
per-node totals sum bit-exactly to ``Metrics.cycles`` — the conservation
property the differential test asserts.  On the VM the snapshot is the
machine's running cycle total (``Machine.cycle_total``), which the
profiled translations keep equal to that dot product charge by charge
(:meth:`CycleProfiler.read_total`); the closure tree computes the dot
product at each boundary.

Attribution boundaries are only ever function calls and reuse
intrinsics, both of which flush the VM's block-batched charges, so the
VM and the (unbatched) closure tree attribute identically.

Segment nodes split their self-cycles into two buckets, following the
paper's accounting identity (formula 3, gain = ``R*C - O``):

* *body* — cycles spent actually executing the memoized region on the
  miss (or governor-bypassed) path;
* *overhead* — the hashing cost ``O``: probe key construction + lookup,
  output restores on a hit, and the commit on a miss.

From the bucket totals the profiler derives the *measured* ``C``
(inclusive body cycles per executed body), ``O`` (overhead per
execution) and ``R`` (hits per execution), which the measured-vs-ledger
report prints next to the compile-time estimates carried by each
:class:`~repro.reuse.transform.TableSpec`; cycles saved by reuse hits
are reconstructed as ``hits x C``.

The hooks are compiled in only when a profiler is installed on the
machine *before* :func:`~repro.runtime.compiler.compile_program` runs
(``machine.cycle_profiler``); with no profiler the generated closures
are byte-identical to the unprofiled ones, so enabling profiling can
never perturb a run it is not watching.

Line attribution (``CycleProfiler(..., lines=True)``) extends the same
scheme one level down: each stack frame carries a *current source line*,
updated by the ``at_line`` hook the backends call at statement starts
and loop-iteration heads, and every tick's delta is added to a per-line
``[body, overhead]`` bucket keyed by the frame's current line.  Because
each delta still lands in exactly one bucket, the per-line totals sum
bit-exactly to ``Metrics.cycles`` too (line 0 collects cycles charged
before the first mark of a function).  Both backends place their marks
at identical counter states — statement starts and per-iteration loop
heads/tails, all of which are flush points in the VM — so the closure
and VM backends agree on per-line totals line for line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import getitem
from typing import Iterator, Optional

from .render import render_table

__all__ = [
    "CycleProfiler",
    "CycleProfile",
    "ProfileNode",
    "SegmentAttribution",
    "ledger_costs",
]

_BODY = 0
_OVERHEAD = 1


class ProfileNode:
    """One node of the attribution tree: a function or a reuse segment.

    ``body_cycles`` / ``overhead_cycles`` are *self* cycles (children
    excluded); for function nodes everything lands in ``body_cycles``.
    Children are keyed by ``(kind, name)`` so repeated calls through the
    same path share a node; direct self-recursion folds into one node
    instead of growing a chain per activation.
    """

    __slots__ = (
        "kind",
        "name",
        "count",
        "body_cycles",
        "overhead_cycles",
        "hits",
        "misses",
        "bypassed",
        "children",
    )

    def __init__(self, kind: str, name) -> None:
        self.kind = kind
        self.name = name
        self.count = 0
        self.body_cycles = 0
        self.overhead_cycles = 0
        self.hits = 0
        self.misses = 0
        self.bypassed = 0
        self.children: dict[tuple, "ProfileNode"] = {}

    def child(self, kind: str, name) -> "ProfileNode":
        key = (kind, name)
        node = self.children.get(key)
        if node is None:
            node = ProfileNode(kind, name)
            self.children[key] = node
        return node

    @property
    def self_cycles(self) -> int:
        return self.body_cycles + self.overhead_cycles

    @property
    def total_cycles(self) -> int:
        """Inclusive cycles: self plus everything below."""
        return self.self_cycles + sum(
            c.total_cycles for c in self.children.values()
        )

    @property
    def label(self) -> str:
        return f"seg:{self.name}" if self.kind == "segment" else str(self.name)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "ProfileNode"]]:
        """Depth-first traversal, children ordered by descending total."""
        yield depth, self
        for child in sorted(
            self.children.values(), key=lambda n: -n.total_cycles
        ):
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "count": self.count,
            "body_cycles": self.body_cycles,
            "overhead_cycles": self.overhead_cycles,
            "hits": self.hits,
            "misses": self.misses,
            "bypassed": self.bypassed,
            "children": [
                c.to_dict()
                for c in sorted(
                    self.children.values(), key=lambda n: -n.total_cycles
                )
            ],
        }


@dataclass
class SegmentAttribution:
    """Aggregated measured numbers for one reuse segment (all tree paths
    through it summed).  ``body_cycles`` is inclusive of nested work on
    the executed path; ``overhead_cycles`` is the hashing cost."""

    seg_id: int
    executions: int = 0
    hits: int = 0
    misses: int = 0
    bypassed: int = 0
    body_cycles: int = 0
    overhead_cycles: int = 0

    @property
    def executed_bodies(self) -> int:
        return self.misses + self.bypassed

    @property
    def measured_granularity(self) -> float:
        """Measured ``C``: inclusive body cycles per executed body."""
        return self.body_cycles / self.executed_bodies if self.executed_bodies else 0.0

    @property
    def measured_overhead(self) -> float:
        """Measured ``O``: overhead cycles per execution."""
        return self.overhead_cycles / self.executions if self.executions else 0.0

    @property
    def measured_reuse_rate(self) -> float:
        """Measured ``R``: hit fraction of all executions."""
        return self.hits / self.executions if self.executions else 0.0

    @property
    def measured_gain(self) -> float:
        """Measured per-execution gain, the runtime analog of formula 3."""
        return (
            self.measured_reuse_rate * self.measured_granularity
            - self.measured_overhead
        )

    def saved_cycles(self, granularity_cycles: Optional[float] = None) -> float:
        """Cycles the hits did not execute: ``hits x C``.  Uses the
        measured granularity unless the compile-time constant is given."""
        c = (
            granularity_cycles
            if granularity_cycles is not None
            else self.measured_granularity
        )
        return self.hits * c


@dataclass
class CycleProfile:
    """The finished attribution tree plus the ledger's estimates."""

    root: ProfileNode
    # segment id -> compile-time estimates; see :func:`ledger_costs`
    seg_costs: dict = field(default_factory=dict)
    # source line -> [body_cycles, overhead_cycles]; None when the run
    # did not track lines (see ``CycleProfiler(..., lines=True)``)
    lines: Optional[dict] = None

    @property
    def total_cycles(self) -> int:
        """Sum of every node's self cycles — the conservation total."""
        return self.root.total_cycles

    def line_total(self) -> int:
        """Sum of every line bucket — equals ``total_cycles`` when line
        tracking was on (the line-level conservation property)."""
        if not self.lines:
            return 0
        return sum(body + overhead for body, overhead in self.lines.values())

    def segments(self) -> dict[int, SegmentAttribution]:
        """Aggregate every segment node (inclusive body) by segment id."""
        out: dict[int, SegmentAttribution] = {}
        for _, node in self.root.walk():
            if node.kind != "segment":
                continue
            att = out.get(node.name)
            if att is None:
                att = out[node.name] = SegmentAttribution(seg_id=node.name)
            att.executions += node.count
            att.hits += node.hits
            att.misses += node.misses
            att.bypassed += node.bypassed
            att.body_cycles += node.body_cycles + sum(
                c.total_cycles for c in node.children.values()
            )
            att.overhead_cycles += node.overhead_cycles
        return out

    # -- exporters ----------------------------------------------------------

    def render(self, max_depth: Optional[int] = None, min_cycles: int = 0) -> str:
        """The profile tree as an aligned text table."""
        headers = ["node", "count", "total", "self", "overhead", "hit/miss/byp"]
        rows = []
        for depth, node in self.root.walk():
            if max_depth is not None and depth > max_depth:
                continue
            if node.total_cycles < min_cycles and depth > 0:
                continue
            hmb = (
                f"{node.hits}/{node.misses}/{node.bypassed}"
                if node.kind == "segment"
                else "-"
            )
            rows.append(
                [
                    "  " * depth + node.label,
                    str(node.count),
                    str(node.total_cycles),
                    str(node.body_cycles),
                    str(node.overhead_cycles),
                    hmb,
                ]
            )
        return "Cycle attribution (self = own body cycles)\n" + render_table(
            headers, rows
        )

    def collapsed(self) -> str:
        """Collapsed-stack (flamegraph) format: ``a;b;c <self cycles>``
        per line.  Feed to any flamegraph renderer."""
        lines: list[str] = []

        def visit(node: ProfileNode, path: str) -> None:
            here = f"{path};{node.label}" if path else node.label
            if node.self_cycles > 0:
                lines.append(f"{here} {node.self_cycles}")
            for child in sorted(
                node.children.values(), key=lambda n: -n.total_cycles
            ):
                visit(child, here)

        visit(self.root, "")
        return "\n".join(lines)

    def measured_vs_ledger(self) -> str:
        """Compile-time ``C``/``O``/gain next to the measured values, per
        segment — the paper's formulas, checked at run time."""
        segments = self.segments()
        if not segments:
            return "Measured vs ledger: no reuse segments executed"
        headers = [
            "segment",
            "execs",
            "hits",
            "R est",
            "R meas",
            "C est",
            "C meas",
            "O est",
            "O meas",
            "gain est",
            "gain meas",
            "saved cy",
        ]
        rows = []
        for seg_id in sorted(segments):
            att = segments[seg_id]
            est = self.seg_costs.get(seg_id, {})
            func = est.get("function")
            label = f"{seg_id} ({func})" if func else str(seg_id)
            est_c = est.get("C")
            rows.append(
                [
                    label,
                    str(att.executions),
                    str(att.hits),
                    _fmt(est.get("R"), "{:.3f}"),
                    f"{att.measured_reuse_rate:.3f}",
                    _fmt(est_c, "{:.0f}"),
                    f"{att.measured_granularity:.0f}",
                    _fmt(est.get("O"), "{:.0f}"),
                    f"{att.measured_overhead:.1f}",
                    _fmt(est.get("gain"), "{:+.1f}"),
                    f"{att.measured_gain:+.1f}",
                    f"{att.saved_cycles(est_c):.0f}",
                ]
            )
        return (
            "Measured vs ledger (est = compile-time profile, meas = this run)\n"
            + render_table(headers, rows)
        )

    def to_dict(self) -> dict:
        """JSON-serializable summary: the tree plus per-segment rows."""
        return {
            "total_cycles": self.total_cycles,
            "lines": (
                {str(line): list(bucket) for line, bucket in sorted(self.lines.items())}
                if self.lines
                else None
            ),
            "tree": self.root.to_dict(),
            "segments": {
                str(seg_id): {
                    "executions": att.executions,
                    "hits": att.hits,
                    "misses": att.misses,
                    "bypassed": att.bypassed,
                    "body_cycles": att.body_cycles,
                    "overhead_cycles": att.overhead_cycles,
                    "measured_granularity": att.measured_granularity,
                    "measured_overhead": att.measured_overhead,
                    "measured_reuse_rate": att.measured_reuse_rate,
                    "measured_gain": att.measured_gain,
                    "saved_cycles": att.saved_cycles(
                        self.seg_costs.get(seg_id, {}).get("C")
                    ),
                }
                for seg_id, att in self.segments().items()
            },
        }


class CycleProfiler:
    """The live attribution stack; install on a machine *before*
    :func:`~repro.runtime.compiler.compile_program`::

        machine = Machine("O0")
        profiler = CycleProfiler(machine, seg_costs=ledger_costs(result))
        machine.cycle_profiler = profiler
        compile_program(program, machine).run("main")
        profile = profiler.finalize()

    Hook protocol (called by the compiled closures):

    * ``enter_function`` / ``exit_function`` around every function body;
    * ``probe_begin`` before a segment's ``__reuse_probe`` evaluates,
      ``probe_end`` after it (with the hit/bypass verdict);
    * ``commit_begin`` before ``__reuse_commit`` (miss path) and
      ``segment_exit`` after it, or ``segment_exit`` after
      ``__reuse_end`` (hit path).

    Boundary charges follow perf convention: a call's CALL/RET cycles and
    the guard's branch land in the *caller*; the probe's key hashing and
    the ``== 0`` test land where they are charged.  Every cycle lands in
    exactly one node either way.
    """

    def __init__(
        self, machine, seg_costs: Optional[dict] = None, lines: bool = False
    ) -> None:
        # the cycle count so far: the cost table's dot product, until a VM
        # program that keeps the machine's running total binds it
        self._now = partial(machine.cost.cycles_for, machine.counters)
        self.seg_costs = dict(seg_costs or {})
        self.track_lines = lines
        self._lines: Optional[dict] = {} if lines else None
        self.root = ProfileNode("run", "run")
        self.root.count = 1
        # frame: [node, body/overhead mode, current source line]
        self._stack: list[list] = [[self.root, _BODY, 0]]
        self._last = self._now()
        self._profile: Optional[CycleProfile] = None

    def read_total(self, total: list) -> None:
        """Read the cycle count from ``total[0]``, a running total kept
        equal to the dot product (``Machine.cycle_total``; the VM binds
        it once its profiled translations are linked)."""
        self._now = partial(getitem, total, 0)

    def _tick(self) -> None:
        now = self._now()
        frame = self._stack[-1]
        delta = now - self._last
        if frame[1]:
            frame[0].overhead_cycles += delta
        else:
            frame[0].body_cycles += delta
        if self._lines is not None and delta:
            bucket = self._lines.get(frame[2])
            if bucket is None:
                bucket = self._lines[frame[2]] = [0, 0]
            bucket[frame[1]] += delta
        self._last = now

    # -- line boundaries -----------------------------------------------------

    def at_line(self, line: int) -> None:
        """Mark the current frame as executing ``line`` from here on.
        The delta since the previous boundary still belongs to the
        previous line — ticked before the switch."""
        self._tick()
        self._stack[-1][2] = line

    # -- function boundaries -------------------------------------------------

    def enter_function(self, name: str) -> None:
        self._tick()
        top = self._stack[-1][0]
        if top.kind == "function" and top.name == name:
            node = top  # fold direct self-recursion
        else:
            node = top.child("function", name)
        node.count += 1
        self._stack.append([node, _BODY, 0])

    def exit_function(self) -> None:
        self._tick()
        if len(self._stack) > 1:
            self._stack.pop()

    # -- segment boundaries --------------------------------------------------

    def probe_begin(self, seg_id: int) -> None:
        self._tick()
        parent = self._stack[-1]
        node = parent[0].child("segment", seg_id)
        node.count += 1
        # Inherit the caller's current line: probe/commit overhead and
        # the region body attribute to the segment's source location.
        self._stack.append([node, _OVERHEAD, parent[2]])

    def probe_end(self, seg_id: int, hit: bool, bypassed: bool = False) -> None:
        self._tick()  # the probe itself is overhead
        frame = self._stack[-1]
        if hit:
            frame[0].hits += 1  # stay in overhead: restores + end follow
        elif bypassed:
            frame[0].bypassed += 1
            frame[1] = _BODY
        else:
            frame[0].misses += 1
            frame[1] = _BODY

    def commit_begin(self, seg_id: int) -> None:
        self._tick()  # body cycles up to the commit
        self._stack[-1][1] = _OVERHEAD

    def segment_exit(self, seg_id: int) -> None:
        self._tick()
        if len(self._stack) > 1:
            self._stack.pop()

    # -- lifecycle -----------------------------------------------------------

    def finalize(self) -> CycleProfile:
        """Flush the trailing delta and freeze the tree (idempotent)."""
        if self._profile is None:
            self._tick()
            del self._stack[1:]
            self._profile = CycleProfile(
                root=self.root, seg_costs=self.seg_costs, lines=self._lines
            )
        return self._profile


def ledger_costs(result) -> dict[int, dict]:
    """Compile-time estimates per selected segment, pulled off a
    :class:`~repro.reuse.pipeline.PipelineResult` (duck-typed): the
    ``C``/``O`` constants the transformer emitted into each
    :class:`~repro.reuse.transform.TableSpec` plus the value-profiled
    ``R`` and gain — the numbers the measured-vs-ledger report compares
    against."""
    specs = {
        spec.segment_id: spec for spec in getattr(result, "table_specs", [])
    }
    costs: dict[int, dict] = {}
    for segment in getattr(result, "selected", []):
        spec = specs.get(segment.seg_id)
        costs[segment.seg_id] = {
            "function": getattr(segment, "func_name", None),
            "kind": getattr(segment, "kind", None),
            "C": (
                spec.granularity_cycles
                if spec is not None
                else getattr(segment, "measured_granularity", 0.0)
            ),
            "O": (
                spec.overhead_cycles
                if spec is not None
                else getattr(segment, "overhead", 0.0)
            ),
            "R": getattr(segment, "reuse_rate", 0.0),
            "gain": getattr(segment, "gain", 0.0),
        }
    return costs


def _fmt(value, spec: str) -> str:
    return spec.format(value) if value is not None else "-"

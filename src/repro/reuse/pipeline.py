"""The end-to-end computation-reuse pipeline (Figure 1 of the paper).

Steps, in order:

1. clean-up pass (split calls out of complex expressions);
2. whole-program analyses (pointer, mod/ref, CFGs, liveness);
3. candidate segment identification + input/output analysis;
4. static cost estimates (granularity lower bound, hashing-overhead upper
   bound) and the ``O/C < 1`` pre-filter;
5. *specialization*: function segments that fail the pre-filter but have
   call-site-invariant arguments get specialized clones; only the clones
   and the rewritten call sites are resolved and re-indexed, and the
   analyses are re-solved once over the kept index;
6. one value-set profiling run of every candidate measures N, N_ds, the
   reuse rate R, and the per-execution granularity C;
7. the frequency filter drops segments that run executed fewer than
   ``min_executions`` times (a profile does not depend on which other
   segments are profiled, so the survivors' numbers equal a run
   restricted to them);
8. the cost-benefit test ``R*C - O > 0`` (formula 3) keeps profitable
   segments;
9. the nesting graph picks at most one segment per nest (formula 4);
10. hash tables of segments with identical inputs are merged;
11. the transformation rewrites the selected segments and emits table
    specifications for the runtime.

The pipeline mutates (a cleaned copy of) the input program; the result
object carries everything the experiment harness and the examples need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ConfigError
from ..minic import astnodes as ast
from ..minic.index import ProgramIndex
from ..minic.parser import parse_program
from ..minic.sema import analyze, resolve_functions
from ..ir.cleanup import cleanup
from ..obs import DecisionLedger, get_tracer
from ..profiling.freq import frequent_segments
from ..profiling.valueset import SegmentProfile, ValueSetProfiler
from ..runtime.compiler import compile_program
from ..runtime.costs import TABLES as _COST_TABLES
from ..runtime.governor import (
    GovernedMergedReuseTable,
    GovernedReuseTable,
    GovernorPolicy,
)
from ..runtime.hashtable import (
    SAMPLE_BUDGET as _SAMPLE_BUDGET,
    MergedReuseTable,
    ReuseTable,
    pow2_ceil as _pow2,
)
from ..runtime.jenkins import hash_key_batch
from ..runtime.machine import Machine
from . import cost_model
from .granularity import GranularityAnalysis
from .hashing_cost import annotate_costs
from .instrument import instrument_program, strip_instrumentation
from .merging import merge_groups
from .nesting import NestingGraph
from .segments import ProgramAnalysis, Segment, enumerate_segments
from .specialize import SpecializationRecord, Specializer
from .transform import ReuseTransformer, TableSpec


@dataclass(kw_only=True)
class PipelineConfig:
    """Tuning knobs for the pipeline (defaults follow the paper).

    Keyword-only: every knob must be named at the call site.  Invalid
    values raise :class:`~repro.errors.ConfigError` at construction time
    instead of failing deep inside table sizing or a profiling run.
    """

    # frequency filter: minimum dynamic executions for value profiling
    min_executions: int = 32
    # cost model evaluated against this table (profiling also runs on it)
    opt_level: str = "O0"
    enable_specialization: bool = True
    enable_merging: bool = True
    # extension beyond the paper (its §5 future work): consider parts of
    # bodies that were rejected as a whole (for I/O or escaping breaks)
    enable_subsegments: bool = False
    # ablation switches
    enable_nesting_selection: bool = True
    enable_cost_filter: bool = True
    # table sizing: capacity = distinct inputs / load factor (then rounded
    # up to a power of two); direct addressing wants plenty of slack
    load_factor: float = 0.25
    table_capacity_override: Optional[int] = None
    # optional memory budget for all reuse tables (bytes); lowest
    # gain-per-byte segments are dropped until the budget holds
    memory_budget_bytes: Optional[int] = None
    entry: str = "main"
    # thresholds emitted into every TableSpec for the online reuse
    # governor (repro.runtime.governor); only consulted by governed runs
    governor: GovernorPolicy = field(default_factory=GovernorPolicy)
    # hit-ratio ring-buffer capacity emitted into every TableSpec
    # (repro.runtime.hashtable.TableStats); >= 2
    stats_sample_budget: int = _SAMPLE_BUDGET

    def __post_init__(self) -> None:
        if self.opt_level not in _COST_TABLES:
            raise ConfigError(
                f"unknown opt_level {self.opt_level!r}; choose from {sorted(_COST_TABLES)}"
            )
        if not 0.0 < self.load_factor <= 1.0:
            raise ConfigError(f"load_factor must be in (0, 1], got {self.load_factor}")
        if self.min_executions < 0:
            raise ConfigError(f"min_executions must be >= 0, got {self.min_executions}")
        if self.table_capacity_override is not None and self.table_capacity_override < 1:
            raise ConfigError(
                f"table_capacity_override must be >= 1, got {self.table_capacity_override}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 0:
            raise ConfigError(
                f"memory_budget_bytes must be >= 0, got {self.memory_budget_bytes}"
            )
        if not self.entry or not isinstance(self.entry, str):
            raise ConfigError(f"entry must be a non-empty function name, got {self.entry!r}")
        if not isinstance(self.governor, GovernorPolicy):
            raise ConfigError(
                f"governor must be a GovernorPolicy, got {type(self.governor).__name__}"
            )
        if self.stats_sample_budget < 2:
            raise ConfigError(
                f"stats_sample_budget must be >= 2, got {self.stats_sample_budget}"
            )


@dataclass
class PipelineResult:
    program: ast.Program
    segments: list[Segment]
    profiled: list[Segment]
    profitable: list[Segment]
    selected: list[Segment]
    table_specs: list[TableSpec]
    merged: dict[str, list[Segment]]
    specializations: list[SpecializationRecord]
    profiles: dict[int, SegmentProfile]
    dropped_for_memory: list[Segment] = field(default_factory=list)
    # why every candidate was kept or killed, stage by stage
    ledger: Optional[DecisionLedger] = None

    @property
    def counts(self) -> dict[str, int]:
        """The Table 4 counters: analyzed / profiled / transformed."""
        return {
            "analyzed": len(self.segments),
            "profiled": len(self.profiled),
            "transformed": len(self.selected),
        }

    def segment(self, seg_id: int) -> Segment:
        for segment in self.segments:
            if segment.seg_id == seg_id:
                return segment
        raise KeyError(seg_id)

    def total_table_bytes(self) -> int:
        return sum(spec_size_bytes(s, self) for s in self.table_specs)

    def build_tables(
        self,
        capacity_override: Optional[int] = None,
        governed: bool = False,
    ) -> dict[int, object]:
        """Instantiate the runtime reuse tables described by the specs.

        Returns {segment id: table or merged-table view} ready to install
        on a machine.  ``capacity_override`` (entries) supports the
        hash-table-size sweep of figures 14/15.  ``governed=True`` builds
        tables managed by the online reuse governor
        (:mod:`repro.runtime.governor`): each table (and each merged-table
        member) carries its segment's static ``C``/``O`` constants and the
        governor thresholds emitted into its spec.
        """
        tables: dict[int, object] = {}
        merged_built: dict[str, MergedReuseTable] = {}
        group_capacity: dict[str, int] = {}
        spec_by_id = {spec.segment_id: spec for spec in self.table_specs}
        for spec in self.table_specs:
            if spec.merged_group is not None:
                group_capacity[spec.merged_group] = max(
                    group_capacity.get(spec.merged_group, 1), spec.capacity
                )
        for spec in self.table_specs:
            capacity = capacity_override or spec.capacity
            policy = spec.governor or GovernorPolicy()
            sample_budget = spec.sample_budget
            if spec.merged_group is not None:
                group = merged_built.get(spec.merged_group)
                if group is None:
                    members = self.merged[spec.merged_group]
                    member_out_words = {
                        str(m.seg_id): m.out_words for m in members
                    }
                    group_cap = capacity_override or group_capacity[spec.merged_group]
                    if governed:
                        group = GovernedMergedReuseTable(
                            spec.merged_group,
                            capacity=group_cap,
                            in_words=members[0].in_words,
                            member_out_words=member_out_words,
                            member_costs={
                                str(m.seg_id): (
                                    spec_by_id[m.seg_id].granularity_cycles,
                                    spec_by_id[m.seg_id].overhead_cycles,
                                )
                                for m in members
                                if m.seg_id in spec_by_id
                            },
                            policy=policy,
                            sample_budget=sample_budget,
                        )
                    else:
                        group = MergedReuseTable(
                            spec.merged_group,
                            capacity=group_cap,
                            in_words=members[0].in_words,
                            member_out_words=member_out_words,
                            sample_budget=sample_budget,
                        )
                    merged_built[spec.merged_group] = group
                tables[spec.segment_id] = group.view(str(spec.segment_id))
            elif governed:
                tables[spec.segment_id] = GovernedReuseTable(
                    str(spec.segment_id),
                    capacity=capacity,
                    in_words=spec.in_words,
                    out_words=spec.out_words,
                    granularity=spec.granularity_cycles,
                    overhead=spec.overhead_cycles,
                    policy=policy,
                    sample_budget=sample_budget,
                )
            else:
                tables[spec.segment_id] = ReuseTable(
                    str(spec.segment_id),
                    capacity=capacity,
                    in_words=spec.in_words,
                    out_words=spec.out_words,
                    sample_budget=sample_budget,
                )
        return tables


def spec_size_bytes(spec: TableSpec, result: PipelineResult) -> int:
    cap = 1
    while cap < spec.capacity:
        cap <<= 1
    if spec.merged_group is not None:
        members = result.merged[spec.merged_group]
        bitvec = (len(members) + 31) // 32
        entry = members[0].in_words + bitvec + sum(m.out_words for m in members)
        # count the shared table once, attributed to the first member
        if spec.segment_id != members[0].seg_id:
            return 0
        return cap * entry * 4
    return cap * (spec.in_words + spec.out_words) * 4


class ReusePipeline:
    def __init__(self, source: str, config: Optional[PipelineConfig] = None) -> None:
        self.source = source
        self.config = config or PipelineConfig()

    # -- helpers ------------------------------------------------------------

    def _fresh_program(self) -> tuple[ast.Program, ProgramIndex]:
        """The parsed, resolved and cleaned-up program, with the one
        index the compile's analyses share."""
        program = parse_program(self.source)
        index = ProgramIndex(program)
        analyze(program, index)
        return cleanup(program, index), index

    def _profiling_run(self, program: ast.Program, inputs: Sequence) -> ValueSetProfiler:
        machine = Machine(self.config.opt_level)
        machine.set_inputs(list(inputs))
        profiler = ValueSetProfiler(machine)
        machine.profiler = profiler
        compiled = compile_program(program, machine)
        with get_tracer().span(
            "profile.value", category="profiling", machine=machine
        ) as span:
            compiled.run(self.config.entry)
            if span is not None:
                span.args["segments_seen"] = len(profiler.profiles)
        return profiler

    # -- the pipeline ----------------------------------------------------------

    def run(self, inputs: Sequence = ()) -> PipelineResult:
        """Run the full Figure-1 pipeline.

        Every stage is traced through the process-local
        :class:`~repro.obs.Tracer` (a no-op unless tracing is enabled)
        and every candidate's fate is recorded in a
        :class:`~repro.obs.DecisionLedger` carried on the result.
        """
        config = self.config
        tracer = get_tracer()
        ledger = DecisionLedger()
        with tracer.span("pipeline.run", opt=config.opt_level):
            result = self._run_stages(inputs, tracer, ledger)
        return result

    def _analyze(self, tracer):
        """The static stages: one index, the analyses over it, segment
        enumeration and cost estimates, then specialization with its
        clone-only refresh.  Returns (program, analysis, granularity,
        segments, specialization records)."""
        config = self.config
        with tracer.span("pipeline.analyze"):
            program, index = self._fresh_program()
            analysis = ProgramAnalysis(program, index)
            granularity = GranularityAnalysis(program, index=index)
            segments = enumerate_segments(analysis)
            annotate_costs(segments, granularity)
        specializations: list[SpecializationRecord] = []
        if config.enable_specialization:
            with tracer.span("pipeline.specialize") as span:
                failing = [
                    s
                    for s in segments
                    if s.feasible
                    and s.kind == "function"
                    and not cost_model.passes_prefilter(s.static_granularity, s.overhead)
                ]
                if failing:
                    specializer = Specializer(program, analysis.invariants, index)
                    for segment in failing:
                        specializer.specialize_function(segment.func_name)
                    if specializer.records:
                        specializations = specializer.records
                        resolve_functions(
                            program,
                            specializer.created,
                            index,
                            calls=specializer.rewritten_calls,
                        )
                        analysis.refresh()
                        granularity = GranularityAnalysis(program, index=index)
                        segments = enumerate_segments(analysis)
                        annotate_costs(segments, granularity)
                if span is not None:
                    span.args["specialized"] = len(specializations)
        return program, analysis, granularity, segments, specializations

    def _run_stages(self, inputs: Sequence, tracer, ledger: DecisionLedger) -> PipelineResult:
        config = self.config
        program, analysis, granularity, segments, specializations = self._analyze(tracer)

        # Sub-segment extension (the paper's §5 future work) -----------------
        if config.enable_subsegments:
            from .subsegments import enumerate_subsegments

            subs = enumerate_subsegments(
                analysis, segments, next_id=len(segments)
            )
            annotate_costs(subs, granularity)
            segments = segments + subs
        # keep the facts out of the profiling run's peak memory
        analysis.release_facts()

        for segment in segments:
            ledger.open(segment)
            ledger.record(
                segment.seg_id,
                "feasibility",
                segment.feasible,
                reason=segment.reject_reason or "ok",
            )

        # Pre-filter ------------------------------------------------------------
        with tracer.span("pipeline.prefilter") as span:
            candidates = [s for s in segments if s.feasible]
            for segment in candidates:
                if segment.static_granularity > 0.0:
                    ratio = segment.overhead / segment.static_granularity
                    margin = 1.0 - ratio
                else:
                    ratio, margin = None, -1.0
                passes = cost_model.passes_prefilter(
                    segment.static_granularity, segment.overhead
                )
                ledger.record(
                    segment.seg_id,
                    "prefilter",
                    passes or not config.enable_cost_filter,
                    margin=margin,
                    C=segment.static_granularity,
                    O=segment.overhead,
                    OC=ratio if ratio is not None else "inf",
                )
            if config.enable_cost_filter:
                candidates = [
                    s
                    for s in candidates
                    if cost_model.passes_prefilter(s.static_granularity, s.overhead)
                ]
            if span is not None:
                span.args["candidates"] = len(candidates)

        # Value-set profiling (one run over every candidate) ----------------------
        instrument_program(candidates, program)
        profiler = self._profiling_run(program, inputs)
        strip_instrumentation(program)

        # Frequency filter on that run's execution counts -------------------------
        with tracer.span("profile.freq", category="profiling") as span:
            frequent_ids = frequent_segments(profiler, config.min_executions)
            counts = profiler.execution_counts()
            for segment in candidates:
                executions = counts.get(segment.seg_id, 0)
                ledger.record(
                    segment.seg_id,
                    "frequency",
                    segment.seg_id in frequent_ids,
                    margin=float(executions - config.min_executions),
                    executions=executions,
                    required=config.min_executions,
                )
            profiled = [s for s in candidates if s.seg_id in frequent_ids]
            if span is not None:
                span.args["frequent"] = len(profiled)

        profiles: dict[int, SegmentProfile] = {}
        for segment in profiled:
            profile = profiler.profile(segment.seg_id)
            profiles[segment.seg_id] = profile
            segment.executions = profile.executions
            segment.distinct_inputs = profile.distinct_inputs
            segment.reuse_rate = profile.reuse_rate
            segment.measured_granularity = profile.mean_cycles
            # "we can count the hash collision rate for each value set and
            # deduct the reuse rate accordingly" (§2.1): estimate the hit
            # rate the planned table can actually deliver
            adjusted = _collision_adjusted_rate(
                profile, _capacity_for(segment, config)
            )
            segment.gain = cost_model.gain(
                segment.measured_granularity, segment.overhead, adjusted
            )

            # Cost-benefit test (formula 3), recorded per segment ------------
            profitable_here = (
                segment.gain > 0.0
                if config.enable_cost_filter
                else segment.executions > 0
            )
            ledger.record(
                segment.seg_id,
                "formula3",
                profitable_here,
                margin=segment.gain,
                N=profile.executions,
                N_ds=profile.distinct_inputs,
                R=profile.reuse_rate,
                R_adj=adjusted,
                C=segment.measured_granularity,
                O=segment.overhead,
            )

        if config.enable_cost_filter:
            profitable = [s for s in profiled if s.gain > 0.0]
        else:
            profitable = [s for s in profiled if s.executions > 0]

        # Nesting selection (formulas in section 2.3) -----------------------------------
        with tracer.span("pipeline.nesting") as span:
            if config.enable_nesting_selection and profitable:
                graph = NestingGraph(profitable, analysis)
                selected = graph.select()
                for seg_id, info in graph.explain().items():
                    detail = {k: v for k, v in info.items() if k != "margin"}
                    ledger.record(
                        seg_id,
                        "nesting",
                        info["reason"] == "selected",
                        margin=info["margin"],
                        **detail,
                    )
            else:
                selected = list(profitable)
                for segment in selected:
                    segment.selected = True
                    ledger.record(
                        segment.seg_id, "nesting", True, reason="disabled"
                    )
            if span is not None:
                span.args["selected"] = len(selected)

        # Merging --------------------------------------------------------------------------
        merged: dict[str, list[Segment]] = {}
        if config.enable_merging:
            merged = merge_groups(selected)
            for group_id, members in merged.items():
                for member in members:
                    ledger.record(
                        member.seg_id,
                        "merging",
                        True,
                        group=group_id,
                        members=len(members),
                    )

        # Memory budget: drop lowest-value segments before transforming so
        # the emitted program never probes a table we refused to build
        # (the paper's unmerged GNU Go tables "run out of memory").
        dropped: list[Segment] = []
        if config.memory_budget_bytes is not None:
            with tracer.span("pipeline.budget") as span:
                dropped = _enforce_budget(
                    selected, merged, config, config.memory_budget_bytes
                )
                kept_scores = [s.gain * max(1, s.executions) for s in selected]
                floor = min(kept_scores) if kept_scores else 0.0
                for segment in dropped:
                    score = segment.gain * max(1, segment.executions)
                    ledger.record(
                        segment.seg_id,
                        "budget",
                        False,
                        margin=score - floor,
                        score=score,
                        budget_bytes=config.memory_budget_bytes,
                    )
                if span is not None:
                    span.args["dropped"] = len(dropped)

        # Transformation ----------------------------------------------------------------------
        with tracer.span("pipeline.transform") as span:
            transformer = ReuseTransformer(program, analysis)
            specs: list[TableSpec] = []
            for segment in selected:
                spec = transformer.transform_segment(segment)
                spec.capacity = _capacity_for(segment, config)
                # compile-time half of the online governor: the guard
                # carries the measured C, the O upper bound, and the
                # thresholds the runtime state machine enforces
                spec.governor = config.governor
                spec.sample_budget = config.stats_sample_budget
                specs.append(spec)
                ledger.record(
                    segment.seg_id,
                    "selected",
                    True,
                    margin=segment.gain,
                    capacity=spec.capacity,
                    merged_group=spec.merged_group or "",
                )
            if span is not None:
                span.args["transformed"] = len(specs)

        tracer.event(
            "pipeline.counts",
            category="pipeline",
            analyzed=len(segments),
            profiled=len(profiled),
            transformed=len(selected),
        )
        return PipelineResult(
            program=program,
            segments=segments,
            profiled=profiled,
            profitable=profitable,
            selected=selected,
            table_specs=specs,
            merged=merged,
            specializations=specializations,
            profiles=profiles,
            dropped_for_memory=dropped,
            ledger=ledger,
        )


def _collision_adjusted_rate(profile: SegmentProfile, capacity: int) -> float:
    """The reuse rate deliverable by a direct-addressed, replace-on-
    collision table of the given capacity.

    Keys that share an entry fight for it; under replacement, at best the
    dominant key of each entry keeps its record, so the deliverable hits
    are at most sum(dominant_count - 1) over occupied entries.  With no
    collisions this equals N - N_ds, i.e. the raw reuse rate.
    """
    if profile.executions == 0:
        return 0.0
    mask = _pow2(max(1, capacity)) - 1
    keys, counts = profile.key_counts()
    dominant: dict[int, int] = {}
    for hashed, count in zip(hash_key_batch(keys), counts):
        entry = hashed & mask
        if count > dominant.get(entry, 0):
            dominant[entry] = count
    hits = sum(count - 1 for count in dominant.values())
    return max(0.0, hits / profile.executions)


def _capacity_for(segment: Segment, config: PipelineConfig) -> int:
    if config.table_capacity_override is not None:
        return config.table_capacity_override
    return max(1, int(segment.distinct_inputs / config.load_factor))


def _table_bytes(selected: list[Segment], merged: dict, config: PipelineConfig) -> int:
    total = 0
    counted_groups: set[str] = set()
    for segment in selected:
        cap = _pow2(_capacity_for(segment, config))
        if segment.merged_group is not None and segment.merged_group in merged:
            if segment.merged_group in counted_groups:
                continue
            counted_groups.add(segment.merged_group)
            members = [m for m in merged[segment.merged_group] if m in selected]
            if not members:
                continue
            bitvec = (len(members) + 31) // 32
            entry = members[0].in_words + bitvec + sum(m.out_words for m in members)
            cap = max(_pow2(_capacity_for(m, config)) for m in members)
            total += cap * entry * 4
        else:
            total += cap * (segment.in_words + segment.out_words) * 4
    return total


def _enforce_budget(
    selected: list[Segment],
    merged: dict[str, list[Segment]],
    config: PipelineConfig,
    budget: int,
) -> list[Segment]:
    """Drop lowest-total-gain segments (in place) until the tables fit."""
    dropped: list[Segment] = []
    while selected and _table_bytes(selected, merged, config) > budget:
        worst = min(
            selected, key=lambda s: s.gain * max(1, s.executions)
        )
        selected.remove(worst)
        worst.selected = False
        dropped.append(worst)
        if worst.merged_group is not None and worst.merged_group in merged:
            group_id = worst.merged_group
            group = merged[group_id]
            group.remove(worst)
            worst.merged_group = None
            if len(group) == 1:
                # a single survivor no longer needs a merged table
                group[0].merged_group = None
                del merged[group_id]
    return dropped

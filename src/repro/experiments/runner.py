"""Experiment runner: builds, transforms, and measures workloads.

The runner owns the expensive steps (the profiling pipeline runs once per
workload and is cached) and produces the measurements every table and
figure of the paper is derived from:

* original vs transformed execution at O0 and O3 (cycles -> simulated
  seconds at 206 MHz, energy in Joules);
* runs under alternate (non-profiled) inputs (Table 10);
* runs with capped hash-table sizes (figures 14/15);
* the profiling statistics themselves (Tables 3/4/5, histogram figures).
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from ..minic.parser import parse_program
from ..minic.sema import analyze
from ..obs import get_tracer
from ..opt.pipeline import optimize
from ..reuse.pipeline import PipelineConfig, PipelineResult, ReusePipeline
from ..runtime.compiler import compile_program
from ..runtime.machine import Machine
from ..workloads.base import Workload
from .cache import ExperimentCache, cache_key


@dataclass
class MeasuredRun:
    """One measured execution of one program variant."""

    seconds: float
    cycles: int
    energy_joules: float
    output_checksum: int

    @classmethod
    def from_machine(cls, machine: Machine) -> "MeasuredRun":
        return cls(
            seconds=machine.seconds,
            cycles=machine.cycles,
            energy_joules=machine.energy_joules,
            output_checksum=machine.output_checksum,
        )


@dataclass
class ComparisonRun:
    """Original vs transformed under one optimization level and input."""

    workload: str
    opt_level: str
    original: MeasuredRun
    transformed: MeasuredRun
    table_stats: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.original.seconds / self.transformed.seconds

    @property
    def energy_saving(self) -> float:
        return 1.0 - self.transformed.energy_joules / self.original.energy_joules

    @property
    def outputs_match(self) -> bool:
        return self.original.output_checksum == self.transformed.output_checksum


class ExperimentRunner:
    """Caches pipeline results and input streams per workload.

    ``cache`` is an optional :class:`~repro.experiments.cache.ExperimentCache`
    that persists pipeline results and measured runs to disk across
    processes and invocations; without it, caching is in-memory only.
    """

    def __init__(self, cache: Optional[ExperimentCache] = None) -> None:
        self._cache = cache
        self._pipelines: dict[str, PipelineResult] = {}
        self._inputs: dict[str, list] = {}
        self._alt_inputs: dict[str, list] = {}
        self._comparisons: dict[tuple, ComparisonRun] = {}
        self._originals: dict[tuple, MeasuredRun] = {}
        # analyzed+optimized transformed program per (workload, opt_level):
        # measuring under several inputs / table caps must not re-deepcopy
        # and re-optimize the pipeline's program every run
        self._transformed_programs: dict[tuple[str, str], object] = {}

    # -- cached artifacts ---------------------------------------------------

    def inputs(self, workload: Workload) -> list:
        if workload.name not in self._inputs:
            self._inputs[workload.name] = workload.default_inputs()
        return self._inputs[workload.name]

    def alternate_inputs(self, workload: Workload) -> list:
        if workload.name not in self._alt_inputs:
            self._alt_inputs[workload.name] = workload.alternate_inputs()
        return self._alt_inputs[workload.name]

    def _pipeline_config(self, workload: Workload) -> PipelineConfig:
        return PipelineConfig(
            min_executions=workload.min_executions,
            memory_budget_bytes=workload.memory_budget_bytes,
        )

    def pipeline(self, workload: Workload) -> PipelineResult:
        """Run (once) the full Figure-1 pipeline for the workload."""
        if workload.name not in self._pipelines:
            config = self._pipeline_config(workload)
            inputs = self.inputs(workload)
            key = None
            if self._cache is not None:
                key = cache_key("pipeline", workload.source, asdict(config), inputs)
                cached = self._cache.load_pipeline(key)
                if cached is not None:
                    self._pipelines[workload.name] = cached
                    return cached
            result = ReusePipeline(workload.source, config).run(inputs)
            if self._cache is not None:
                self._cache.store_pipeline(key, result)
            self._pipelines[workload.name] = result
        return self._pipelines[workload.name]

    # -- measured executions ----------------------------------------------------

    def _run_original(
        self, workload: Workload, opt_level: str, inputs: Sequence
    ) -> MeasuredRun:
        key = None
        if self._cache is not None:
            key = cache_key("run-original", workload.source, opt_level, inputs)
            cached = self._cache.load_run(key)
            if cached is not None:
                return cached[0]
        program = analyze(parse_program(workload.source))
        optimize(program, opt_level)
        machine = Machine(opt_level)
        machine.set_inputs(list(inputs))
        with get_tracer().span(
            "run.original",
            category="experiment",
            machine=machine,
            workload=workload.name,
            opt=opt_level,
        ):
            compile_program(program, machine).run("main")
        run = MeasuredRun.from_machine(machine)
        if self._cache is not None:
            self._cache.store_run(key, run)
        return run

    def _transformed_program(self, workload: Workload, opt_level: str):
        """The pipeline's transformed program, analyzed and optimized for
        ``opt_level`` — computed once per (workload, opt_level)."""
        memo_key = (workload.name, opt_level)
        program = self._transformed_programs.get(memo_key)
        if program is None:
            # optimize a private copy so the cached pipeline program stays O0
            program = copy.deepcopy(self.pipeline(workload).program)
            analyze(program)
            optimize(program, opt_level)
            self._transformed_programs[memo_key] = program
        return program

    def _run_transformed(
        self,
        workload: Workload,
        opt_level: str,
        inputs: Sequence,
        max_table_bytes: Optional[int] = None,
    ) -> tuple[MeasuredRun, dict]:
        key = None
        if self._cache is not None:
            key = cache_key(
                "run-transformed",
                workload.source,
                asdict(self._pipeline_config(workload)),
                opt_level,
                max_table_bytes,
                inputs,
            )
            cached = self._cache.load_run(key)
            if cached is not None and cached[1] is not None:
                return cached
        result = self.pipeline(workload)
        program = self._transformed_program(workload, opt_level)
        machine = Machine(opt_level)
        machine.set_inputs(list(inputs))
        tables = result.build_tables(max_table_bytes)
        for seg_id, table in tables.items():
            machine.install_table(seg_id, table)
        with get_tracer().span(
            "run.transformed",
            category="experiment",
            machine=machine,
            workload=workload.name,
            opt=opt_level,
            tables=len(tables),
        ):
            compile_program(program, machine).run("main")
        stats = {seg_id: table.stats for seg_id, table in tables.items()}
        run = MeasuredRun.from_machine(machine)
        if self._cache is not None:
            self._cache.store_run(key, run, stats)
        return run, stats

    def compare(
        self,
        workload: Workload,
        opt_level: str = "O0",
        alternate: bool = False,
        max_table_bytes: Optional[int] = None,
    ) -> ComparisonRun:
        """Measure original vs transformed under one configuration.

        Results are cached per configuration: Tables 8/9 reuse the very
        runs of Tables 6/7, and the size sweeps reuse original runs."""
        key = (workload.name, opt_level, alternate, max_table_bytes)
        if key in self._comparisons:
            return self._comparisons[key]
        with get_tracer().span(
            "experiment.compare",
            category="experiment",
            workload=workload.name,
            opt=opt_level,
            alternate=alternate,
            max_table_bytes=max_table_bytes if max_table_bytes is not None else -1,
        ):
            inputs = (
                self.alternate_inputs(workload) if alternate else self.inputs(workload)
            )
            original_key = (workload.name, opt_level, alternate)
            original = self._originals.get(original_key)
            if original is None:
                original = self._run_original(workload, opt_level, inputs)
                self._originals[original_key] = original
            transformed, stats = self._run_transformed(
                workload, opt_level, inputs, max_table_bytes=max_table_bytes
            )
        run = ComparisonRun(
            workload=workload.name,
            opt_level=opt_level,
            original=original,
            transformed=transformed,
            table_stats=stats,
        )
        if not run.outputs_match:
            raise AssertionError(
                f"{workload.name}: transformed output diverged from original"
            )
        self._comparisons[key] = run
        return run

    # -- profiling-derived data -----------------------------------------------------

    def headline_segment(self, workload: Workload):
        """The selected segment with the largest total gain (the one the
        paper's Table 3 reports for each program)."""
        result = self.pipeline(workload)
        if not result.selected:
            raise ValueError(f"{workload.name}: nothing was transformed")
        return max(result.selected, key=lambda s: s.gain * max(1, s.executions))

    def headline_profile(self, workload: Workload):
        segment = self.headline_segment(workload)
        return self.pipeline(workload).profiles[segment.seg_id]


def harmonic_mean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return len(values) / sum(1.0 / v for v in values)

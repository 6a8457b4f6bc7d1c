"""Builders for every table of the paper's evaluation (Tables 3-10).

Each function returns a list of row dataclasses/dicts plus aggregate
values; :mod:`repro.experiments.report` renders them as text.  Column
meanings follow the paper exactly; values come from our simulated
platform, with the paper's numbers carried alongside for the shape
comparison in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..profiling.valueset import LRU_SIZES
from ..runtime.costs import CLOCK_HZ
from ..runtime.hashtable import entry_words, table_bytes
from ..workloads.base import Workload
from ..workloads.registry import ALL_WORKLOADS, PRIMARY_WORKLOADS
from .runner import ExperimentRunner, harmonic_mean


def _us(cycles: float) -> float:
    return cycles / CLOCK_HZ * 1e6


# -- Table 3: factors affecting the optimization decision --------------------


@dataclass
class Table3Row:
    program: str
    computation_us: float  # C, measured granularity per execution
    overhead_us: float  # O
    distinct_inputs: int  # DIP#
    reuse_rate: float  # R
    table_bytes: int
    paper_computation_us: float
    paper_overhead_us: float
    paper_distinct_inputs: int
    paper_reuse_rate: float
    paper_table_bytes: int


def table3(runner: ExperimentRunner, workloads: Optional[list[Workload]] = None):
    rows = []
    for workload in workloads or PRIMARY_WORKLOADS:
        segment = runner.headline_segment(workload)
        result = runner.pipeline(workload)
        table_bytes = result.total_table_bytes()
        rows.append(
            Table3Row(
                program=workload.name,
                computation_us=_us(segment.measured_granularity),
                overhead_us=_us(segment.overhead),
                distinct_inputs=segment.distinct_inputs,
                reuse_rate=segment.reuse_rate,
                table_bytes=table_bytes,
                paper_computation_us=workload.paper.granularity_us,
                paper_overhead_us=workload.paper.overhead_us,
                paper_distinct_inputs=workload.paper.distinct_inputs,
                paper_reuse_rate=workload.paper.reuse_rate,
                paper_table_bytes=workload.paper.table_bytes,
            )
        )
    return rows


# -- Table 4: number of code segments ------------------------------------------


@dataclass
class Table4Row:
    program: str
    functions: str
    analyzed: int
    profiled: int
    transformed: int
    code_lines: int
    paper_analyzed: int
    paper_profiled: int
    paper_transformed: int


def table4(runner: ExperimentRunner, workloads: Optional[list[Workload]] = None):
    rows = []
    for workload in workloads or PRIMARY_WORKLOADS:
        result = runner.pipeline(workload)
        counts = result.counts
        functions = ", ".join(sorted({s.func_name for s in result.selected}))
        code_lines = sum(1 for line in workload.source.splitlines() if line.strip())
        rows.append(
            Table4Row(
                program=workload.name,
                functions=functions or workload.key_function,
                analyzed=counts["analyzed"],
                profiled=counts["profiled"],
                transformed=counts["transformed"],
                code_lines=code_lines,
                paper_analyzed=workload.paper.analyzed_cs,
                paper_profiled=workload.paper.profiled_cs,
                paper_transformed=workload.paper.transformed_cs,
            )
        )
    return rows


# -- Table 5: hit ratios with limited buffers ------------------------------------


@dataclass
class Table5Row:
    program: str
    hit_ratios: dict  # {1: r, 4: r, 16: r, 64: r}
    buffer64_bytes: int
    paper_hit_ratios: tuple


def table5(runner: ExperimentRunner, workloads: Optional[list[Workload]] = None):
    rows = []
    for workload in workloads or PRIMARY_WORKLOADS:
        profile = runner.headline_profile(workload)
        segment = runner.headline_segment(workload)
        words = entry_words(segment.in_words, [segment.out_words])
        rows.append(
            Table5Row(
                program=workload.name,
                hit_ratios={size: profile.lru_hit_ratio(size) for size in LRU_SIZES},
                buffer64_bytes=table_bytes(64, words),
                paper_hit_ratios=workload.paper.lru_hits,
            )
        )
    return rows


# -- Tables 6/7: performance improvement -------------------------------------------


@dataclass
class SpeedupRow:
    program: str
    original_s: float
    transformed_s: float
    speedup: float
    paper_speedup: float
    in_mean: bool  # variants excluded from the harmonic mean


def speedup_table(
    runner: ExperimentRunner,
    opt_level: str,
    workloads: Optional[list[Workload]] = None,
):
    """Table 6 (O0) / Table 7 (O3)."""
    rows = []
    for workload in workloads or ALL_WORKLOADS:
        run = runner.compare(workload, opt_level=opt_level)
        paper = (
            workload.paper.speedup_o0 if opt_level == "O0" else workload.paper.speedup_o3
        )
        rows.append(
            SpeedupRow(
                program=workload.name,
                original_s=run.original.seconds,
                transformed_s=run.transformed.seconds,
                speedup=run.speedup,
                paper_speedup=paper,
                in_mean=not workload.is_variant,
            )
        )
    mean = harmonic_mean([r.speedup for r in rows if r.in_mean])
    return rows, mean


def table6(runner: ExperimentRunner, workloads=None):
    return speedup_table(runner, "O0", workloads)


def table7(runner: ExperimentRunner, workloads=None):
    return speedup_table(runner, "O3", workloads)


# -- Tables 8/9: energy saving ---------------------------------------------------------


@dataclass
class EnergyRow:
    program: str
    original_j: float
    transformed_j: float
    saving: float
    paper_saving: float


def energy_table(
    runner: ExperimentRunner,
    opt_level: str,
    workloads: Optional[list[Workload]] = None,
):
    """Table 8 (O0) / Table 9 (O3); primary programs only, as in the paper."""
    rows = []
    for workload in workloads or PRIMARY_WORKLOADS:
        run = runner.compare(workload, opt_level=opt_level)
        paper = (
            workload.paper.energy_saving_o0
            if opt_level == "O0"
            else workload.paper.energy_saving_o3
        )
        rows.append(
            EnergyRow(
                program=workload.name,
                original_j=run.original.energy_joules,
                transformed_j=run.transformed.energy_joules,
                saving=run.energy_saving,
                paper_saving=paper,
            )
        )
    return rows


def table8(runner: ExperimentRunner, workloads=None):
    return energy_table(runner, "O0", workloads)


def table9(runner: ExperimentRunner, workloads=None):
    return energy_table(runner, "O3", workloads)


# -- Table 10: different input files ------------------------------------------------------


@dataclass
class Table10Row:
    program: str
    input_source: str
    original_s: float
    transformed_s: float
    speedup: float
    paper_speedup: float


def table10(runner: ExperimentRunner, workloads: Optional[list[Workload]] = None):
    """Transformed with default-input profiling, measured on alternate
    inputs, at O3 (as in the paper)."""
    rows = []
    for workload in workloads or PRIMARY_WORKLOADS:
        run = runner.compare(workload, opt_level="O3", alternate=True)
        rows.append(
            Table10Row(
                program=workload.name,
                input_source=workload.alternate_label,
                original_s=run.original.seconds,
                transformed_s=run.transformed.seconds,
                speedup=run.speedup,
                paper_speedup=workload.paper.speedup_alternate,
            )
        )
    mean = harmonic_mean([r.speedup for r in rows])
    return rows, mean

"""Observability must never change a measured number.

With tracing disabled (the default), and equally with tracing *enabled*,
the pipeline must make bit-identical decisions and the measured runs must
produce bit-identical metrics for every registered workload at O0 and O3
— the tracer and ledger are pure observers.
"""

import copy

import pytest

from repro.minic.sema import analyze
from repro.obs import Tracer, set_tracer
from repro.opt.pipeline import optimize
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime.compiler import compile_program
from repro.runtime.machine import Machine
from repro.workloads.registry import ALL_WORKLOADS

# Same prefix trick as the fusion differential: every workload polls
# __input_avail, so a prefix keeps the full-registry sweep fast.
_INPUT_PREFIX = 1024

_cache: dict[str, tuple] = {}


def _pipelines(workload):
    """(untraced result, traced result, inputs) for one workload."""
    if workload.name not in _cache:
        inputs = workload.default_inputs()[:_INPUT_PREFIX]
        config = PipelineConfig(
            min_executions=workload.min_executions,
            memory_budget_bytes=workload.memory_budget_bytes,
        )
        previous = set_tracer(Tracer(enabled=False))
        try:
            untraced = ReusePipeline(workload.source, config).run(inputs)
        finally:
            set_tracer(previous)
        previous = set_tracer(Tracer(enabled=True))
        try:
            traced = ReusePipeline(workload.source, config).run(inputs)
        finally:
            set_tracer(previous)
        _cache[workload.name] = (untraced, traced, inputs)
    return _cache[workload.name]


def _measure_transformed(result, opt_level, inputs, tracer):
    program = copy.deepcopy(result.program)
    analyze(program)
    optimize(program, opt_level)
    machine = Machine(opt_level)
    machine.set_inputs(list(inputs))
    for seg_id, table in result.build_tables().items():
        machine.install_table(seg_id, table)
    previous = set_tracer(tracer)
    try:
        compile_program(program, machine).run("main")
    finally:
        set_tracer(previous)
    return machine.metrics()


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_pipeline_decisions_identical(workload):
    untraced, traced, _ = _pipelines(workload)
    assert untraced.counts == traced.counts
    assert [s.seg_id for s in untraced.selected] == [
        s.seg_id for s in traced.selected
    ]
    assert [s.gain for s in untraced.selected] == [s.gain for s in traced.selected]
    assert [
        (sp.segment_id, sp.capacity, sp.in_words, sp.out_words, sp.merged_group)
        for sp in untraced.table_specs
    ] == [
        (sp.segment_id, sp.capacity, sp.in_words, sp.out_words, sp.merged_group)
        for sp in traced.table_specs
    ]


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_transformed_metrics_identical(workload, opt_level):
    untraced, traced, inputs = _pipelines(workload)
    off = _measure_transformed(untraced, opt_level, inputs, Tracer(enabled=False))
    on = _measure_transformed(traced, opt_level, inputs, Tracer(enabled=True))
    # Metrics equality covers counters, cycles, seconds, joules, checksum,
    # per-segment TableStats (incl. the sampled series), merged membership.
    assert off == on


def test_ledger_produced_either_way():
    # the ledger is bookkeeping, not tracing: it is on in both modes
    workload = ALL_WORKLOADS[0]
    untraced, traced, _ = _pipelines(workload)
    assert set(untraced.ledger.records) == set(traced.ledger.records)


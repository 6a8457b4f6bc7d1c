"""One profiling run per compile equals the paper's two-run scheme.

The pipeline profiles every candidate segment in a single value-set run
and applies the frequency cut to that run's execution counts.  The paper
(and this pipeline before) ran a count-only pass first and then a
value-set pass restricted to the frequent segments.  A segment's profile
does not depend on which other segments are profiled, and the profiling
stubs are zero-cost, so both schemes must give every frequent segment
the same N, N_ds, value histogram (in insertion order), inclusive cycles
and LRU hit ratios.  These tests build the two-run reference from the
very program the pipeline instrumented and compare, on both backends.
"""

import copy

import pytest

from repro.profiling import LRU_SIZES, ValueSetProfiler, frequent_segments
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime import Machine
from repro.runtime.compiler import compile_program
from repro.workloads.registry import get_workload

# (workload, input prefix, min_executions): loop segments (G721_encode,
# UNEPIC, RASTA), function segments with merged tables (GNUGO); each
# threshold rejects some candidates at the frequency stage
CASES = [
    ("G721_encode", 1024, 2000),
    ("UNEPIC", 1024, 2000),
    ("GNUGO", 4096, 1000),
    ("RASTA", 1024, 2000),
]


def _profiling_run(program, inputs, allowed=None):
    machine = Machine("O0")
    machine.set_inputs(list(inputs))
    profiler = ValueSetProfiler(machine, allowed=allowed)
    machine.profiler = profiler
    compile_program(program, machine).run("main")
    return profiler


def _two_run_reference(program, inputs, min_executions):
    counting = _profiling_run(copy.deepcopy(program), inputs)
    frequent = frequent_segments(counting, min_executions)
    return frequent, _profiling_run(program, inputs, allowed=frequent)


@pytest.mark.parametrize("backend", ["closures", "vm"])
@pytest.mark.parametrize("name,n_inputs,min_executions", CASES)
def test_single_run_matches_two_run_reference(
    monkeypatch, backend, name, n_inputs, min_executions
):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    workload = get_workload(name)
    inputs = workload.default_inputs()[:n_inputs]

    instrumented = []
    profile_once = ReusePipeline._profiling_run

    def spy(self, program, run_inputs):
        instrumented.append(copy.deepcopy(program))
        return profile_once(self, program, run_inputs)

    monkeypatch.setattr(ReusePipeline, "_profiling_run", spy)
    config = PipelineConfig(min_executions=min_executions)
    result = ReusePipeline(workload.source, config).run(inputs)
    assert len(instrumented) == 1, "the pipeline must profile exactly once"

    frequent, reference = _two_run_reference(instrumented[0], inputs, min_executions)
    verdicts = [
        verdict
        for record in result.ledger.to_json()["segments"]
        for verdict in record["verdicts"]
        if verdict["stage"] == "frequency"
    ]
    assert any(not v["passed"] for v in verdicts), "threshold rejects nothing"
    assert sum(v["passed"] for v in verdicts) == len(frequent) > 0
    assert {s.seg_id for s in result.profiled} == frequent
    assert set(result.profiles) == frequent
    if name == "GNUGO":
        assert result.merged

    for seg_id in frequent:
        got = result.profiles[seg_id]
        want = reference.profiles[seg_id]
        assert got.executions == want.executions, seg_id
        assert got.distinct_inputs == want.distinct_inputs, seg_id
        assert list(got.value_counts.items()) == list(want.value_counts.items())
        assert got.inclusive_cycles == want.inclusive_cycles, seg_id
        for size in LRU_SIZES:
            assert got.lru_hit_ratio(size) == want.lru_hit_ratio(size), (seg_id, size)

"""The VM's translated source: the running cycle total and its shape.

A VM translation made with a cycle-reading observer installed (the
value-set profiler or the cycle profiler) keeps ``Machine.cycle_total``
up to date at every charge, and the observers read it instead of
``cost.cycles_for(counters)``.  After every observed run over the VM
differential matrix (every workload x O0/O3 x static/governed tables)
the total must equal the dot product of the per-class counts, and so
after the pipeline's own value-profiling run, at O0 and O3.  A
translation with no observer must not mention the total at all.

Observed or not, no translated function wraps a bare register, hoist
name or literal in grouping parentheses: the parser's transient memory
on a large function grows with its tokens.
"""

import copy
import re

import pytest

from repro.minic.sema import analyze
from repro.obs.profiler import CycleProfiler
from repro.opt.pipeline import optimize
from repro.profiling import ValueSetProfiler
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime.compiler import compile_program
from repro.runtime.governor import GovernorPolicy
from repro.runtime.machine import Machine
from repro.workloads.registry import ALL_WORKLOADS

_INPUT_PREFIX = 1024

# "(r3)", "(_h2)", "(7)" — but not a call's "f(r3)"
_PAREN_ATOM = re.compile(r"(?<![\w\])])\((?:r\d+|_[hp]\d+|\d+(?:\.\d+)?(?:e[+-]?\d+)?)\)")

_cache: dict[str, tuple] = {}


class _KeepInstrumented(ReusePipeline):
    """Keeps a copy of the program its value-profiling run executes."""

    def _profiling_run(self, program, inputs):
        self.instrumented = copy.deepcopy(program)
        return super()._profiling_run(program, inputs)


def _pipeline(workload):
    """(result, inputs, instrumented program) of the workload's pipeline."""
    if workload.name not in _cache:
        inputs = workload.default_inputs()[:_INPUT_PREFIX]
        config = PipelineConfig(
            min_executions=workload.min_executions,
            memory_budget_bytes=workload.memory_budget_bytes,
            governor=workload.governor or GovernorPolicy(),
        )
        pipeline = _KeepInstrumented(workload.source, config)
        result = pipeline.run(inputs)
        _cache[workload.name] = (result, inputs, pipeline.instrumented)
    return _cache[workload.name]


def _source(compiled) -> str:
    return "\n".join(fn.call.vm_source for fn in compiled.functions.values())


def _machine(result, opt_level, inputs, governed):
    program = copy.deepcopy(result.program)
    analyze(program)
    optimize(program, opt_level)
    machine = Machine(opt_level, backend="vm")
    machine.set_inputs(list(inputs))
    for seg_id, table in result.build_tables(governed=governed).items():
        machine.install_table(seg_id, table)
    return program, machine


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_total_equals_dot_product_after_observed_runs(workload, opt_level, governed):
    result, inputs, _ = _pipeline(workload)
    observers = [
        ("value", None),
        ("cycles", False),
        ("cycles", True),
    ]
    cycles = set()
    for kind, lines in observers:
        program, machine = _machine(result, opt_level, inputs, governed)
        profiler = None
        if kind == "value":
            machine.profiler = ValueSetProfiler(machine)
        else:
            profiler = CycleProfiler(machine, lines=lines)
            machine.cycle_profiler = profiler
        compiled = compile_program(program, machine)
        source = _source(compiled)
        assert "_cy[0]" in source
        assert not _PAREN_ATOM.search(source)
        compiled.run("main")
        assert machine.cycle_total == [machine.cost.cycles_for(machine.counters)]
        if profiler is not None:
            profile = profiler.finalize()
            assert profile.total_cycles == machine.cycles
            if lines:
                assert profile.line_total() == machine.cycles
        cycles.add(machine.cycles)
    assert len(cycles) == 1


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_total_equals_dot_product_after_value_profiling_run(workload, opt_level):
    """The pipeline's own profiling run: the instrumented program, whose
    segment entries and exits read the total."""
    _, inputs, instrumented = _pipeline(workload)
    machine = Machine(opt_level, backend="vm")
    machine.set_inputs(list(inputs))
    profiler = ValueSetProfiler(machine)
    machine.profiler = profiler
    compiled = compile_program(copy.deepcopy(instrumented), machine)
    assert "_ve" in _source(compiled)
    compiled.run("main")
    assert profiler.profiles
    assert machine.cycle_total == [machine.cost.cycles_for(machine.counters)]


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_unobserved_translation(workload, opt_level):
    result, inputs, _ = _pipeline(workload)
    program, machine = _machine(result, opt_level, inputs, governed=False)
    compiled = compile_program(program, machine)
    source = _source(compiled)
    assert not re.search(r"\b_c[yw]\b", source)
    assert not _PAREN_ATOM.search(source)
    compiled.run("main")
    assert machine.cycle_total == [0]

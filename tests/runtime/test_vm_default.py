"""The VM is the default engine; the closure tree is its exact oracle.

* ``Machine()`` with ``REPRO_BACKEND`` unset compiles to the register VM,
  and the reuse pipeline's profiling run executes there too;
  ``backend="closures"`` (or ``REPRO_BACKEND=closures``) still selects
  the unfused closure tree.
* Translation is all or nothing: when one function cannot be
  translated, ``compile_program`` compiles the *whole* program on
  closures, leaving nothing of the abandoned VM build behind — the run
  is indistinguishable from an explicit ``backend="closures"`` run.
"""

import copy

import pytest

from repro.experiments.adaptive import workload_config
from repro.minic.sema import analyze
from repro.reuse import pipeline as pipeline_module
from repro.reuse.pipeline import ReusePipeline
from repro.runtime.compiler import CompiledProgram, compile_program
from repro.runtime.machine import Machine
from repro.runtime.srcmap import SourceMap
from repro.runtime.vm import VMProgram
from repro.runtime.vm import vm as vm_engine
from repro.workloads import get_workload

# one refused function per program, never the first: the functions
# translated before it must leave nothing behind
_REFUSED = {"G721_encode": "predict", "GNUGO": "main"}

# profile on the whole stream (GNUGO selects nothing on less), measure
# on a prefix — every workload polls __input_avail
_MEASURE_PREFIX = 2048


def _pipeline(name):
    workload = get_workload(name)
    inputs = workload.default_inputs()
    return ReusePipeline(workload.source, workload_config(workload)).run(inputs), inputs


def _measure(result, inputs, backend):
    program = copy.deepcopy(result.program)
    analyze(program)
    machine = Machine("O0", backend=backend)
    machine.source_map = SourceMap()
    machine.set_inputs(list(inputs[:_MEASURE_PREFIX]))
    for seg_id, table in result.build_tables(governed=True).items():
        machine.install_table(seg_id, table)
    compiled = compile_program(program, machine)
    value = compiled.run("main")
    return compiled, value, machine.metrics(), machine.source_map


def test_machine_defaults_to_vm(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert Machine().backend == "vm"
    assert Machine(backend="closures").backend == "closures"
    monkeypatch.setenv("REPRO_BACKEND", "closures")
    assert Machine().backend == "closures"


def test_pipeline_profiling_run_executes_on_vm(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    seen = []
    real_compile = pipeline_module.compile_program

    def spy(program, machine):
        compiled = real_compile(program, machine)
        seen.append((machine.backend, type(compiled)))
        return compiled

    monkeypatch.setattr(pipeline_module, "compile_program", spy)
    result, _ = _pipeline("RASTA")
    assert result.selected
    assert seen == [("vm", VMProgram)]


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_untranslatable_function_falls_back_whole_program(name, monkeypatch):
    result, inputs = _pipeline(name)
    oracle, oracle_value, oracle_metrics, oracle_map = _measure(
        result, inputs, "closures"
    )

    real_translate = vm_engine.install_translated
    attempted = []

    def refuse_one(vmfn):
        attempted.append(vmfn.name)
        if vmfn.name == _REFUSED[name]:
            raise vm_engine.Untranslatable("forced by the test")
        return real_translate(vmfn)

    monkeypatch.setattr(vm_engine, "install_translated", refuse_one)
    compiled, value, metrics, source_map = _measure(result, inputs, "vm")

    assert _REFUSED[name] in attempted and attempted[0] != _REFUSED[name]
    assert type(compiled) is type(oracle) is CompiledProgram
    assert value == oracle_value
    # the whole dataclass: cycles, counts, checksum, per-table TableStats
    # (non-empty: the tables were probed), governor snapshots
    assert metrics.table_stats
    assert metrics == oracle_metrics
    # no VM residue: no pc tables, no CHARGE breakdowns, closures stamp
    assert source_map.backend == oracle_map.backend == "closures"
    assert source_map.to_dict() == oracle_map.to_dict()

"""Line-level attribution must conserve cycles and observe nothing.

Three pinned properties of the ``profile="lines"`` mode behind
``repro annotate``:

* **Line conservation** — bucketing every simulated cycle by source
  line tiles the run: ``CycleProfile.line_total()`` reproduces
  ``Metrics.cycles`` bit-exactly, on both backends, at O0 and O3.
* **Backend agreement** — the closure tree and the bytecode VM charge
  the *same lines the same cycles* (the line marks sit at charge-flush
  boundaries, so the per-line dicts match bit-for-bit), and their
  source maps locate every reuse site on the same lines.
* **Zero observer effect** — recording a :class:`SourceMap` never
  changes the emitted bytecode, and a line-mode run produces the same
  metrics (cycles, checksum, outputs) as a plain or tree-profiled run.
"""

import pytest

from repro import api
from repro.experiments.adaptive import workload_config
from repro.workloads import get_workload

# a loop-segment workload and a function-segment workload keep the sweep
# representative but cheap; the full 14-workload reconciliation is the
# acceptance sweep behind ``repro annotate`` itself
WORKLOADS = ("UNEPIC", "G721_encode")

_cache: dict[tuple, api.RunResult] = {}


def _line_run(name: str, opt: str, backend: str):
    key = (name, opt, backend)
    if key not in _cache:
        workload = get_workload(name)
        program = api.compile(
            workload.source,
            api.CompileOptions(
                opt=opt,
                config=workload_config(workload),
                profile="lines",
                backend=backend,
            ),
        )
        inputs = workload.default_inputs()
        program.profile(inputs)
        _cache[key] = program.run(inputs)
    return _cache[key]


@pytest.mark.parametrize("backend", ["closures", "vm"])
@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_line_attribution_conserves_cycles(name, opt, backend):
    result = _line_run(name, opt, backend)
    profile = result.profile()
    assert profile.lines, "line mode must populate per-line buckets"
    assert profile.line_total() == result.metrics.cycles
    # and the tree-level conservation still holds underneath
    assert profile.total_cycles == result.metrics.cycles


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_backends_agree_line_for_line(name, opt):
    closures = _line_run(name, opt, "closures")
    vm = _line_run(name, opt, "vm")
    assert closures.metrics.cycles == vm.metrics.cycles
    assert closures.metrics.output_checksum == vm.metrics.output_checksum
    c_lines = {k: tuple(v) for k, v in closures.profile().lines.items()}
    v_lines = {k: tuple(v) for k, v in vm.profile().lines.items()}
    assert c_lines == v_lines
    # the source maps agree on where every reuse site lives
    assert closures.source_map.backend == "closures"
    assert vm.source_map.backend == "vm"
    assert closures.source_map.sites() == vm.source_map.sites()


def test_source_map_emission_does_not_change_bytecode():
    from repro.minic.parser import parse_program
    from repro.minic.sema import analyze
    from repro.runtime.machine import Machine
    from repro.runtime.srcmap import SourceMap
    from repro.runtime.vm.vm import compile_vm_program

    source = get_workload("UNEPIC").source

    def _compile(with_map):
        program = parse_program(source)
        analyze(program)
        machine = Machine("O0", backend="vm")
        if with_map:
            machine.source_map = SourceMap()
        vm_program = compile_vm_program(program, machine)
        return {
            name: (tuple(fn.code), tuple(fn.consts))
            for name, fn in vm_program.functions.items()
        }

    assert _compile(with_map=False) == _compile(with_map=True)


@pytest.mark.parametrize("backend", ["closures", "vm"])
def test_line_mode_has_no_observer_effect(backend):
    workload = get_workload("UNEPIC")
    inputs = workload.default_inputs()
    results = {}
    for profile in (False, True, "lines"):
        program = api.compile(
            workload.source,
            api.CompileOptions(
                config=workload_config(workload),
                profile=profile,
                backend=backend,
            ),
        )
        program.profile(inputs)
        result = program.run(inputs)
        results[profile] = (
            result.metrics.cycles,
            result.metrics.output_checksum,
            result.value,
        )
    assert results[False] == results[True] == results["lines"]


def test_rejects_unknown_profile_mode():
    with pytest.raises(api.ConfigError):
        api.compile(
            "int main(void) { return 0; }", api.CompileOptions(profile="bogus")
        )

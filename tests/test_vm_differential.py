"""The bytecode VM must be bit-identical to the closure oracle.

``Machine(backend="vm")`` (the default) compiles mini-C to flat register
bytecode and translates each function back into Python; the unfused
closure tree stays the reference implementation.  Whatever the backend, one measured run must produce the same simulated
cycles, output checksum, per-table statistics, governor telemetry, and
ledger verdicts — that differential is what licenses using the (much
faster) VM for any measurement in this repo.

Two layers of checks:

* the full sweep — every registered workload at O0/O3 with static and
  governed tables, closures vs the VM, compared on the entire
  :class:`~repro.runtime.machine.Metrics` dataclass (the untransformed
  sweep lives in ``tests/runtime/test_fusion.py``);
* opcode-level units — reuse probes/commits are first-class ops in the
  stream, observer ops are emitted only when an observer is installed
  (a metrics registry is not one: a metered program's bytecode equals
  an unmetered one's), and the probe/commit protocol hits and bypasses
  exactly like the closure intrinsics.
"""

import copy
from dataclasses import asdict

import pytest

import repro
from repro.minic.sema import analyze
from repro.experiments.cache import ExperimentCache, cache_key
from repro.obs.profiler import CycleProfiler
from repro.opt.pipeline import optimize
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime.compiler import compile_program
from repro.runtime.governor import GovernorPolicy
from repro.runtime.machine import Machine
from repro.runtime.vm import compile_vm_program, vm_opcodes as op
from repro.workloads.registry import ALL_WORKLOADS, get_workload

# Same prefix trick as the governor differential: every workload
# polls __input_avail, so a prefix keeps the sweep fast while touching
# every segment kind.
_INPUT_PREFIX = 1024

_cache: dict[str, tuple] = {}
_closure_cache: dict[tuple, object] = {}


def _config(workload):
    return PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
        governor=workload.governor or GovernorPolicy(),
    )


def _pipeline(workload):
    if workload.name not in _cache:
        inputs = workload.default_inputs()[:_INPUT_PREFIX]
        result = ReusePipeline(workload.source, _config(workload)).run(inputs)
        _cache[workload.name] = (result, inputs)
    return _cache[workload.name]


def _measure(result, opt_level, inputs, governed, backend):
    program = copy.deepcopy(result.program)
    analyze(program)
    optimize(program, opt_level)
    machine = Machine(opt_level, backend=backend)
    machine.set_inputs(list(inputs))
    for seg_id, table in result.build_tables(governed=governed).items():
        machine.install_table(seg_id, table)
    value = compile_program(program, machine).run("main")
    return value, machine.metrics()


def _closure_run(workload, opt_level, governed):
    key = (workload.name, opt_level, governed)
    if key not in _closure_cache:
        result, inputs = _pipeline(workload)
        _closure_cache[key] = _measure(
            result, opt_level, inputs, governed, "closures"
        )
    return _closure_cache[key]


# -- full sweep: VM vs closures ----------------------------------------------


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_vm_matches_closures(workload, opt_level, governed):
    result, inputs = _pipeline(workload)
    base_value, base_metrics = _closure_run(workload, opt_level, governed)
    vm_value, vm_metrics = _measure(result, opt_level, inputs, governed, "vm")
    assert vm_value == base_value
    # the whole dataclass: cycles, seconds, joules, checksum, per-table
    # TableStats (incl. sampled hit-ratio series), governor snapshots
    assert vm_metrics == base_metrics


def _bytecode(vm_program):
    return {
        name: (fn.code, fn.consts) for name, fn in vm_program.functions.items()
    }


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_metered_bytecode_identical(workload, opt_level, tmp_path):
    """Metrics are published after a run from the tables' own tallies, so
    a metered session's warm executable is the unmetered one's bytecode."""
    result, inputs = _pipeline(workload)
    config = _config(workload)
    cache = ExperimentCache(tmp_path)
    cache.store_pipeline(
        cache_key("pipeline", workload.source, asdict(config), list(inputs)), result
    )
    codes = []
    for metrics in (None, True):
        with repro.Session(
            repro.CompileOptions(opt=opt_level, backend="vm", config=config),
            cache=cache,
            metrics=metrics,
        ) as session:
            program = session.compile(workload.source)
            program.run(inputs)
            ((_, executable),) = program._idle
            codes.append(_bytecode(executable))
    assert codes[0] == codes[1]


# -- ledger verdicts ---------------------------------------------------------


def test_governor_ledger_verdicts_identical():
    """A governed api-level run appends the governor stage to the ledger;
    both backends must record the same verdicts with the same numbers."""
    workload = get_workload("UNEPIC_drift")
    inputs = workload.default_inputs()[:_INPUT_PREFIX]

    def verdicts(backend):
        program = repro.compile(
            workload.source,
            repro.CompileOptions(
                governed=True,
                backend=backend,
                config=PipelineConfig(
                    min_executions=workload.min_executions,
                    memory_budget_bytes=workload.memory_budget_bytes,
                    governor=workload.governor or GovernorPolicy(),
                ),
            ),
        )
        run = program.run(inputs)
        assert run.ledger is not None
        return {
            seg_id: [v for v in record.verdicts if v.stage == "governor"]
            for seg_id, record in run.ledger.records.items()
        }

    closure_verdicts = verdicts("closures")
    vm_verdicts = verdicts("vm")
    assert any(v for v in closure_verdicts.values())
    assert vm_verdicts == closure_verdicts


# -- opcode-level: probes and observer ops in the instruction stream ---------

KERNEL_PROGRAM = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};
static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 10; i++)
        r += tab[i & 7] * ((v + i) & 63) + v % (i + 2);
    return r;
}
int main(void) {
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}
"""

_PROFILE_INPUTS = [3, 9, 3, 17, 9, 3] * 40


def _transformed_result():
    return ReusePipeline(KERNEL_PROGRAM, PipelineConfig(min_executions=16)).run(
        list(_PROFILE_INPUTS)
    )


def _opcodes(vm_program):
    return {
        ins[0] for fn in vm_program.functions.values() for ins in fn.code
    }


def test_probe_and_commit_are_first_class_ops():
    result = _transformed_result()
    assert result.selected, "pipeline must transform the kernel"
    program = copy.deepcopy(result.program)
    analyze(program)
    machine = Machine("O0", backend="vm")
    ops = _opcodes(compile_vm_program(program, machine))
    assert op.PROBE in ops and op.COMMIT in ops and op.REND in ops
    # the untransformed program carries no reuse ops at all
    from repro.minic import frontend

    plain_ops = _opcodes(
        compile_vm_program(frontend(KERNEL_PROGRAM), Machine("O0", backend="vm"))
    )
    assert not plain_ops & {op.PROBE, op.COMMIT, op.ROUT, op.ROUT_ARR, op.REND}


def test_observer_ops_emitted_only_when_observed():
    """Profiler ops exist in the stream only when the machine has a cycle
    profiler installed at compile time — the VM's equivalent of the
    closure backend's observer-free fast path."""
    from repro.minic import frontend

    prof_ops = {
        op.PROF_ENTER, op.PROF_EXIT, op.PROF_PB, op.PROF_PE,
        op.PROF_CB, op.PROF_SX,
    }

    bare = Machine("O0", backend="vm")
    assert not _opcodes(compile_vm_program(frontend(KERNEL_PROGRAM), bare)) & prof_ops

    profiled = Machine("O0", backend="vm")
    profiled.cycle_profiler = CycleProfiler(profiled)
    assert _opcodes(compile_vm_program(frontend(KERNEL_PROGRAM), profiled)) & prof_ops


def test_probe_protocol_hits_like_closures():
    """Same inputs, same tables: the VM's probe/commit kernels must hit,
    miss, and bypass exactly like the closure intrinsics."""
    result = _transformed_result()
    inputs = [3, 9, 3, 17, 9, 3] * 80
    base_value, base_metrics = _measure(result, "O0", inputs, True, "closures")
    vm_value, vm_metrics = _measure(result, "O0", inputs, True, "vm")
    assert vm_value == base_value
    assert vm_metrics == base_metrics
    stats = next(iter(vm_metrics.table_stats.values()))
    assert stats.hits > 0  # the stream re-uses values, so the table must hit

"""Differential harness for the fast engine's cost accounting.

This suite first pinned block fusion, the closure backend's old fast
path.  Fusion is gone: the fast engine is now the register VM, which
likewise compiles straight-line code and ``break``/``continue`` to native
Python control flow.  The same differentials hold it to the unfused
closure oracle: ``Machine(backend="vm")`` must produce *bit-identical*
metrics — per-class counter tallies, cycles, simulated seconds, energy,
and output checksums — to ``Machine(backend="closures")``, for every
registered workload at every optimization level, on a reuse-transformed
program, and on the loop shapes whose BRANCH charges are easiest to get
wrong.
"""

import pytest

from repro.experiments import ExperimentRunner
from repro.minic.parser import parse_program
from repro.minic.sema import analyze
from repro.opt.pipeline import optimize
from repro.runtime.compiler import compile_program
from repro.runtime.machine import Machine
from repro.workloads.base import PaperNumbers, Workload
from repro.workloads.registry import ALL_WORKLOADS

# Every workload keeps working on a prefix of its default stream (they
# all poll __input_avail), so the differential can run the whole registry
# without the full-suite runtime.
_INPUT_PREFIX = 1024


def _measure(source, opt_level, inputs, backend):
    program = analyze(parse_program(source))
    optimize(program, opt_level)
    machine = Machine(opt_level, backend=backend)
    machine.set_inputs(list(inputs))
    value = compile_program(program, machine).run("main")
    return value, machine.metrics()


def _differential(source, opt_level, inputs):
    oracle = _measure(source, opt_level, inputs, "closures")
    fast = _measure(source, opt_level, inputs, "vm")
    # Metrics equality covers counters, cycles, seconds, joules, checksum.
    assert fast == oracle
    return fast[1]


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_differential_every_workload(workload, opt_level):
    inputs = workload.default_inputs()[:_INPUT_PREFIX]
    _differential(workload.source, opt_level, inputs)


# -- transformed programs ----------------------------------------------------

_TINY_SOURCE = """
int lut[12] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};

static int classify(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 12; i++)
        r += lut[i] * ((v >> (i & 3)) & 15) + v % (i + 2);
    return r;
}

int main(void) {
    int acc = 0;
    while (__input_avail()) {
        acc += classify(__input_int());
        __output_int(acc & 255);
    }
    __output_int(acc);
    return acc;
}
"""

TINY = Workload(
    name="TINY_FUSION",
    source=_TINY_SOURCE,
    default_inputs=lambda: [3, 8, 21, 3, 8, 21, 40, 3, 8] * 40,
    alternate_inputs=lambda: [5, 9, 33, 5, 9] * 40,
    alternate_label="alt",
    key_function="classify",
    description="engine differential workload",
    paper=PaperNumbers(),
    min_executions=16,
)


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
def test_differential_transformed_program(opt_level, monkeypatch):
    """The reuse-transformed program (probe/commit intrinsics around the
    reused segment) measures identically on the VM and the closures."""
    runs = {}
    for backend in ("closures", "vm"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        runs[backend] = ExperimentRunner().compare(TINY, opt_level)
    fast, oracle = runs["vm"], runs["closures"]
    assert fast.original == oracle.original
    assert fast.transformed == oracle.transformed
    assert {k: vars(v) for k, v in fast.table_stats.items()} == {
        k: vars(v) for k, v in oracle.table_stats.items()
    }
    assert fast.table_stats


# -- loop control flow -------------------------------------------------------


def test_fused_break_charges_branch_exactly():
    """break/continue compile to native control flow but still charge
    BRANCH exactly like their closures."""
    source = """
    int main(void) {
        int i;
        int n = 0;
        for (i = 0; i < 10; i++) {
            if (i == 3) break;
            n = n + 1;
        }
        return n;
    }
    """
    metrics = _differential(source, "O0", [])
    assert metrics.counts["branch"] > 0


def test_continue_in_for_still_runs_step():
    source = """
    int main(void) {
        int i;
        int n = 0;
        for (i = 0; i < 10; i++) {
            if (i % 2 == 0) continue;
            n = n + i;
        }
        return n;
    }
    """
    _differential(source, "O0", [])
    assert _measure(source, "O0", [], "vm")[0] == 25


def test_do_while_break_and_continue():
    source = """
    int main(void) {
        int i = 0;
        int n = 0;
        do {
            i = i + 1;
            if (i % 3 == 0) continue;
            if (i > 7) break;
            n = n + i;
        } while (i < 100);
        return n;
    }
    """
    _differential(source, "O0", [])
    assert _measure(source, "O0", [], "vm")[0] == 1 + 2 + 4 + 5 + 7

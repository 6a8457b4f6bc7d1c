"""The VM compiles each reuse probe to its segment's key layout.

A probe or commit site whose operands are all scalars is translated to
straight-line code that indexes the machine's table slot mapping
(``Machine.reuse_tables``) directly; only sites with an array operand
call the ``k_probe``/``k_commit`` kernels.  Checked here:

* the translated source of a scalar site names neither kernel nor
  ``table_for``, while an array site still calls the kernels;
* a warm executable re-armed with a fresh table set probes only the new
  tables, leaving the old tables' statistics untouched;
* a missing table still raises :class:`InterpError`;
* under a cycle profiler, the inline sites and the kernels keep the
  machine's running cycle total equal to the dot product on the probe,
  hit and bypass paths alike.
"""

import pytest

from repro.errors import InterpError
from repro.minic import frontend
from repro.obs.profiler import CycleProfiler
from repro.runtime import Machine, ReuseTable, compile_program
from repro.runtime.hashtable import _SharedProbes

SOURCE = """
int arr[4];

int square(int x) {
    int r;
    if (__reuse_probe(1, x, 3) == 0) {
        r = x * x + 1;
        __reuse_commit(1, r);
    } else {
        r = __reuse_out_i(1, 0);
        __reuse_end(1);
    }
    return r;
}

int fill(int x) {
    if (__reuse_probe(2, arr) == 0) {
        arr[0] = x;
        __reuse_commit(2, arr);
    } else {
        __reuse_out_arr(2, 0, arr);
        __reuse_end(2);
    }
    return arr[0];
}

int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i++)
        s += square(i % 3);
    return s + fill(7);
}
"""

# i % 3 cycles 0, 1, 2 -> 1, 2, 5; ten calls: 4x0, 3x1, 3x2
EXPECTED = 4 * 1 + 3 * 2 + 3 * 5 + 7


def _tables() -> dict:
    return {
        1: ReuseTable("1", capacity=64, in_words=2, out_words=1),
        2: ReuseTable("2", capacity=8, in_words=4, out_words=4),
    }


def _compile():
    machine = Machine("O0", backend="vm")
    compiled = compile_program(frontend(SOURCE), machine)
    return machine, compiled


def test_scalar_sites_are_inline_and_array_sites_call_kernels():
    _, compiled = _compile()
    scalar = compiled.functions["square"].call.vm_source
    array = compiled.functions["fill"].call.vm_source
    for kernel in ("_k_probe", "_k_commit", "table_for"):
        assert kernel not in scalar
    # the key is built inline, the constant word folded
    assert "_t.probe((r0 & 4294967295, 3,))" in scalar
    assert "_k_probe(" in array
    assert "_k_commit(" in array
    assert "_k_out_arr(" in array
    assert "table_for" not in array


def test_rearmed_warm_executable_probes_only_the_new_tables():
    machine, compiled = _compile()
    old = _tables()
    machine.rearm((), old)
    assert compiled.run("main") == EXPECTED
    before = {seg: table.stats.snapshot() for seg, table in old.items()}
    assert before[1].probes == 10 and before[1].hits == 7

    new = _tables()
    machine.rearm((), new)
    assert compiled.run("main") == EXPECTED
    assert {seg: table.stats for seg, table in old.items()} == before
    # a cold table set: the same misses as the first run, not all hits
    assert new[1].stats == before[1]
    assert new[2].stats.probes == 1 and new[2].stats.hits == 0
    assert machine.metrics().table_stats == {seg: t.stats for seg, t in new.items()}


def test_missing_table_raises_interp_error():
    machine, compiled = _compile()
    with pytest.raises(InterpError, match="no reuse table installed for segment 1"):
        compiled.run("main")
    tables = _tables()
    del tables[2]
    machine.rearm((), tables)
    with pytest.raises(InterpError, match="no reuse table installed for segment 2"):
        compiled.run("main")
    with pytest.raises(InterpError):
        machine.table_for(2)


class _SwitchedOffTable(ReuseTable):
    """A table its governor has bypassed for good: every probe takes the
    bypass path and leaves a no-op commit pending."""

    bypassed = True
    pending_bypassed = _SharedProbes.pending_bypassed


@pytest.mark.parametrize("bypassed", [False, True], ids=["probed", "bypassed"])
def test_profiled_sites_keep_the_running_total(bypassed):
    runs = {}
    for backend in ("closures", "vm"):
        machine = Machine("O0", backend=backend)
        profiler = CycleProfiler(machine)
        machine.cycle_profiler = profiler
        compiled = compile_program(frontend(SOURCE), machine)
        tables = _tables()
        if bypassed:
            tables = {
                seg: _SwitchedOffTable(str(seg), t.capacity, t.in_words, t.out_words)
                for seg, t in tables.items()
            }
        machine.rearm((), tables)
        assert compiled.run("main") == EXPECTED
        if backend == "vm":
            assert "_cy[0] +=" in compiled.functions["square"].call.vm_source
            assert ", _cy, _cw)" in compiled.functions["fill"].call.vm_source
            assert machine.cycle_total == [machine.cycles]
        profile = profiler.finalize()
        assert profile.total_cycles == machine.cycles
        runs[backend] = (machine.metrics(), profile.to_dict())
    assert runs["vm"] == runs["closures"]

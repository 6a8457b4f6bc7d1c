"""The VM's compile-time value profiling equals the closure hooks.

On the VM, ``machine.profiler`` is read once, at translation: each
profiled segment's ``SegmentProfile`` is bound into the generated code,
which builds the key from the site's static layout and times the segment
inline.  The closure backend keeps calling ``record``/``segment_enter``/
``segment_exit`` at run time and is the reference.  This program's
``__profile`` keys cover every key kind the layout compiles (negative
ints, floats, globals, a boxed local, a whole array, a pointer-offset
slice, literals), a recursive segment whose inclusive cycles count the
outermost instance only, and a segment filtered out by ``allowed``.
"""

import re

import pytest

from repro.minic import frontend
from repro.profiling import ValueSetProfiler
from repro.runtime import Machine, compile_program
from repro.runtime.values import float_bits

SOURCE = """
int g = 5;
float gf = 0.25;
int tab[6] = {1, -2, 3, -4, 5, -6};

int fact(int n) {
    __seg_enter(3);
    __profile(3, n);
    int r = 1;
    if (n > 1) r = n * fact(n - 1);
    __seg_exit(3);
    return r;
}

int main(void) {
    int total = 0;
    int boxed = -7;
    int *bp = &boxed;
    float f = -1.5;
    int *slice = tab + 2;
    for (int i = 0; i < 9; i++) {
        int neg = -(i % 3);
        __seg_enter(1);
        __profile(1, neg, f, g, gf, boxed, tab, slice, -4, -2.5);
        total = total + neg + tab[i % 6] + *bp;
        f = -f;
        boxed = -boxed;
        __seg_exit(1);
        __seg_enter(2);
        __profile(2, i);
        total = total + fact(i % 4 + 1);
        __seg_exit(2);
    }
    __output_int(total);
    return total;
}
"""

ALL_SEGMENTS = {1, 2, 3}


def _run(backend, allowed=None, profiled=True):
    machine = Machine("O0", backend=backend)
    profiler = None
    if profiled:
        profiler = ValueSetProfiler(machine, allowed=allowed)
        machine.profiler = profiler
    compiled = compile_program(frontend(SOURCE), machine)
    value = compiled.run("main")
    return machine, profiler, value, compiled


def _profile_digest(profiler):
    return {
        seg: (list(p.key_stream), list(p._key_ids), p.inclusive_cycles)
        for seg, p in profiler.profiles.items()
    }


@pytest.mark.parametrize("allowed", [None, {1, 3}], ids=["all", "allowed"])
def test_vm_profiles_equal_closure_hooks(allowed):
    vm, vm_profiler, vm_value, _ = _run("vm", allowed)
    ref, ref_profiler, ref_value, _ = _run("closures", allowed)
    plain, _, plain_value, _ = _run("closures", profiled=False)
    plain_vm, _, plain_vm_value, _ = _run("vm", profiled=False)

    want = _profile_digest(ref_profiler)
    assert set(want) == (allowed or ALL_SEGMENTS)
    assert _profile_digest(vm_profiler) == want
    assert vm_profiler.execution_counts() == ref_profiler.execution_counts()

    # profiling is zero-cost on both engines
    runs = (vm, ref, plain, plain_vm)
    assert vm_value == ref_value == plain_value == plain_vm_value
    assert len({m.cycles for m in runs}) == 1
    assert all(m.metrics().counts == plain.metrics().counts for m in runs)
    assert len({m.output_checksum for m in runs}) == 1


def test_key_kinds_and_recursion():
    _, profiler, _, _ = _run("vm")
    loop = profiler.profile(1)
    assert loop.executions == 9
    # neg cycles with period 3, f and boxed flip sign: period 6
    assert loop.distinct_inputs == 6
    first = next(iter(loop._key_ids))
    neg, f, g, gf, boxed, *rest = first
    assert (neg, g, boxed) == (0, 5, (-7) & 0xFFFFFFFF)
    tab_words = [w & 0xFFFFFFFF for w in (1, -2, 3, -4, 5, -6)]
    assert rest[:6] == tab_words  # the whole array
    assert rest[6:10] == tab_words[2:]  # the slice tab + 2
    assert rest[10:] == [(-4) & 0xFFFFFFFF, float_bits(-2.5)]  # constants

    fact = profiler.profile(3)
    assert fact.executions == sum(i % 4 + 1 for i in range(9))
    assert fact.distinct_inputs == 4
    # outermost instances only: fact(1..4) called from main, nine times,
    # all contained in segment 2's own inclusive cycles
    assert 0 < fact.inclusive_cycles < profiler.profile(2).inclusive_cycles


def test_vm_emits_nothing_without_a_site():
    _, _, _, unprofiled = _run("vm", profiled=False)
    _, _, _, filtered = _run("vm", allowed={1, 3})
    plain_main = unprofiled.functions["main"].call.vm_source
    assert not re.search(r"\b_v[kiep]\d", plain_main)
    filtered_main = filtered.functions["main"].call.vm_source
    assert "_vk1" in filtered_main and "_ve1" in filtered_main
    assert "_vk2" not in filtered_main and "_ve2" not in filtered_main

"""Differential property tests over randomly generated mini-C programs.

Three system-level invariants, checked against generated programs:

1. the interpreter agrees with a reference evaluation in Python
   (semantics oracle for straight-line integer code);
2. the O3 optimizer pipeline never changes observable behaviour;
3. the reuse transformation never changes observable behaviour, for any
   feasible segment and any table capacity;
4. the VM's compile-time value profiling records what the closure
   backend's run-time hooks record, on the pipeline's own instrumented
   program.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic import format_program, frontend
from repro.minic.sema import analyze
from repro.minic.parser import parse_program
from repro.opt.pipeline import optimize
from repro.profiling import ValueSetProfiler
from repro.reuse import PipelineConfig, ReusePipeline
from repro.runtime import Machine, compile_program
from repro.runtime.vm import VMProgram
from repro.runtime.values import c_shl, c_shr, wrap32


# -- 1. interpreter vs Python oracle -----------------------------------------

_BINOPS = {
    "+": lambda a, b: wrap32(a + b),
    "-": lambda a, b: wrap32(a - b),
    "*": lambda a, b: wrap32(a * b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": c_shl,
    ">>": c_shr,
}


@st.composite
def straightline_program(draw):
    """A straight-line program over 4 int variables; returns (source,
    oracle_value) where the oracle evaluates the same operations in
    Python using the C-semantics helpers."""
    n_stmts = draw(st.integers(min_value=1, max_value=12))
    env = {"a": 1, "b": 2, "c": 3, "d": 4}
    names = list(env)
    lines = [f"int {n} = {env[n]};" for n in names]
    for _ in range(n_stmts):
        target = draw(st.sampled_from(names))
        op = draw(st.sampled_from(sorted(_BINOPS)))
        lhs = draw(st.sampled_from(names))
        rhs_choice = draw(st.integers(min_value=0, max_value=1))
        if rhs_choice:
            rhs_name = draw(st.sampled_from(names))
            rhs_text, rhs_val = rhs_name, env[rhs_name]
        else:
            lit = draw(st.integers(min_value=0, max_value=31))
            rhs_text, rhs_val = str(lit), lit
        lines.append(f"{target} = {lhs} {op} {rhs_text};")
        env[target] = _BINOPS[op](env[lhs], rhs_val)
    result = wrap32(env["a"] + env["b"] + env["c"] + env["d"])
    body = "\n    ".join(lines)
    source = f"int main(void) {{\n    {body}\n    return a + b + c + d;\n}}\n"
    return source, result


@settings(max_examples=120, deadline=None)
@given(straightline_program())
def test_interpreter_matches_python_oracle(case):
    source, expected = case
    machine = Machine("O0")
    got = compile_program(frontend(source), machine).run("main")
    assert got == expected, source


@settings(max_examples=60, deadline=None)
@given(straightline_program())
def test_o3_matches_oracle_too(case):
    source, expected = case
    program = frontend(source)
    optimize(program, "O3")
    machine = Machine("O3")
    got = compile_program(program, machine).run("main")
    assert got == expected, format_program(program)


# -- 2/3. structured programs: O3 and reuse preserve behaviour -----------------


@st.composite
def kernel_program(draw):
    """A program with a pure kernel function containing loops/branches,
    driven by an input stream — the shape the reuse pipeline targets."""
    n_terms = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for i in range(n_terms):
        coef = draw(st.integers(min_value=1, max_value=9))
        shift = draw(st.integers(min_value=0, max_value=4))
        terms.append(f"tab[(v >> {shift}) & 7] * {coef} + (v % {i + 2})")
    body = "\n        ".join(f"r += {t};" for t in terms)
    loop_bound = draw(st.integers(min_value=1, max_value=6))
    branch_const = draw(st.integers(min_value=0, max_value=64))
    source = f"""
int tab[8] = {{5, 3, 8, 1, 9, 2, 7, 4}};

static int kernel(int v) {{
    int r = 0;
    int i;
    for (i = 0; i < {loop_bound}; i++) {{
        {body}
    }}
    if (v > {branch_const})
        r = r - v;
    return r;
}}

int main(void) {{
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}}
"""
    inputs = draw(
        st.lists(st.integers(min_value=0, max_value=300), min_size=8, max_size=60)
    )
    # repeat to create reuse opportunities
    return source, inputs * 3


def _run(program, inputs, opt, tables=None):
    machine = Machine(opt)
    machine.set_inputs(list(inputs))
    for seg_id, table in (tables or {}).items():
        machine.install_table(seg_id, table)
    result = compile_program(program, machine).run("main")
    return result, machine.output_checksum


@settings(max_examples=30, deadline=None)
@given(kernel_program())
def test_optimizer_preserves_behaviour(case):
    source, inputs = case
    r0, c0 = _run(frontend(source), inputs, "O0")
    program = frontend(source)
    optimize(program, "O3")
    r3, c3 = _run(program, inputs, "O3")
    assert (r0, c0) == (r3, c3)


@settings(max_examples=20, deadline=None)
@given(kernel_program(), st.integers(min_value=0, max_value=2))
def test_reuse_transform_preserves_behaviour(case, capacity_exp):
    source, inputs = case
    r0, c0 = _run(frontend(source), inputs, "O0")
    result = ReusePipeline(
        source,
        PipelineConfig(min_executions=4, enable_cost_filter=False),
    ).run(inputs)
    capacity = 4 ** (capacity_exp + 1)  # tiny tables stress replacement
    tables = result.build_tables(capacity_override=capacity)
    rt, ct = _run(result.program, inputs, "O0", tables)
    assert (r0, c0) == (rt, ct), format_program(result.program)


@settings(max_examples=10, deadline=None)
@given(kernel_program())
def test_reuse_plus_o3_preserves_behaviour(case):
    """The full deployment path: transform, then optimize at O3."""
    source, inputs = case
    r0, c0 = _run(frontend(source), inputs, "O0")
    result = ReusePipeline(
        source, PipelineConfig(min_executions=4)
    ).run(inputs)
    transformed = analyze(parse_program(format_program(result.program)))
    optimize(transformed, "O3")
    rt, ct = _run(transformed, inputs, "O3", result.build_tables())
    assert (r0, c0) == (rt, ct)


# -- 4. value profiling: the VM equals the closure hooks ------------------------


def _value_profiles(program, inputs, backend, entry):
    machine = Machine("O0", backend=backend)
    machine.set_inputs(list(inputs))
    profiler = ValueSetProfiler(machine)
    machine.profiler = profiler
    compiled = compile_program(copy.deepcopy(program), machine)
    assert isinstance(compiled, VMProgram) == (backend == "vm")
    compiled.run(entry)
    return {
        seg: (
            profile.executions,
            list(profile.key_stream),
            list(profile._key_ids),
            profile.inclusive_cycles,
        )
        for seg, profile in profiler.profiles.items()
    }


class _EngineDifferentialPipeline(ReusePipeline):
    """Profiles the instrumented program on both engines, in one run of
    the pipeline, and records whether their profiles agree."""

    compared: list

    def _profiling_run(self, program, inputs):
        entry = self.config.entry
        self.compared = [
            _value_profiles(program, inputs, backend, entry)
            for backend in ("closures", "vm")
        ]
        return super()._profiling_run(program, inputs)


@settings(max_examples=15, deadline=None)
@given(kernel_program())
def test_vm_value_profiles_equal_closure_hooks(case):
    source, inputs = case
    pipeline = _EngineDifferentialPipeline(
        source, PipelineConfig(min_executions=4, enable_cost_filter=False)
    )
    pipeline.run(inputs)
    closures, vm = pipeline.compared
    assert closures, "the instrumented program profiles at least one segment"
    assert vm == closures

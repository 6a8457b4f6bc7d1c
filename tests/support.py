"""Shared test helpers.

``run_plain`` compiles and interprets mini-C without ever running the
optimizer (``opt_level`` only selects the cost table).  Tests that need
exactly those semantics use this helper; the facade (``repro.compile``)
is *not* equivalent because it optimizes at O3.
"""

from repro.minic import frontend
from repro.runtime import Machine, compile_program


def run_plain(source: str, entry: str = "main", opt_level: str = "O0", inputs=()):
    """Compile and run mini-C source; returns (result, metrics)."""
    program = frontend(source)
    machine = Machine(opt_level)
    machine.set_inputs(list(inputs))
    result = compile_program(program, machine).run(entry)
    return result, machine.metrics()

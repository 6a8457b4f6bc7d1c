"""Runtime: the cycle-cost abstract machine that stands in for the iPAQ.

Typical usage::

    from repro.minic import frontend
    from repro.runtime import Machine, compile_program

    program = frontend(source)
    machine = Machine("O0")
    compiled = compile_program(program, machine)
    compiled.run("main")
    print(machine.metrics())
"""

from .compiler import CompiledFunction, CompiledProgram, compile_program
from .costs import CLOCK_HZ, SUPPLY_VOLTS, CostTable, cost_table
from .hashtable import LRUBuffer, MergedReuseTable, MergedTableView, ReuseTable, TableStats
from .jenkins import hash_key_words, jenkins_one_at_a_time
from .machine import Machine, Metrics
from .values import (
    c_div,
    c_mod,
    c_shl,
    c_shr,
    float_bits,
    key_words,
    to_u32,
    wrap32,
)


__all__ = [
    "CompiledFunction",
    "CompiledProgram",
    "compile_program",
    "CostTable",
    "cost_table",
    "CLOCK_HZ",
    "SUPPLY_VOLTS",
    "ReuseTable",
    "MergedReuseTable",
    "MergedTableView",
    "LRUBuffer",
    "TableStats",
    "Machine",
    "Metrics",
    "hash_key_words",
    "jenkins_one_at_a_time",
    "wrap32",
    "to_u32",
    "c_div",
    "c_mod",
    "c_shl",
    "c_shr",
    "float_bits",
    "key_words",
]

"""Register-bytecode execution backend (``Machine(backend="vm")``).

The package splits along the classic compiler/VM seam:

* :mod:`vm_opcodes` — the instruction set and a disassembler;
* :mod:`vm_compiler` — mini-C AST → flat bytecode with the block-fused
  ``CHARGE`` accounting and observer ops baked into the stream;
* :mod:`vm` — the execution engine (bytecode translated to one Python
  function per mini-C function) plus the reuse/observer kernels and
  program-level linking.  A program the translator cannot handle raises
  :class:`~repro.runtime.vm.vm.Untranslatable`; ``compile_program`` then
  compiles it on the closure backend as a whole.
"""

from .vm import Untranslatable, VMProgram, compile_vm_program, link_program
from .vm_compiler import VMFunction, compile_function
from . import vm_opcodes

__all__ = [
    "Untranslatable",
    "VMFunction",
    "VMProgram",
    "compile_function",
    "compile_vm_program",
    "link_program",
    "vm_opcodes",
]

"""Operation-class cycle and energy cost model.

This module is the repo's substitute for the paper's Compaq iPAQ 3650
(Intel StrongARM SA-1110 @ 206 MHz, 5 V external supply).  Every dynamic
operation the interpreter executes is tallied into one of the classes
below; total cycles are the dot product of the tally with a per-class
cycle table, and the simulated wall-clock time is ``cycles / 206 MHz``.

Two cycle tables model GCC's -O0 and -O3:

* at **O0** every local variable access is a stack load/store;
* at **O3** scalar locals are register-allocated (zero-cost access),
  constants fold into instructions, and branches/calls are cheaper
  (scheduling, inlining of call overhead).  The O3 *compiler pipeline*
  additionally runs real optimization passes (:mod:`repro.opt`), so the
  dynamic operation tally itself also shrinks.

Float operations are expensive in both tables: the SA-1110 has no FPU,
so floats go through software emulation — this is why the paper's
MPEG2 Reference_IDCT granularity is four orders of magnitude larger than
G721's quan.

Energy: the iPAQ measurement in the paper is whole-device power at 5 V.
We model ``energy = P_base * time + sum(op_extra_energy)``, with memory
traffic (including reuse-table accesses) carrying a higher per-op energy
than ALU work.  P_base dominates, which reproduces the paper's
observation that energy savings track time savings to within a few
points, with small divergences where the op mix shifts toward memory.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

CLOCK_HZ = 206_000_000  # StrongARM SA-1110
SUPPLY_VOLTS = 5.0

# Operation classes (indices into the counter list) -----------------------
CONST = 0        # materialize a constant
LOCAL_RD = 1     # read a scalar local/param
LOCAL_WR = 2     # write a scalar local/param
GLOBAL_RD = 3    # read a scalar global
GLOBAL_WR = 4    # write a scalar global
MEM_RD = 5       # array/pointer load
MEM_WR = 6       # array/pointer store
ALU = 7          # integer add/sub/logic/compare/shift
MUL = 8          # integer multiply
DIV = 9          # integer divide/modulo
FALU = 10        # float add/sub/compare (software emulated)
FMUL = 11        # float multiply
FDIV = 12        # float divide
BRANCH = 13      # conditional/unconditional branch
CALL = 14        # function call overhead
RET = 15         # function return overhead
HASH_WORD = 16   # per-word reuse-table work (key build/compare/copy)
HASH_FIXED = 17  # per-probe fixed reuse-table overhead
MATH = 18        # libm-style intrinsic (__cos, __sqrt, ...)
IO = 19          # __input_* / __output_* stream access

N_CLASSES = 20

CLASS_NAMES = [
    "const", "local_rd", "local_wr", "global_rd", "global_wr",
    "mem_rd", "mem_wr", "alu", "mul", "div",
    "falu", "fmul", "fdiv", "branch", "call", "ret",
    "hash_word", "hash_fixed", "math", "io",
]

# Cycle tables --------------------------------------------------------------

#           CONST L_RD L_WR G_RD G_WR M_RD M_WR ALU MUL DIV FALU FMUL FDIV BR CALL RET HW  HF  MATH IO
_O0_CYCLES = [1,   2,   2,   3,   3,   3,   3,  1,  3,  22, 48,  64,  140, 2, 12,  6,  4,  14, 180, 3]
_O3_CYCLES = [0,   0,   0,   2,   2,   2,   2,  1,  2,  18, 40,  52,  120, 1, 6,   3,  3,  10, 150, 2]

# Per-op *extra* energy in nanojoules (on top of base power) ---------------
#           CONST L_RD L_WR G_RD G_WR M_RD M_WR ALU MUL DIV FALU FMUL FDIV BR CALL RET HW  HF  MATH IO
_OP_NJ = [0.2, 0.5, 0.5, 1.1, 1.1, 1.4, 1.4, 0.3, 0.9, 6.0, 13.0, 17.0, 38.0, 0.5, 3.2, 1.6, 1.9, 5.5, 48.0, 1.4]

# Whole-device base power in watts while running (screen/backlight/RAM/CPU
# idle components); tuned so simulated energies land in the paper's range.
BASE_WATTS = 1.9


@dataclass(frozen=True)
class CostTable:
    """A named per-class cycle table plus the shared energy model."""

    name: str
    cycles: tuple

    def cycles_for(self, counts) -> int:
        return sum(map(operator.mul, counts, self.cycles))

    def seconds_for(self, counts) -> float:
        return self.cycles_for(counts) / CLOCK_HZ

    def energy_joules_for(self, counts) -> float:
        seconds = self.seconds_for(counts)
        op_extra = sum(c * nj for c, nj in zip(counts, _OP_NJ)) * 1e-9
        return BASE_WATTS * seconds + op_extra


O0 = CostTable("O0", tuple(_O0_CYCLES))
O3 = CostTable("O3", tuple(_O3_CYCLES))

TABLES = {"O0": O0, "O3": O3}


def cost_table(name: str) -> CostTable:
    try:
        return TABLES[name]
    except KeyError:
        raise KeyError(f"unknown cost table {name!r}; choose from {sorted(TABLES)}") from None

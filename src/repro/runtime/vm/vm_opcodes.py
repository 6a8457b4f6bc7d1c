"""Instruction set of the register bytecode VM.

An instruction is a plain tuple ``(opcode, *operands)``.  Operands are
register numbers, jump targets (absolute pcs), small immediates, constant
-pool indices, or (for the reuse/profile ops) inline descriptor tuples.
Registers 0..frame_size-1 are the function's sema-assigned variable
slots — the same layout the closure interpreter's frames use — and the
registers above them hold expression temporaries.

Cost accounting is carried *in the opcode stream*: value-computing ops
never touch the machine's counter tally.  The compiler batches each basic
block's statically-known operation classes into one ``CHARGE`` op, and
the few ops whose cost depends on runtime data — reuse probes and commits
hashing a variable number of words — charge inside their kernels,
exactly as the closure intrinsics do.

Observer ops (``PROF_*``) exist in the stream only when the cycle
profiler was installed on the machine at compile time; an unprofiled
program's bytecode is byte-identical to a bare run's.  The metrics
registry is no compile-time observer: a run's counters are published
from the machine's and tables' own tallies after it ends
(:meth:`~repro.runtime.machine.Machine.publish_metrics`), so a metered
program's bytecode is the same as an unmetered one's.
"""

from __future__ import annotations

_next_op = iter(range(256)).__next__

# -- accounting ------------------------------------------------------------
CHARGE = _next_op()  # (pairs,)            pairs: ((cost_class, n), ...)

# -- data movement ---------------------------------------------------------
MOV = _next_op()     # (d, s)              R[d] = R[s]
LOADI = _next_op()   # (d, v)              R[d] = v  (int/float/None immediate)
LOADG = _next_op()   # (d, slot)           R[d] = machine.globals[slot]
STOREG = _next_op()  # (slot, s)           machine.globals[slot] = R[s]
GETBOX = _next_op()  # (d, s)              R[d] = R[s][0]
SETBOX = _next_op()  # (b, s)              R[b][0] = R[s]
NEWBOX = _next_op()  # (d, s)              R[d] = [R[s]]
NEWBOXI = _next_op() # (d, v)              R[d] = [v]
ALLOC_Z = _next_op() # (d, k)              R[d] = zero_value(consts[k])
ALLOC_T = _next_op() # (d, k)              R[d] = deep_copy_value(consts[k])

# -- control flow ----------------------------------------------------------
JUMP = _next_op()    # (t,)
JF = _next_op()      # (r, t)              jump to t when R[r] is falsy
JT = _next_op()      # (r, t)              jump to t when R[r] is truthy
RETV = _next_op()    # (r,)                charge RET; return R[r]
RET0 = _next_op()    # ()                  charge RET; return 0

# -- integer arithmetic (wrap to signed 32-bit like the closure backend) ----
ADD = _next_op()     # (d, a, b)
SUB = _next_op()
MUL = _next_op()
DIV = _next_op()     # c_div semantics (truncate toward zero, raise on 0)
MOD = _next_op()     # c_mod semantics
SHL = _next_op()
SHR = _next_op()
AND = _next_op()
OR = _next_op()
XOR = _next_op()
NEG = _next_op()     # (d, s)
BNOT = _next_op()    # (d, s)              R[d] = ~R[s]
NOT = _next_op()     # (d, s)              R[d] = 0 if R[s] else 1
BOOL = _next_op()    # (d, s)              R[d] = 1 if R[s] else 0

# -- float arithmetic ------------------------------------------------------
FADD = _next_op()    # (d, a, b)
FSUB = _next_op()
FMUL = _next_op()
FDIV = _next_op()    # raises on division by zero
FNEG = _next_op()    # (d, s)

# -- comparisons (int or float; result is 1/0) -----------------------------
EQ = _next_op()      # (d, a, b)
NE = _next_op()
LT = _next_op()
LE = _next_op()
GT = _next_op()
GE = _next_op()

# -- pointers / arrays -----------------------------------------------------
PADD = _next_op()    # (d, p, i)           pointer + int
PSUB = _next_op()    # (d, p, i)           pointer - int
PDIFF = _next_op()   # (d, a, b)           pointer difference (offsets)
IDX = _next_op()     # (d, b, i)           indexed load
IDXW = _next_op()    # (b, i, s)           indexed store
ADDR = _next_op()    # (d, b, i)           &base[i]
DEREF = _next_op()   # (d, p)              *p
DEREFW = _next_op()  # (p, s)              *p = R[s]

# -- calls -----------------------------------------------------------------
CALL = _next_op()    # (d, fi, args)       direct call, args: (reg, ...)
CALLI = _next_op()   # (d, t, args)        indirect call through R[t]
LOADFN = _next_op()  # (d, fi)             function value

# -- I/O and simple intrinsics ---------------------------------------------
INPUT_I = _next_op() # (d,)
INPUT_F = _next_op() # (d,)
INPUT_AV = _next_op()# (d,)
OUTPUT = _next_op()  # (s,)
PRINT = _next_op()   # (s,)
ASSERT = _next_op()  # (s,)
CAST_I = _next_op()  # (d, s)              wrap32(int(v))
CAST_F = _next_op()  # (d, s)              float(v)
ABS = _next_op()     # (d, s)              wrap32(abs(v))
FABS = _next_op()    # (d, s)              abs(float(v))
MIN = _next_op()     # (d, a, b)
MAX = _next_op()     # (d, a, b)
MATH = _next_op()    # (d, s, which)       which indexes MATH_FNS

# -- computation reuse (first-class ops) -----------------------------------
# srcs: ((mode, slot), ...) where mode 0 = register, 1 = boxed register,
# 2 = global slot; meta: ((value_kind, charge_class), ...) aligned with
# srcs.  The kernels charge key-building work only on the non-bypassed
# path, mirroring the closure intrinsics' governed-table gate check.
PROBE = _next_op()    # (d, seg, meta, srcs)
ROUT = _next_op()     # (d, seg, pos)      __reuse_out_i / __reuse_out_f
ROUT_ARR = _next_op() # (seg, pos, dest, cls)  dest register + its charge class
COMMIT = _next_op()   # (seg, meta, srcs)
REND = _next_op()     # (seg,)

# -- profiling stubs (zero cost, runtime-gated like the closures) ----------
PROFILE = _next_op()  # (seg, kinds, srcs)
SEGE = _next_op()     # (seg,)
SEGX = _next_op()     # (seg,)

# -- observer ops (emitted only when the observer is installed) ------------
PROF_ENTER = _next_op()  # (name,)         cycle_profiler.enter_function
PROF_EXIT = _next_op()   # ()
PROF_PB = _next_op()     # (seg,)          probe_begin
PROF_PE = _next_op()     # (seg, r)        probe_end(hit=R[r]==1, bypassed=...)
PROF_CB = _next_op()     # (seg,)          commit_begin
PROF_SX = _next_op()     # (seg,)          segment_exit
PROF_LINE = _next_op()   # (line,)         at_line — line-attribution mark

N_OPCODES = _next_op()

OP_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if isinstance(value, int) and name.isupper() and name not in ("N_OPCODES",)
}

# Source-fetch modes for PROBE/COMMIT/PROFILE descriptors.
SRC_REG = 0
SRC_BOX = 1
SRC_GLOBAL = 2
SRC_CONST = 3  # the slot field holds the literal value itself

# MATH op sub-functions, indexed by the ``which`` operand.
MATH_NAMES = ("__cos", "__sin", "__sqrt", "__floor")


def disassemble(code, consts=(), loops=None) -> str:
    """Human-readable listing of one function's instruction stream."""
    lines = []
    loops = loops or {}
    for pc, ins in enumerate(code):
        marks = []
        if pc in loops:
            marks.append("loop")
        operands = ", ".join(repr(x) for x in ins[1:])
        tag = f"  ; {' '.join(marks)}" if marks else ""
        lines.append(f"{pc:4d}  {OP_NAMES.get(ins[0], '?'):<12s} {operands}{tag}")
    return "\n".join(lines)

"""Execution engine for the register bytecode.

Each function's :class:`~repro.runtime.vm.vm_compiler.VMFunction`
bytecode is translated back into one Python function
(``compile``/``exec``), with registers as Python locals, native
``while``/``if`` control flow rebuilt from the compiler's structural jump
discipline, single-use temporaries re-fused into nested expressions, and
direct calls patched in at link time.  That whole-function translation
is where the backend's speedup over the closure tree comes from.

Translation is all or nothing per program: a function whose bytecode
defeats structural reconstruction raises :class:`Untranslatable`, and
:func:`~repro.runtime.compiler.compile_program` then compiles the whole
program on the closure backend instead (the exact reference oracle).

The *reuse ops* are compiled per site, from the site's static
``(kind, charge class)`` layout.  A probe or commit whose operands are
all scalars becomes straight-line code: one read of the machine's table
slot mapping (``_T``, its ``reuse_tables``), one ``bypassed`` (or
``pending_bypassed()``) test, its deferred key-load and hash charges
folded into constant counter lines, and the key tuple built inline —
int words as ``x & 4294967295``, float words through ``float_bits``,
constants folded.  Only sites with an array operand call the kernels
(``k_probe``/``k_commit``/``k_out_arr``).  Both forms are exact
transplants of the closure intrinsics in :mod:`repro.runtime.intrinsics`
— same bypass protocol, same charges, same hash words — which is what
makes the backends bit-identical on cycles, metrics, and ledger
verdicts.

Value-set profiling is a translation-time decision, like the cycle
profiler: when ``machine.profiler`` is set at
translation, each profiled segment's ``SegmentProfile`` parts are bound
into the function's namespace and ``PROFILE``/``SEGE``/``SEGX`` become
straight-line code that interns the key and times the segment inline.
Without a profiler, or for a segment its ``allowed`` set filters out,
those ops emit nothing.

Both profilers read cycles, so a translation made with either installed
keeps the machine's running cycle total (``Machine.cycle_total``, bound
as ``_cy``): every constant charge also adds its cycles there, and the
aggregate kernels add theirs, so reading the cycle count is one list
read instead of the cost table's dot product.  A translation with no
cycle-reading observer never touches the total.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from ...errors import InterpError
from ..costs import ALU, HASH_FIXED, HASH_WORD, RET
from ..intrinsics import (
    _KIND_AGGREGATE,
    _KIND_FLOAT,
    _append_words,
    _checked_sqrt,
    _count_words,
    _flatten_aggregate,
    _resolve_aggregate,
)
from ..values import (
    c_div,
    c_mod,
    copy_into,
    deep_copy_value,
    float_bits,
    zero_value,
)
from . import vm_opcodes as op
from .vm_compiler import VMFunction, compile_function

_MATH_IMPLS = (math.cos, math.sin, _checked_sqrt, math.floor)


def _float_div(a: float, b: float) -> float:
    if b == 0:
        raise InterpError("float division by zero")
    return a / b


# ---------------------------------------------------------------------------
# Reuse kernels (aggregate operands only)
# ---------------------------------------------------------------------------
#
# A probe or commit site whose operands are all scalars is translated to
# straight-line code (``_Translator._probe``/``_commit``).  A site with an
# array operand calls these instead; ``tables`` is the machine's
# ``reuse_tables`` slot mapping, and ``vals`` are the already-fetched
# source values (the descriptors only name side-effect-free variable
# accesses, so fetch order cannot matter).  The kernels do all the
# charging, in the closure intrinsics' exact order — including charging
# the key loads only on the non-bypassed path.  An observed translation
# also passes the machine's running cycle total and the cost weights,
# and the kernels add the cycles of what they charged to it.

# What a bypassed probe or commit charges: one flag test.
_BYPASS_CHARGE = ((ALU, 1),)


def k_bypass(table, ctr):
    """A probe the governor bypasses (adaptive deactivation): it costs one
    flag test (``_BYPASS_CHARGE``), and leaves a no-op commit pending."""
    ctr[ALU] += 1
    table.push_bypass()
    return 0


def k_bypass_commit(table, ctr):
    """The commit closing a bypassed probe (``_BYPASS_CHARGE``)."""
    ctr[ALU] += 1
    table.commit(())


def _key_load_cycles(meta, weights) -> int:
    return sum(weights[cls] for _, cls in meta if cls >= 0)


def k_probe(tables, ctr, seg, vals, meta, total=None, weights=None):
    table = tables[seg]
    if table.bypassed:
        if total is not None:
            total[0] += weights[ALU]
        return k_bypass(table, ctr)
    words: list[int] = []
    for value, (kind, cls) in zip(vals, meta):
        if cls >= 0:  # cls -1: operand evaluated (and charged) eagerly
            ctr[cls] += 1
        _append_words(words, value, kind)
    ctr[HASH_FIXED] += 1
    ctr[HASH_WORD] += len(words)
    if total is not None:
        total[0] += (
            _key_load_cycles(meta, weights)
            + weights[HASH_FIXED]
            + weights[HASH_WORD] * len(words)
        )
    return 1 if table.probe(tuple(words)) else 0


def k_commit(tables, ctr, seg, vals, meta, total=None, weights=None):
    table = tables[seg]
    if table.pending_bypassed():
        if total is not None:
            total[0] += weights[ALU]
        k_bypass_commit(table, ctr)
        return 0
    values = []
    n_words = 0
    for value, (kind, cls) in zip(vals, meta):
        if cls >= 0:
            ctr[cls] += 1
        if kind == _KIND_AGGREGATE:
            value = _resolve_aggregate(value)
            n_words += _count_words(value)
        else:
            n_words += 1
        values.append(value)
    ctr[HASH_WORD] += n_words
    if total is not None:
        total[0] += _key_load_cycles(meta, weights) + weights[HASH_WORD] * n_words
    table.commit(tuple(values))
    return 0


def k_out_arr(tables, ctr, seg, pos, dest, cls, total=None, weights=None):
    stored = tables[seg].output(pos)
    n_words = _count_words(stored)
    ctr[HASH_WORD] += n_words
    if cls >= 0:
        ctr[cls] += 1  # the destination operand's own access charge
    if total is not None:
        total[0] += weights[HASH_WORD] * n_words + (weights[cls] if cls >= 0 else 0)
    if type(dest) is tuple:
        backing, offset = dest
        for i, item in enumerate(stored):
            backing[offset + i] = item
    else:
        copy_into(dest, list(stored) if isinstance(stored, tuple) else stored)
    return 0


def _has_aggregate(meta) -> bool:
    return any(kind == _KIND_AGGREGATE for kind, _ in meta)


def _site_charges(meta, *fixed) -> list[tuple[int, int]]:
    """A scalar reuse site's deferred charges as (class, n) pairs, one per
    class: its key loads (class -1 was charged eagerly) plus the
    ``fixed`` (class, n) pairs."""
    totals: Counter = Counter()
    for _, cls in meta:
        if cls >= 0:
            totals[cls] += 1
    for cls, n in fixed:
        totals[cls] += n
    return [(cls, n) for cls, n in sorted(totals.items()) if n]


def _aggregate_words(value) -> list[int]:
    # a flat int array (the common key operand) in one pass; floats,
    # nested arrays and non-int items raise TypeError and take the
    # element-by-element path, as do pointer-offset tuples and non-arrays
    if type(value) is list:
        try:
            return [item & 4294967295 for item in value]
        except TypeError:
            pass
    words: list[int] = []
    _flatten_aggregate(words, value)
    return words


def _reads_cycles(machine) -> bool:
    """Is a cycle-reading observer (value-set or cycle profiler) installed?"""
    return machine.profiler is not None or machine.cycle_profiler is not None


def _icall(target):
    if not isinstance(target, VMFunction):
        raise InterpError("indirect call target is not a function")
    return target.call


# ---------------------------------------------------------------------------
# Translation engine
# ---------------------------------------------------------------------------


class Untranslatable(Exception):
    """The function's control flow defeats structural reconstruction."""


def _w32(expr: str, term: bool = False) -> str:
    """Inline signed 32-bit wrap.  ``term`` says ``expr`` is a call,
    which binds tighter than ``&`` without parentheses."""
    if not term:
        expr = f"({expr})"
    return f"(({expr} & 4294967295) ^ 2147483648) - 2147483648"


# One pair of grouping parentheses around an atom — a register, hoist,
# parameter or global slot (maybe indexed by a constant), or a
# non-negative numeric literal — which binds tighter than any operator.
# The lookbehind skips call parentheses.
_PAREN_ATOM = re.compile(
    r"\((?<=[^\w\])]\()"
    r"((?:(?:r|_h|_p)\d+|_g\[\d+\])(?:\[\d+\])?|\d+(?:\.\d+)?(?:e[+-]?\d+)?)"
    r"\)"
)


def _bare_atoms(src: str) -> str:
    """``src`` without grouping parentheses around atoms.  The translator
    builds every pending value parenthesized and sizes its inlining and
    hoisting decisions on that text; dropping the redundant pairs only
    here leaves those decisions, and so the bytecode, unchanged while the
    parser gets fewer tokens."""
    n = 1
    while n:  # nested pairs, ``((r1))``, take one pass each
        src, n = _PAREN_ATOM.subn(r"\1", src)
    return src


# Register-operand signatures, used by the translator's use census.
_W1R23 = frozenset(
    (
        op.ADD, op.SUB, op.MUL, op.DIV, op.MOD, op.SHL, op.SHR, op.AND,
        op.OR, op.XOR, op.FADD, op.FSUB, op.FMUL, op.FDIV, op.EQ, op.NE,
        op.LT, op.LE, op.GT, op.GE, op.PADD, op.PSUB, op.PDIFF, op.IDX,
        op.ADDR, op.MIN, op.MAX,
    )
)
_W1R2 = frozenset(
    (
        op.MOV, op.GETBOX, op.NEWBOX, op.NEG, op.BNOT, op.NOT, op.BOOL,
        op.FNEG, op.DEREF, op.CAST_I, op.CAST_F, op.ABS, op.FABS, op.MATH,
    )
)
_W1 = frozenset(
    (
        op.LOADI, op.LOADG, op.NEWBOXI, op.ALLOC_Z, op.ALLOC_T, op.LOADFN,
        op.INPUT_I, op.INPUT_F, op.INPUT_AV, op.PROBE, op.ROUT,
    )
)
_R1 = frozenset((op.RETV, op.OUTPUT, op.PRINT, op.ASSERT, op.JF, op.JT))

# Ops that observe the counters (directly or through an observer that
# reads ``machine.cycles``), leave the function, or touch I/O.  A loop
# containing none of these can defer its CHARGE sites to loop exit:
# nothing inside can tell the difference on a completing run.
_AGG_EXCLUDED = frozenset(
    (
        op.CALL, op.CALLI, op.RETV, op.RET0,
        op.PROBE, op.ROUT, op.ROUT_ARR, op.COMMIT, op.REND,
        op.PROFILE, op.SEGE, op.SEGX,
        op.PROF_ENTER, op.PROF_EXIT, op.PROF_PB, op.PROF_PE,
        op.PROF_CB, op.PROF_SX, op.PROF_LINE,
        op.INPUT_I, op.INPUT_F, op.INPUT_AV, op.OUTPUT, op.PRINT,
    )
)

_CMP_TEMPLATES = {
    op.EQ: "==", op.NE: "!=", op.LT: "<", op.LE: "<=", op.GT: ">", op.GE: ">=",
}


def _reg_uses(code) -> tuple[Counter, Counter]:
    """Static read/write counts per register over one function."""
    reads: Counter = Counter()
    writes: Counter = Counter()
    for ins in code:
        o = ins[0]
        if o in _W1R23:
            writes[ins[1]] += 1
            reads[ins[2]] += 1
            reads[ins[3]] += 1
        elif o in _W1R2:
            writes[ins[1]] += 1
            reads[ins[2]] += 1
        elif o in _W1:
            writes[ins[1]] += 1
        elif o in _R1:
            reads[ins[1]] += 1
        elif o == op.CALL:
            writes[ins[1]] += 1
            for a in ins[3]:
                reads[a] += 1
        elif o == op.CALLI:
            writes[ins[1]] += 1
            reads[ins[2]] += 1
            for a in ins[3]:
                reads[a] += 1
        elif o == op.STOREG:
            reads[ins[2]] += 1
        elif o == op.SETBOX or o == op.DEREFW:
            reads[ins[1]] += 1
            reads[ins[2]] += 1
        elif o == op.IDXW:
            reads[ins[1]] += 1
            reads[ins[2]] += 1
            reads[ins[3]] += 1
        elif o == op.PROF_PE:
            reads[ins[2]] += 1
        # Probe-family source descriptors read registers outside the
        # pending machinery (the translator's ``_vals`` names them
        # directly), so count register operands twice: that pins any
        # eagerly-evaluated temp as a materialized assignment instead of
        # an inlinable pending.
        if o == op.PROBE:
            srcs = ins[4]
        elif o == op.COMMIT or o == op.PROFILE:
            srcs = ins[3]
        elif o == op.ROUT_ARR:
            srcs = (ins[3],)
        else:
            continue
        for mode, slot in srcs:
            if mode == op.SRC_REG or mode == op.SRC_BOX:
                reads[slot] += 2
    return reads, writes


class _Pending:
    """A single-use value computation not yet committed to a statement.

    ``cond`` carries a boolean form (``(a < b)`` rather than
    ``1 if (a < b) else 0``) for use in branch contexts; ``volatile``
    marks side-effecting computations (calls, probes, input reads) that
    may not float across a ``CHARGE``.
    """

    __slots__ = ("reg", "expr", "cond", "volatile")

    def __init__(self, reg, expr, cond=None, volatile=False):
        self.reg = reg
        self.expr = expr
        self.cond = cond
        self.volatile = volatile


# Max width of an inlined operand for templates that repeat it textually
# (pointer/index ops); bounds the size blowup of nested pointer chains.
_REPEATED_CAP = 72

# Max width of any pending expression; wider values are materialized.
_PENDING_CAP = 3000

# Loop-invariant operand hoisting: an operand expression built purely
# from registers the enclosing loop never writes (and from constants and
# earlier hoists) computes the same value on every iteration, so it is
# assigned once to a ``_hN`` local in the loop preamble.  Only total
# pure expressions qualify — after stripping register/hoist references,
# numeric literals, and the ternary keywords, any remaining identifier
# (a call, a memory read through ``[``, a ``c_div`` fallback) rejects
# the expression, so hoisting can never raise where the loop would not.
_HOIST_MIN = 10
_HOIST_MAX_PER_LOOP = 64
_INV_TOKENS = re.compile(
    r"\br\d+\b|\b_h\d+\b|\b\d+(?:\.\d+)?(?:e[+-]?\d+)?\b|\bif\b|\belse\b|\bnot\b"
)
_REG_REF = re.compile(r"\br(\d+)\b")
_NONPURE = re.compile(r"[A-Za-z_\[]")


def _loop_writes(code, head: int, back: int) -> set[int]:
    """Registers written by any instruction in ``code[head..back]``."""
    written: set[int] = set()
    for pc in range(head, back + 1):
        ins = code[pc]
        o = ins[0]
        if o in _W1R23 or o in _W1R2 or o in _W1 or o == op.CALL or o == op.CALLI:
            written.add(ins[1])
    return written


class _HoistScope:
    __slots__ = ("written", "by_expr", "assigns")

    def __init__(self, written: set[int]) -> None:
        self.written = written
        self.by_expr: dict[str, str] = {}
        self.assigns: list[str] = []


class _LoopScope:
    __slots__ = ("tail", "exit", "back", "flag", "in_wrapper")

    def __init__(self, tail: int, exit_: int, back: int) -> None:
        self.tail = tail
        self.exit = exit_
        self.back = back
        self.flag = None
        self.in_wrapper = False


class _Translator:
    """Rebuilds one function's bytecode as Python source.

    Relies on the compiler's jump discipline: all jumps are forward
    except loop back edges, every loop is described in ``vmfn.loops``,
    every if/else and short-circuit join is the ``JUMP`` immediately
    before the false-branch target, and ``break``/``continue`` are
    forward jumps to the recorded loop exit/tail.  Any jump that doesn't
    fit raises :class:`Untranslatable`, and the whole program falls back
    to the closure backend.

    Expression re-fusion: a temp register written once and read once
    stays *pending* — its defining expression is inlined into the
    consumer when the pending tail matches the consumer's operands in
    evaluation order (a stack discipline, so runtime evaluation order is
    exactly the bytecode's).  Every emitted statement first flushes the
    pending list, so no pending computation ever floats across a store,
    call, or observer op; only pure pendings may float across a
    ``CHARGE``.  That is observable solely on a run aborted mid-block by
    an :class:`~repro.errors.InterpError` (the batched charge has already
    landed), and erroring runs produce no metrics.
    """

    def __init__(self, vmfn: VMFunction) -> None:
        self.vmfn = vmfn
        self.code = vmfn.code
        self.loops = vmfn.loops
        self.lines: list[str] = []
        self.indent = 1
        self.uses_globals = False
        self.used_calls: set[int] = set()
        self.used_fnobjs: set[int] = set()
        self._scopes: list[_LoopScope] = []
        self._n = 0  # wrapper/flag name counter
        reads, writes = _reg_uses(vmfn.code)
        base = vmfn.frame_size
        self.inlinable = {
            r for r, n in reads.items() if n == 1 and writes[r] == 1 and r >= base
        }
        # Dead temps (postfix ++/-- in statement position leaves one):
        # their defining copies need not be emitted at all.
        self.unread = {r for r in writes if r >= base and reads[r] == 0}
        self.pending: list[_Pending] = []
        # Inside an aggregated loop this holds the loop's CHARGE sites as
        # (counter_name, ((cls, n), ...)); None means charge directly.
        self._agg: list[tuple[str, tuple]] | None = None
        self._hoists: list[_HoistScope] = []
        self._hn = 0  # hoisted-value name counter
        # Value-set profiling is bound here, at translation time: each
        # profiled segment's SegmentProfile parts become namespace entries
        # that the PROFILE/SEGE/SEGX code writes into directly.
        self.bindings: dict[str, object] = {}
        # With a cycle-reading observer installed, every charge also adds
        # its cycles (per-class counts dotted with these weights) to the
        # running total ``_cy``; None means the translation keeps none.
        self.weights = vmfn.machine.cost.cycles if _reads_cycles(vmfn.machine) else None

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    # -- pending-expression machinery ----------------------------------------

    def flush(self) -> None:
        for e in self.pending:
            self.w(f"r{e.reg} = {e.expr}")
        self.pending.clear()

    def consume(self, regs, caps=None):
        """Resolve operand registers to ``[expr, cond, volatile]`` triples.

        Matches operands right-to-left against the pending tail (so
        inlining preserves evaluation order).  If some operand refers to
        a pending def that can't be inlined this way, everything is
        flushed first so a plain register read is always valid.
        """
        out = [[f"r{r}", None, False] for r in regs]
        i = len(self.pending) - 1
        k = len(regs) - 1
        while k >= 0 and i >= 0:
            e = self.pending[i]
            if e.reg != regs[k]:
                break
            # A capped slot is repeated textually by its template: never
            # inline a side-effecting expression there (it would run more
            # than once), and bound pure ones to keep the blowup linear.
            if caps is not None and caps[k] and (
                e.volatile or len(e.expr) > _REPEATED_CAP
            ):
                if e.volatile or any(p.volatile for p in self.pending[:i]):
                    break
                # Pure and too wide to repeat: materialize it here, ahead
                # of its elders (value-safe — a purely-pure pending chain
                # reads only state no pending can write), and keep
                # matching older entries into the other operand slots.
                self.w(f"r{e.reg} = {e.expr}")
                del self.pending[i]
                i -= 1
                k -= 1
                continue
            out[k] = [e.expr, e.cond, e.volatile]
            i -= 1
            k -= 1
        unmatched = {regs[j] for j in range(k + 1)}
        if any(e.reg in unmatched for e in self.pending[: i + 1]):
            self.flush()
            return [[f"r{r}", None, False] for r in regs]
        del self.pending[i + 1 :]
        return out

    def value(self, dest: int, expr: str, cond=None, volatile=False) -> None:
        """Record a value computation: pend it if single-use, else emit.

        Oversized expressions are materialized instead of pended (after
        flushing their elders, so execution order is unchanged) to keep
        the generated source within the parser's nesting comfort zone.
        """
        if dest in self.inlinable and len(expr) < _PENDING_CAP:
            self.pending.append(_Pending(dest, f"({expr})", cond, volatile))
        else:
            self.flush()
            self.w(f"r{dest} = {expr}")

    def stmt(self, line: str) -> None:
        self.flush()
        self.w(line)

    def charge(self, pairs, pad: str = "") -> None:
        """Emit constant charges, one ``_c[cls] += n`` line per (class, n)
        pair, then their cycles' addition to the running total."""
        for cls, n in pairs:
            self.w(f"{pad}_c[{cls}] += {n}")
        self.tally(pairs, pad)

    def cycles(self, pairs) -> int:
        return sum(n * self.weights[cls] for cls, n in pairs)

    def tally(self, pairs, pad: str = "") -> None:
        """In an observed translation, add the cycles of the (class, n)
        charges ``pairs`` to the running total."""
        if self.weights is not None:
            cycles = self.cycles(pairs)
            if cycles:
                self.w(f"{pad}_cy[0] += {cycles}")

    # -- source construction -------------------------------------------------

    def build(self) -> str:
        params = [f"_p{i}" for i in range(len(self.vmfn.param_specs))]
        self.emit_range(0, len(self.code))
        header = []
        for (slot, boxed), p in zip(self.vmfn.param_specs, params):
            header.append(f"    r{slot} = [{p}]" if boxed else f"    r{slot} = {p}")
        if self.uses_globals:
            header.append("    _g = _m.globals")
        name = f"_vm_{self.vmfn.name}"
        src = "\n".join(
            [f"def {name}({', '.join(params)}):"]
            + header
            + (self.lines or ["    pass"])
        )
        return _bare_atoms(src)

    # -- range / structure emission ------------------------------------------

    def emit_range(self, lo: int, hi: int, skip_loop_at: int = -1) -> None:
        code = self.code
        pc = lo
        while pc < hi:
            if pc in self.loops and pc != skip_loop_at:
                pc = self.emit_loop(pc)
                continue
            ins = code[pc]
            o = ins[0]
            if o == op.JUMP:
                self.jump_to(ins[1], pc, hi)
                pc += 1
            elif o == op.JF or o == op.JT:
                pc = self.branch(pc, ins[1], ins[2], o == op.JF, hi)
            else:
                self.emit_ins(ins)
                pc += 1
        self.flush()

    def jump_to(self, t: int, pc: int, hi: int) -> None:
        self.flush()
        if t == hi:
            return  # join: fall through to the end of this range
        scope = self._scopes[-1] if self._scopes else None
        if scope is not None and t == scope.tail:
            # continue-equivalent: reach the loop's tail (step/cond) region
            if scope.in_wrapper:
                self.w("break")  # ends the one-pass wrapper
            elif scope.tail == scope.back:
                self.w("continue")  # while loop: tail IS the back edge
            else:
                raise Untranslatable(f"continue outside wrapper at pc {pc}")
            return
        if scope is not None and t == scope.exit:
            if scope.in_wrapper:
                self.w(f"{scope.flag} = 1")
                self.w("break")
            else:
                self.w("break")
            return
        raise Untranslatable(f"unclassifiable jump {pc} -> {t}")

    def branch(self, pc: int, r: int, t: int, is_jf: bool, hi: int) -> int:
        code = self.code
        ((cexpr, ccond, _),) = self.consume([r])
        truth = ccond or cexpr
        self.flush()
        scope = self._scopes[-1] if self._scopes else None
        if scope is not None and t == scope.exit:
            # A loop condition's exit test (emitted outside the wrapper).
            if scope.in_wrapper:
                raise Untranslatable(f"exit test inside wrapper at pc {pc}")
            self.w(f"if {'not ' if is_jf else ''}{truth}: break")
            return pc + 1
        if t <= pc or t > hi:
            raise Untranslatable(f"branch {pc} -> {t} escapes range")
        join = None
        if t - 1 > pc and code[t - 1][0] == op.JUMP:
            j = code[t - 1][1]
            if t <= j <= hi and (scope is None or j != scope.exit):
                join = j
        if join is not None:
            # Two-armed: the JUMP before the target is the join.
            if is_jf:
                then_range, else_range = (pc + 1, t - 1), (t, join)
            else:
                then_range, else_range = (t, join), (pc + 1, t - 1)
            self.w(f"if {truth}:")
            self._suite(*then_range)
            self.w("else:")
            self._suite(*else_range)
            return join
        self.w(f"if {truth}:" if is_jf else f"if not {truth}:")
        self._suite(pc + 1, t)
        return t

    def _suite(self, lo: int, hi: int, skip_loop_at: int = -1) -> None:
        self.indent += 1
        before = len(self.lines)
        self.emit_range(lo, hi, skip_loop_at=skip_loop_at)
        if len(self.lines) == before:
            self.w("pass")
        self.indent -= 1

    def _aggregatable(self, head: int, back: int) -> bool:
        for pc in range(head, back + 1):
            if self.code[pc][0] in _AGG_EXCLUDED:
                return False
        return True

    def emit_loop(self, head: int) -> int:
        self.flush()
        tail, back, body, wrapped, has_break = self.loops[head]
        exit_ = back + 1
        # Charge aggregation: in a loop free of counter observers, each
        # CHARGE site becomes one ``_sN += 1`` and its classes are summed
        # up once at loop exit — exact for every completing run, whatever
        # path the iterations take, and ~#classes cheaper per block.
        outer_agg = self._agg
        self._agg = [] if self._aggregatable(head, back) else None
        self._hoists.append(_HoistScope(_loop_writes(self.code, head, back)))
        insert_at = len(self.lines)
        self.w("while True:")
        self.indent += 1
        before = len(self.lines)
        scope = _LoopScope(tail, exit_, back)
        self._scopes.append(scope)
        # Condition region (while/for): charge + cond + exit test.
        self.emit_range(head, body, skip_loop_at=head)
        if wrapped:
            # A bound continue must fall through to the step/cond region:
            # run the body in a one-pass wrapper (continue => wrapper
            # break), with a flag to escape both on a mini-C break.
            self._n += 1
            if has_break:
                scope.flag = f"_bf{self._n}"
                self.w(f"{scope.flag} = 0")
            self.w(f"for _w{self._n} in _ONE:")
            scope.in_wrapper = True
            # skip_loop_at: a do-while body starts AT the loop header
            # (there is no condition region), so the body range must not
            # re-enter this same loop.
            self._suite(body, tail, skip_loop_at=head)
            scope.in_wrapper = False
            if scope.flag is not None:
                self.w(f"if {scope.flag}: break")
        else:
            self.emit_range(body, tail, skip_loop_at=head)
        # Tail region: the for step or the do-while condition.
        self.emit_range(tail, back)
        back_ins = self.code[back]
        if back_ins[0] == op.JT:
            ((cexpr, ccond, _),) = self.consume([back_ins[1]])
            self.flush()
            self.w(f"if not {ccond or cexpr}: break")
        elif back_ins[0] != op.JUMP:  # pragma: no cover - compiler discipline
            raise Untranslatable(f"unexpected back edge at pc {back}")
        self._scopes.pop()
        if len(self.lines) == before:
            self.w("pass")  # for(;;); — an empty infinite loop
        self.indent -= 1
        agg, self._agg = self._agg, outer_agg
        pad = "    " * self.indent
        hoist = self._hoists.pop()
        for i, assign in enumerate(hoist.assigns):
            self.lines.insert(insert_at + i, f"{pad}{assign}")
        insert_at += len(hoist.assigns)
        if agg:
            for i, (var, _) in enumerate(agg):
                self.lines.insert(insert_at + i, f"{pad}{var} = 0")
            totals: dict[int, list[str]] = {}
            for var, pairs in agg:
                for cls, k in pairs:
                    totals.setdefault(cls, []).append(
                        var if k == 1 else f"{k} * {var}"
                    )
            for cls in sorted(totals):
                self.w(f"_c[{cls}] += " + " + ".join(totals[cls]))
            if self.weights is not None:
                terms = []
                for var, pairs in agg:
                    k = self.cycles(pairs)
                    if k:
                        terms.append(var if k == 1 else f"{k} * {var}")
                if terms:
                    self.w("_cy[0] += " + " + ".join(terms))
        return exit_

    # -- instruction emission -------------------------------------------------

    def _src(self, mode: int, slot: int) -> str:
        if mode == op.SRC_REG:
            return f"r{slot}"
        if mode == op.SRC_BOX:
            return f"r{slot}[0]"
        if mode == op.SRC_CONST:
            return repr(slot)
        self.uses_globals = True
        return f"_g[{slot}]"

    def _vals(self, srcs) -> str:
        if not srcs:
            return "()"
        return "(" + ", ".join(self._src(m, s) for m, s in srcs) + ",)"

    def value_site(self, seg: int) -> bool:
        """Bind segment ``seg``'s value profile into the namespace; False
        when no profiler is installed or it filters the segment out."""
        profiler = self.vmfn.machine.profiler
        profile = None if profiler is None else profiler.site(seg)
        if profile is None:
            return False
        self.bindings.update(
            {
                f"_vp{seg}": profile,
                f"_vk{seg}": profile.key_stream,
                f"_vi{seg}": profile._key_ids,
                f"_ve{seg}": profile._enter_stack,
            }
        )
        return True

    def _key(self, kinds, srcs) -> str:
        """A PROFILE or scalar PROBE site's key tuple, built from its
        static layout: the words ``_append_words`` gives, with constants
        folded here."""
        parts = []
        for kind, (mode, slot) in zip(kinds, srcs):
            if mode == op.SRC_CONST:
                words: list[int] = []
                _append_words(words, slot, kind)
                parts.extend(repr(word) for word in words)
            elif kind == _KIND_AGGREGATE:
                parts.append(f"*_agg_words({self._src(mode, slot)})")
            elif kind == _KIND_FLOAT:
                parts.append(f"_fbits({self._src(mode, slot)})")
            else:
                parts.append(f"{self._src(mode, slot)} & 4294967295")
        return "(" + ", ".join(parts) + ",)" if parts else "()"

    def _probe(self, dest: int, seg: int, meta, srcs) -> None:
        """A scalar-key probe site as straight-line code: one table-slot
        read, one bypass test, the folded charges, the key built inline
        — ``k_probe``'s steps and charges in the same order."""
        self.flush()
        self.w(f"_t = _T[{seg}]")
        self.w("if _t.bypassed:")
        self.w(f"    r{dest} = _k_bypass(_t, _c)")
        self.tally(_BYPASS_CHARGE, "    ")
        self.w("else:")
        self.charge(
            _site_charges(meta, (HASH_FIXED, 1), (HASH_WORD, len(meta))), "    "
        )
        key = self._key([kind for kind, _ in meta], srcs)
        self.w(f"    r{dest} = 1 if _t.probe({key}) else 0")

    def _commit(self, seg: int, meta, srcs) -> None:
        """A commit site whose outputs are all scalars, as ``k_commit``
        would run it."""
        self.flush()
        self.w(f"_t = _T[{seg}]")
        self.w("if _t.pending_bypassed():")
        self.w("    _k_bypass_commit(_t, _c)")
        self.tally(_BYPASS_CHARGE, "    ")
        self.w("else:")
        self.charge(_site_charges(meta, (HASH_WORD, len(meta))), "    ")
        self.w(f"    _t.commit({self._vals(srcs)})")

    def _totalled(self) -> str:
        """An aggregate kernel call's trailing arguments in an observed
        translation: the running total and the weights to add to it."""
        return ", _cy, _cw" if self.weights is not None else ""

    def maybe_hoist(self, expr: str, volatile: bool) -> str:
        """Replace a loop-invariant pure operand with a preamble local."""
        if volatile or not self._hoists or len(expr) < _HOIST_MIN:
            return expr
        scope = self._hoists[-1]
        var = scope.by_expr.get(expr)
        if var is not None:
            return var
        if len(scope.assigns) >= _HOIST_MAX_PER_LOOP:
            return expr
        if _NONPURE.search(_INV_TOKENS.sub("", expr)):
            return expr
        if any(int(m) in scope.written for m in _REG_REF.findall(expr)):
            return expr
        self._hn += 1
        var = f"_h{self._hn}"
        scope.assigns.append(f"{var} = {expr}")
        scope.by_expr[expr] = var
        return var

    def _ab(self, ins):
        """Two register operands; the joint volatility taints the result."""
        (a, _, av), (b, _, bv) = self.consume([ins[2], ins[3]])
        return self.maybe_hoist(a, av), self.maybe_hoist(b, bv), av or bv

    def _one(self, ins):
        ((s, _, v),) = self.consume([ins[2]])
        return self.maybe_hoist(s, v), v

    def emit_ins(self, ins) -> None:
        o = ins[0]
        if o == op.CHARGE:
            # Pure pendings may float across counter increments (the
            # accepted erroring-run divergence); side-effecting ones
            # (calls charge inside the callee) must not.
            if any(e.volatile for e in self.pending):
                self.flush()
            if self._agg is not None:
                self._n += 1
                var = f"_s{self._n}"
                self._agg.append((var, ins[1]))
                self.w(f"{var} += 1")
            else:
                self.charge(ins[1])
        elif o == op.MOV:
            if ins[1] in self.unread:
                return  # dead copy; the source stays pending/assigned
            ((s, c, v),) = self.consume([ins[2]])
            self.value(ins[1], s, cond=c, volatile=v)
        elif o == op.LOADI:
            if ins[1] in self.unread:
                return
            self.value(ins[1], repr(ins[2]))
        elif o == op.ADD:
            a, b, v = self._ab(ins)
            self.value(ins[1], _w32(f"{a} + {b}"), volatile=v)
        elif o == op.SUB:
            a, b, v = self._ab(ins)
            self.value(ins[1], _w32(f"{a} - {b}"), volatile=v)
        elif o == op.MUL:
            a, b, v = self._ab(ins)
            self.value(ins[1], _w32(f"{a} * {b}"), volatile=v)
        elif o == op.DIV:
            # int(a / b) is exact C truncation for |operands| < 2**53 (the
            # quotient would need a*b >= 2**53 to round across an integer);
            # the zero check falls back to c_div for the InterpError.  The
            # dividend repeats only across exclusive branches (one runtime
            # evaluation), so just the guarded divisor is capped — but the
            # guard evaluates the divisor first, so a side-effecting
            # dividend takes the plain call form to keep evaluation order.
            (a, _, av), (b, _, _) = self.consume([ins[2], ins[3]], caps=(False, True))
            if av:
                self.value(ins[1], f"c_div({a}, {b})", volatile=True)
            else:
                self.value(ins[1], f"int({a} / {b}) if {b} else c_div({a}, {b})")
        elif o == op.MOD:
            # fmod is exact on integer-valued doubles and the remainder
            # sign follows the dividend — C99 semantics, like c_mod.
            (a, _, av), (b, _, _) = self.consume([ins[2], ins[3]], caps=(False, True))
            if av:
                self.value(ins[1], f"c_mod({a}, {b})", volatile=True)
            else:
                self.value(ins[1], f"int(_fmod({a}, {b})) if {b} else c_mod({a}, {b})")
        elif o == op.SHL:
            a, b, v = self._ab(ins)
            self.value(ins[1], _w32(f"{a} << ({b} & 31)"), volatile=v)
        elif o == op.SHR:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} >> ({b} & 31)", volatile=v)
        elif o == op.AND:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} & {b}", volatile=v)
        elif o == op.OR:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} | {b}", volatile=v)
        elif o == op.XOR:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} ^ {b}", volatile=v)
        elif o == op.NEG:
            s, v = self._one(ins)
            self.value(ins[1], _w32(f"-{s}"), volatile=v)
        elif o == op.BNOT:
            s, v = self._one(ins)
            self.value(ins[1], f"~{s}", volatile=v)
        elif o == op.NOT:
            ((s, c, v),) = self.consume([ins[2]])
            cond = f"(not {c or s})"
            self.value(ins[1], f"1 if {cond} else 0", cond=cond, volatile=v)
        elif o == op.BOOL:
            ((s, c, v),) = self.consume([ins[2]])
            cond = c or f"({s})"
            self.value(ins[1], f"1 if {cond} else 0", cond=cond, volatile=v)
        elif o == op.FADD:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} + {b}", volatile=v)
        elif o == op.FSUB:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} - {b}", volatile=v)
        elif o == op.FMUL:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"{a} * {b}", volatile=v)
        elif o == op.FDIV:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"_fdiv({a}, {b})", volatile=v)
        elif o == op.FNEG:
            s, v = self._one(ins)
            self.value(ins[1], f"-{s}", volatile=v)
        elif o in _CMP_TEMPLATES:
            a, b, v = self._ab(ins)
            cond = f"({a} {_CMP_TEMPLATES[o]} {b})"
            self.value(ins[1], f"1 if {cond} else 0", cond=cond, volatile=v)
        elif o == op.RETV:
            ((s, _, _),) = self.consume([ins[1]])
            self.flush()
            self.charge(((RET, 1),))
            self.w(f"return {s}")
        elif o == op.RET0:
            self.flush()
            self.charge(((RET, 1),))
            self.w("return 0")
        elif o == op.LOADG:
            self.uses_globals = True
            self.value(ins[1], f"_g[{ins[2]}]")
        elif o == op.STOREG:
            self.uses_globals = True
            ((s, _, _),) = self.consume([ins[2]])
            self.stmt(f"_g[{ins[1]}] = {s}")
        elif o == op.GETBOX:
            s, v = self._one(ins)
            self.value(ins[1], f"{s}[0]", volatile=v)
        elif o == op.SETBOX:
            (b, _, _), (s, _, _) = self.consume([ins[1], ins[2]])
            self.stmt(f"{b}[0] = {s}")
        elif o == op.NEWBOX:
            s, v = self._one(ins)
            self.value(ins[1], f"[{s}]", volatile=v)
        elif o == op.NEWBOXI:
            self.value(ins[1], f"[{ins[2]!r}]")
        elif o == op.ALLOC_Z:
            self.value(ins[1], f"zero_value(_K[{ins[2]}])")
        elif o == op.ALLOC_T:
            self.value(ins[1], f"deep_copy_value(_K[{ins[2]}])")
        elif o == op.PADD:
            (a, _, _), (b, _, _) = self.consume([ins[2], ins[3]], caps=(True, True))
            self.value(
                ins[1],
                f"({a}[0], {a}[1] + {b}) if type({a}) is tuple else ({a}, {b})",
            )
        elif o == op.PSUB:
            (a, _, _), (b, _, _) = self.consume([ins[2], ins[3]], caps=(True, True))
            self.value(
                ins[1],
                f"({a}[0], {a}[1] - {b}) if type({a}) is tuple else ({a}, -{b})",
            )
        elif o == op.PDIFF:
            (a, _, _), (b, _, _) = self.consume([ins[2], ins[3]], caps=(True, True))
            self.value(
                ins[1],
                f"({a}[1] if type({a}) is tuple else 0)"
                f" - ({b}[1] if type({b}) is tuple else 0)",
            )
        elif o == op.IDX:
            (b, _, _), (i, _, _) = self.consume([ins[2], ins[3]], caps=(True, True))
            self.value(
                ins[1],
                f"{b}[0][{b}[1] + {i}] if type({b}) is tuple else {b}[{i}]",
            )
        elif o == op.IDXW:
            (b, _, _), (i, _, _), (s, _, _) = self.consume(
                [ins[1], ins[2], ins[3]], caps=(True, True, True)
            )
            self.flush()
            self.w(f"if type({b}) is tuple:")
            self.w(f"    {b}[0][{b}[1] + {i}] = {s}")
            self.w("else:")
            self.w(f"    {b}[{i}] = {s}")
        elif o == op.ADDR:
            (b, _, _), (i, _, _) = self.consume([ins[2], ins[3]], caps=(True, True))
            self.value(
                ins[1],
                f"({b}[0], {b}[1] + {i}) if type({b}) is tuple else ({b}, {i})",
            )
        elif o == op.DEREF:
            ((p, _, _),) = self.consume([ins[2]], caps=(True,))
            self.value(ins[1], f"{p}[0][{p}[1]] if type({p}) is tuple else {p}[0]")
        elif o == op.DEREFW:
            (p, _, _), (s, _, _) = self.consume([ins[1], ins[2]], caps=(True, True))
            self.flush()
            self.w(f"if type({p}) is tuple:")
            self.w(f"    {p}[0][{p}[1]] = {s}")
            self.w("else:")
            self.w(f"    {p}[0] = {s}")
        elif o == op.CALL:
            self.used_calls.add(ins[2])
            args = [x[0] for x in self.consume(list(ins[3]))]
            self.value(ins[1], f"_F{ins[2]}({', '.join(args)})", volatile=True)
        elif o == op.CALLI:
            parts = [x[0] for x in self.consume([ins[2], *ins[3]])]
            self.value(
                ins[1],
                f"_icall({parts[0]})({', '.join(parts[1:])})",
                volatile=True,
            )
        elif o == op.LOADFN:
            self.used_fnobjs.add(ins[2])
            self.value(ins[1], f"_FOBJ{ins[2]}")
        elif o == op.INPUT_I:
            self.value(ins[1], _w32("int(_next_input())", term=True), volatile=True)
        elif o == op.INPUT_F:
            self.value(ins[1], "float(_next_input())", volatile=True)
        elif o == op.INPUT_AV:
            self.value(ins[1], "_input_avail()", volatile=True)
        elif o == op.OUTPUT:
            ((s, _, _),) = self.consume([ins[1]])
            self.stmt(f"_emit_out({s})")
        elif o == op.PRINT:
            ((s, _, _),) = self.consume([ins[1]])
            self.stmt(f"_m.debug_log.append({s})")
        elif o == op.ASSERT:
            ((s, c, _),) = self.consume([ins[1]])
            self.stmt(f"if not {c or s}: raise _IErr('__assert failed')")
        elif o == op.CAST_I:
            s, v = self._one(ins)
            self.value(ins[1], _w32(f"int({s})", term=True), volatile=v)
        elif o == op.CAST_F:
            s, v = self._one(ins)
            self.value(ins[1], f"float({s})", volatile=v)
        elif o == op.ABS:
            s, v = self._one(ins)
            self.value(ins[1], _w32(f"abs({s})", term=True), volatile=v)
        elif o == op.FABS:
            s, v = self._one(ins)
            self.value(ins[1], f"abs(float({s}))", volatile=v)
        elif o == op.MIN:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"min({a}, {b})", volatile=v)
        elif o == op.MAX:
            a, b, v = self._ab(ins)
            self.value(ins[1], f"max({a}, {b})", volatile=v)
        elif o == op.MATH:
            s, v = self._one(ins)
            self.value(ins[1], f"float(_MATH[{ins[3]}](float({s})))", volatile=v)
        elif o == op.PROBE:
            if _has_aggregate(ins[3]):
                self.value(
                    ins[1],
                    f"_k_probe(_T, _c, {ins[2]}, {self._vals(ins[4])}, {ins[3]!r}"
                    f"{self._totalled()})",
                    volatile=True,
                )
            else:
                self._probe(ins[1], ins[2], ins[3], ins[4])
        elif o == op.ROUT:
            self.value(ins[1], f"_T[{ins[2]}].output({ins[3]})", volatile=True)
        elif o == op.ROUT_ARR:
            dest = self._src(*ins[3])
            self.stmt(
                f"_k_out_arr(_T, _c, {ins[1]}, {ins[2]}, {dest}, {ins[4]}"
                f"{self._totalled()})"
            )
        elif o == op.COMMIT:
            if _has_aggregate(ins[2]):
                self.stmt(
                    f"_k_commit(_T, _c, {ins[1]}, {self._vals(ins[3])}, {ins[2]!r}"
                    f"{self._totalled()})"
                )
            else:
                self._commit(ins[1], ins[2], ins[3])
        elif o == op.REND:
            self.stmt(f"_T[{ins[1]}].finish()")
        elif o == op.PROFILE:
            self.flush()
            if self.value_site(ins[1]):
                key = self._key(ins[2], ins[3])
                ids = f"_vi{ins[1]}"
                self.w(f"_vk{ins[1]}.append({ids}.setdefault({key}, len({ids})))")
        elif o == op.SEGE:
            self.flush()
            if self.value_site(ins[1]):
                self.w(f"_ve{ins[1]}.append(_cy[0])")
        elif o == op.SEGX:
            self.flush()
            if self.value_site(ins[1]):
                # outermost exit only, so recursion does not double-count
                stack = f"_ve{ins[1]}"
                self.w(f"if {stack}:")
                self.w(f"    _vt = {stack}.pop()")
                self.w(f"    if not {stack}:")
                self.w(f"        _vp{ins[1]}.inclusive_cycles += _cy[0] - _vt")
        elif o == op.PROF_ENTER:
            self.stmt(f"_prof.enter_function({ins[1]!r})")
        elif o == op.PROF_EXIT:
            self.stmt("_prof.exit_function()")
        elif o == op.PROF_PB:
            self.stmt(f"_prof.probe_begin({ins[1]})")
        elif o == op.PROF_PE:
            # a bypassed probe returns 0 like a miss; the table's pending
            # stack tells them apart
            self.stmt(
                f"_prof.probe_end({ins[1]}, hit=r{ins[2]} == 1,"
                f" bypassed=_T[{ins[1]}].pending_bypassed())"
            )
        elif o == op.PROF_CB:
            self.stmt(f"_prof.commit_begin({ins[1]})")
        elif o == op.PROF_SX:
            self.stmt(f"_prof.segment_exit({ins[1]})")
        elif o == op.PROF_LINE:
            self.stmt(f"_prof.at_line({ins[1]})")
        else:  # pragma: no cover - complete opcode coverage above
            raise Untranslatable(f"no template for opcode {o}")


def install_translated(vmfn: VMFunction) -> tuple[dict, set[int], set[int]]:
    """Translate ``vmfn`` to a Python function and install it as ``call``.

    Returns the exec namespace and the function indices used for direct
    calls / function values, to be patched by :func:`link_program` once
    every function is translated.  Raises :class:`Untranslatable`
    (leaving ``vmfn`` unmodified) when the bytecode defeats structural
    reconstruction.
    """
    xl = _Translator(vmfn)
    src = xl.build()
    # free the source lines before compile(): the parser's transient
    # peak on a large function is what sets a warm run's peak RSS
    xl.lines.clear()
    machine = vmfn.machine
    namespace = {
        "_m": machine,
        "_c": machine.counters,
        "_cy": machine.cycle_total,
        "_cw": machine.cost.cycles,
        "_T": machine.reuse_tables,
        "_K": vmfn.consts,
        "_prof": vmfn.cycle_profiler,
        "_ONE": (0,),
        "_IErr": InterpError,
        "_icall": _icall,
        "_fdiv": _float_div,
        "_fmod": math.fmod,
        "_MATH": _MATH_IMPLS,
        "c_div": c_div,
        "c_mod": c_mod,
        "zero_value": zero_value,
        "deep_copy_value": deep_copy_value,
        "_next_input": machine.next_input,
        "_input_avail": machine.input_available,
        "_emit_out": machine.emit,
        "_k_probe": k_probe,
        "_k_commit": k_commit,
        "_k_out_arr": k_out_arr,
        "_k_bypass": k_bypass,
        "_k_bypass_commit": k_bypass_commit,
        "_fbits": float_bits,
        "_agg_words": _aggregate_words,
    }
    namespace.update(xl.bindings)
    name = f"_vm_{vmfn.name}"
    exec(compile(src, f"<vm:{vmfn.name}>", "exec"), namespace)
    fn = namespace[name]
    fn.vm_source = src  # for debugging / tests
    vmfn.call = fn
    return namespace, xl.used_calls, xl.used_fnobjs


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------


class VMProgram:
    """A whole program compiled to bytecode against a machine.

    Interface-compatible with
    :class:`repro.runtime.compiler.CompiledProgram` (``functions``,
    ``reset_globals``, ``run``), so every caller of ``compile_program``
    works with either backend.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.functions: dict[str, VMFunction] = {}
        self.by_index: list[VMFunction] = []
        self._global_templates: list = []

    def reset_globals(self) -> None:
        self.machine.globals = [deep_copy_value(v) for v in self._global_templates]

    def run(self, entry: str = "main", args: tuple = ()):
        """Invoke ``entry`` with fresh globals and I/O, return its value.

        Counters are *not* reset so several runs can accumulate, exactly
        like the closure backend's ``CompiledProgram.run``.
        """
        self.reset_globals()
        self.machine.reset_io()
        fn = self.functions.get(entry)
        if fn is None:
            raise InterpError(f"no function named {entry!r}")
        return fn.invoke(tuple(args))


def compile_vm_program(program, machine) -> VMProgram:
    """Compile a resolved mini-C program to bytecode against ``machine``.

    Mirrors ``compile_program``'s phases: function shells (so calls and
    function values resolve by index), global templates, then bodies —
    with the same Typer, so both backends see identical globals and
    function values.
    """
    from ...minic.sema import Typer
    from ..compiler import _ensure_recursion_limit, _global_template

    _ensure_recursion_limit()
    prog = VMProgram(machine)
    if machine.source_map is not None:
        machine.source_map.backend = "vm"
    fn_index = {fn.name: i for i, fn in enumerate(program.functions)}
    templates = [_global_template(g.decl) for g in program.globals]
    prog._global_templates = templates
    prog.reset_globals()
    typer = Typer(program)
    for i, fn in enumerate(program.functions):
        vmfn = compile_function(fn, typer, machine, fn_index, i)
        prog.functions[fn.name] = vmfn
        prog.by_index.append(vmfn)
    link_program(prog)
    return prog


def link_program(prog: VMProgram) -> None:
    """Translate every function and patch direct call references between
    the generated functions.  :class:`Untranslatable` propagates: one
    function that cannot be translated fails the whole program."""
    translated = [install_translated(vmfn) for vmfn in prog.by_index]
    machine = prog.machine
    if _reads_cycles(machine):
        # the translations keep the running total from here on
        machine.cycle_total[0] = machine.cycles
        if machine.cycle_profiler is not None:
            machine.cycle_profiler.read_total(machine.cycle_total)
    # Direct calls bind the callee's entry point without per-call lookups;
    # this must wait until every function is translated.
    for namespace, used_calls, used_fnobjs in translated:
        for fi in used_calls:
            namespace[f"_F{fi}"] = prog.by_index[fi].call
        for fi in used_fnobjs:
            namespace[f"_FOBJ{fi}"] = prog.by_index[fi]

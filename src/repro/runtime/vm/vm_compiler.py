"""Compiler from resolved mini-C ASTs to the flat register bytecode.

The lowering mirrors the closure compiler (:mod:`repro.runtime.compiler`)
decision for decision: the same typed operator selection, the same
evaluation order, and the same charge classes in the same places.  The
one representational difference is *when* counters are touched — charges
accumulate in a pending tally and are emitted as one ``CHARGE`` op per
basic block, flushed before every jump target, call, and observer op.
Within a basic block the tally is a static property of the code, so the
batched charge leaves the same counters at every flush point.

Charges are recorded *before* their operand subtrees are compiled, because
that is when the closures charge (``ctr[cls] += 1`` precedes operand
evaluation in every ``run_*`` closure).  With calls as flush points this
reproduces the closure backend's counter state at every observation
boundary — function entries/exits, reuse intrinsics, and the ``SEGE``/
``SEGX`` sites (``__seg_enter``/``__seg_exit``) where the translated code
reads cycles for the value-set profiler bound into it at compile time —
bit-for-bit.

Control flow is emitted under a structural discipline so the translation
engine (:mod:`repro.runtime.vm.vm`) can rebuild native Python loops
without a general CFG analysis: every loop has exactly one backward jump
(its back edge), ``continue`` compiles to a *forward* jump to the loop's
tail (the for-step / do-while-condition / the back edge itself), and
``break`` to a forward jump past the back edge.  Each loop's shape is
recorded in a side table (``VMFunction.loops``).
"""

from __future__ import annotations

from ...errors import InterpError
from ...minic import astnodes as ast
from ...minic.builtins import BUILTINS
from ...minic.types import FLOAT, ArrayType, PointerType, decay
from ..costs import (
    ALU,
    BRANCH,
    CALL as C_CALL,
    CONST,
    DIV as C_DIV,
    FALU,
    FDIV as C_FDIV,
    FMUL,
    GLOBAL_RD,
    GLOBAL_WR,
    HASH_WORD,
    IO,
    LOCAL_RD,
    LOCAL_WR,
    MATH as C_MATH,
    MEM_RD,
    MEM_WR,
    MUL as C_MUL,
)
from ..intrinsics import (
    _KIND_FLOAT,
    _segment_id,
    _value_kind,
)
from ..values import wrap32, zero_value
from . import vm_opcodes as op


def _binds_break(stmt: ast.Stmt) -> bool:
    """Does ``stmt`` contain a ``break`` binding to the *enclosing* loop?

    Nested loops capture their own ``break``/``continue``, so recursion
    stops at loop boundaries.
    """
    if isinstance(stmt, ast.Break):
        return True
    if isinstance(stmt, ast.Block):
        return any(_binds_break(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        if _binds_break(stmt.then):
            return True
        return stmt.els is not None and _binds_break(stmt.els)
    return False


def _binds_continue(stmt: ast.Stmt) -> bool:
    """Like :func:`_binds_break`, for ``continue``."""
    if isinstance(stmt, ast.Continue):
        return True
    if isinstance(stmt, ast.Block):
        return any(_binds_continue(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        if _binds_continue(stmt.then):
            return True
        return stmt.els is not None and _binds_continue(stmt.els)
    return False


class Label:
    """A forward-patchable jump target."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc = -1


class VMFunction:
    """One compiled function: flat code, constants, register metadata.

    ``loops`` maps each loop header pc to ``(tail_pc, back_pc, wrapped,
    has_break)`` — the structural side table the translation engine uses
    to rebuild native loops.  ``call`` is installed by the translator at
    link time; ``invoke`` keeps the closure backend's
    ``CompiledFunction`` interface so everything downstream (facade,
    experiment runner, tests) works against either backend.
    """

    def __init__(self, fn: ast.Function, index: int) -> None:
        self.name = fn.name
        self.ret_type = fn.ret_type
        self.index = index
        self.param_specs = [
            (p.symbol.slot, p.symbol.address_taken and p.symbol.type.is_scalar)
            for p in fn.params
        ]
        self.code: list[tuple] = []
        self.consts: tuple = ()
        self.frame_size = fn.frame_size  # registers above this are temps
        self.nregs = fn.frame_size
        self.loops: dict[int, tuple] = {}
        self.machine = None
        self.cycle_profiler = None
        self.call = None  # installed by the translator at link time

    def invoke(self, args: tuple):
        return self.call(*args)

    def disassemble(self) -> str:
        return op.disassemble(self.code, self.consts, self.loops)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<vm fn {self.name}>"


class _LoopCtx:
    __slots__ = ("tail", "exit", "head")

    def __init__(self, head: Label, tail: Label, exit: Label) -> None:
        self.head = head
        self.tail = tail
        self.exit = exit


class _FnCompiler:
    """Compiles one function body to bytecode (mirror of _FunctionCompiler)."""

    def __init__(self, fn, vmfn: VMFunction, typer, machine, fn_index: dict) -> None:
        self.fn = fn
        self.vmfn = vmfn
        self.typer = typer
        self.machine = machine
        self.fn_index = fn_index  # name -> function table index
        self.code: list = []
        self.consts: list = []
        self.pending: dict[int, int] = {}
        # Temps are never reused: every expression value gets a fresh slot,
        # so "written once and read once" is decidable by a whole-function
        # census — which is exactly what the translation engine's
        # expression re-fusion keys on.
        self._tmp = fn.frame_size
        self._high = fn.frame_size
        self._loops: list[_LoopCtx] = []
        # (head, tail, back_pc, body_start, wrapped, has_break) per loop
        self._loop_meta: list[tuple] = []
        self.profiled = machine.cycle_profiler is not None
        # Line-attribution marks (PROF_LINE) exist only when the profiler
        # tracks lines; the SourceMap side table never changes emission.
        self.lined = self.profiled and getattr(
            machine.cycle_profiler, "track_lines", False
        )
        source_map = machine.source_map
        self.srcmap = None if source_map is None else source_map.function(fn.name)
        self.cur_line = 0
        self.pending_lines: dict[tuple[int, int], int] = {}

    # -- emission infrastructure -------------------------------------------

    def emit(self, *ins) -> int:
        self.code.append(ins)
        if self.srcmap is not None:
            self.srcmap.pc_lines.append((len(self.code) - 1, self.cur_line))
        return len(self.code) - 1

    def newtmp(self) -> int:
        r = self._tmp
        self._tmp += 1
        if self._tmp > self._high:
            self._high = self._tmp
        return r

    def newlabel(self) -> Label:
        return Label()

    def bind(self, label: Label) -> None:
        self.flush()
        label.pc = len(self.code)

    def const(self, value) -> int:
        self.consts.append(value)
        return len(self.consts) - 1

    def charge(self, cls: int, n: int = 1) -> None:
        self.pending[cls] = self.pending.get(cls, 0) + n
        if self.srcmap is not None:
            key = (self.cur_line, cls)
            self.pending_lines[key] = self.pending_lines.get(key, 0) + n

    def flush(self) -> None:
        if self.pending:
            pairs = tuple(
                (cls, self.pending[cls]) for cls in sorted(self.pending) if self.pending[cls]
            )
            if pairs:
                pc = self.emit(op.CHARGE, pairs)
                if self.srcmap is not None:
                    self.srcmap.charge_lines[pc] = tuple(
                        (line, cls, n)
                        for (line, cls), n in sorted(self.pending_lines.items())
                        if n
                    )
            self.pending.clear()
            self.pending_lines.clear()

    def record_site(self, seg: int, key: str) -> None:
        """Note a reuse site's source line in the debug side table."""
        if self.srcmap is not None:
            self.srcmap.sites.setdefault(seg, {})[key] = self.cur_line

    def _iter_mark(self, s: ast.Stmt) -> None:
        """Per-iteration line mark at a loop head/tail.  The caller just
        bound a label (pending flushed), so the mark sits at a flush
        point — the same counter state the closure backend's line-mode
        loop variants tick at."""
        if s.line > 0:
            self.cur_line = s.line
            if self.lined:
                self.emit(op.PROF_LINE, s.line)

    # -- top level ----------------------------------------------------------

    def compile(self) -> VMFunction:
        if self.profiled:
            self.emit(op.PROF_ENTER, self.fn.name)
        self.stmt(self.fn.body)
        # Fall-off-the-end epilogue: profiler exit, then the RET charge —
        # the closure backend's invoke() order.
        self.flush()
        if self.profiled:
            self.emit(op.PROF_EXIT)
        self.emit(op.RET0)
        self._assemble()
        return self.vmfn

    def _assemble(self) -> None:
        code = []
        for ins in self.code:
            if ins[0] in (op.JUMP, op.JF, op.JT):
                resolved = tuple(x.pc if isinstance(x, Label) else x for x in ins)
                code.append(resolved)
            else:
                code.append(ins)
        self.vmfn.code = code
        self.vmfn.consts = tuple(self.consts)
        self.vmfn.nregs = self._high
        self.vmfn.loops = {
            head.pc: (tail.pc, back_pc, body_start, wrapped, has_break)
            for head, tail, back_pc, body_start, wrapped, has_break in self._loop_meta
        }

    # -- statements ----------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> None:
        if not isinstance(s, ast.Block) and s.line > 0:
            # Statement-start line mark: flush first (the pending charges
            # belong to the previous statement's line), then mark.  The
            # closure backend wraps each statement closure identically.
            if self.lined:
                self.flush()
            self.cur_line = s.line
            if self.lined:
                self.emit(op.PROF_LINE, s.line)
        if isinstance(s, ast.Block):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, ast.ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, ast.DeclStmt):
            self._decl(s)
        elif isinstance(s, ast.If):
            self._if(s)
        elif isinstance(s, ast.While):
            self._while(s)
        elif isinstance(s, ast.DoWhile):
            self._do_while(s)
        elif isinstance(s, ast.For):
            self._for(s)
        elif isinstance(s, ast.Return):
            self._return(s)
        elif isinstance(s, ast.Break):
            self._break()
        elif isinstance(s, ast.Continue):
            self._continue()
        else:
            raise InterpError(f"cannot compile statement {type(s).__name__}")

    def _decl(self, s: ast.DeclStmt) -> None:
        from ..compiler import _fill_array

        for decl in s.decls:
            symbol = decl.symbol
            if symbol is None:
                raise InterpError(f"unresolved declaration {decl.name!r}")
            slot = symbol.slot
            boxed = symbol.address_taken and symbol.type.is_scalar
            if isinstance(symbol.type, ArrayType):
                if decl.array_init is not None:
                    template = _fill_array(symbol.type, decl.array_init)
                    self.emit(op.ALLOC_T, slot, self.const(template))
                else:
                    self.emit(op.ALLOC_Z, slot, self.const(symbol.type))
            elif decl.init is not None:
                self.charge(LOCAL_WR)
                rv = self.expr(decl.init)
                if boxed:
                    self.emit(op.NEWBOX, slot, rv)
                else:
                    self.emit(op.MOV, slot, rv)
            else:
                zero = zero_value(symbol.type)
                if boxed:
                    self.emit(op.NEWBOXI, slot, zero)
                else:
                    self.emit(op.LOADI, slot, zero)

    def _return(self, s: ast.Return) -> None:
        if s.value is None:
            self.flush()
            if self.profiled:
                self.emit(op.PROF_EXIT)
            self.emit(op.RET0)
            return
        rv = self.expr(s.value)
        self.flush()
        if self.profiled:
            self.emit(op.PROF_EXIT)
        self.emit(op.RETV, rv)

    def _break(self) -> None:
        self.charge(BRANCH)
        self.flush()
        if not self._loops:
            raise InterpError("break outside a loop")
        self.emit(op.JUMP, self._loops[-1].exit)

    def _continue(self) -> None:
        self.charge(BRANCH)
        self.flush()
        if not self._loops:
            raise InterpError("continue outside a loop")
        self.emit(op.JUMP, self._loops[-1].tail)

    def _if(self, s: ast.If) -> None:
        self.charge(BRANCH)
        rc = self.expr(s.cond)
        self.flush()
        if s.els is None:
            end = self.newlabel()
            self.emit(op.JF, rc, end)
            self.stmt(s.then)
            self.bind(end)
            return
        els = self.newlabel()
        end = self.newlabel()
        self.emit(op.JF, rc, els)
        self.stmt(s.then)
        self.flush()
        self.emit(op.JUMP, end)
        self.bind(els)
        self.stmt(s.els)
        self.bind(end)

    def _while(self, s: ast.While) -> None:
        head = self.newlabel()
        tail = self.newlabel()
        exit_ = self.newlabel()
        self.bind(head)
        self._iter_mark(s)
        self.charge(BRANCH)
        rc = self.expr(s.cond)
        self.flush()
        self.emit(op.JF, rc, exit_)
        body_start = len(self.code)
        self._loops.append(_LoopCtx(head, tail, exit_))
        self.stmt(s.body)
        self._loops.pop()
        self.bind(tail)  # the back edge itself: continue re-tests the condition
        back_pc = self.emit(op.JUMP, head)
        self.bind(exit_)
        self._loop_meta.append(
            (head, tail, back_pc, body_start, False, _binds_break(s.body))
        )

    def _do_while(self, s: ast.DoWhile) -> None:
        head = self.newlabel()
        tail = self.newlabel()
        exit_ = self.newlabel()
        wrapped = _binds_continue(s.body)
        self.flush()
        self.bind(head)
        body_start = len(self.code)
        self._loops.append(_LoopCtx(head, tail, exit_))
        self.stmt(s.body)
        self._loops.pop()
        self.bind(tail)
        self._iter_mark(s)
        self.charge(BRANCH)
        rc = self.expr(s.cond)
        self.flush()
        back_pc = self.emit(op.JT, rc, head)
        self.bind(exit_)
        self._loop_meta.append(
            (head, tail, back_pc, body_start, wrapped, _binds_break(s.body))
        )

    def _for(self, s: ast.For) -> None:
        if s.init is not None:
            self.stmt(s.init)
        head = self.newlabel()
        tail = self.newlabel()
        exit_ = self.newlabel()
        wrapped = _binds_continue(s.body)
        self.bind(head)
        self._iter_mark(s)
        if s.cond is not None:
            self.charge(BRANCH)
            rc = self.expr(s.cond)
            self.flush()
            self.emit(op.JF, rc, exit_)
        body_start = len(self.code)
        self._loops.append(_LoopCtx(head, tail, exit_))
        self.stmt(s.body)
        self._loops.pop()
        self.bind(tail)
        if s.step is not None:
            self._iter_mark(s)
            self.expr(s.step)
            self.flush()
        back_pc = self.emit(op.JUMP, head)
        self.bind(exit_)
        self._loop_meta.append(
            (head, tail, back_pc, body_start, wrapped, _binds_break(s.body))
        )

    # -- expressions ---------------------------------------------------------
    #
    # Every method returns the register holding the result.  Charges are
    # recorded before operand subtrees are compiled — the closures charge
    # before they evaluate operands, and keeping that order means a call
    # (flush point) inside an operand sees the same counter state.

    def expr(self, e: ast.Expr) -> int:
        if isinstance(e, ast.IntLit):
            self.charge(CONST)
            t = self.newtmp()
            self.emit(op.LOADI, t, wrap32(e.value))
            return t
        if isinstance(e, ast.FloatLit):
            self.charge(CONST)
            t = self.newtmp()
            self.emit(op.LOADI, t, e.value)
            return t
        if isinstance(e, ast.Name):
            return self._name_load(e)
        if isinstance(e, ast.Index):
            return self._index_load(e)
        if isinstance(e, ast.Unary):
            return self._unary(e)
        if isinstance(e, ast.IncDec):
            return self._incdec(e)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Logical):
            return self._logical(e)
        if isinstance(e, ast.Assign):
            return self._assign(e)
        if isinstance(e, ast.Ternary):
            return self._ternary(e)
        if isinstance(e, ast.Call):
            return self._call(e)
        raise InterpError(f"cannot compile expression {type(e).__name__}")

    # -- names ----------------------------------------------------------------

    def _name_load(self, e: ast.Name) -> int:
        symbol = e.symbol
        if symbol is None:
            raise InterpError(f"unresolved name {e.name!r} reached the compiler")
        if symbol.kind == "func":
            fi = self.fn_index.get(symbol.name)
            if fi is None:
                raise InterpError(f"function {symbol.name!r} has no body")
            t = self.newtmp()
            self.emit(op.LOADFN, t, fi)
            return t
        slot = symbol.slot
        t = self.newtmp()
        if symbol.kind == "global":
            self.charge(CONST if isinstance(symbol.type, ArrayType) else GLOBAL_RD)
            self.emit(op.LOADG, t, slot)
            return t
        if symbol.address_taken and symbol.type.is_scalar:
            self.charge(LOCAL_RD)
            self.emit(op.GETBOX, t, slot)
            return t
        self.charge(CONST if isinstance(symbol.type, ArrayType) else LOCAL_RD)
        self.emit(op.MOV, t, slot)
        return t

    def _store(self, target: ast.Expr, rs: int) -> None:
        """Mirror of _compile_store: charge, then evaluate target address."""
        if isinstance(target, ast.Name):
            symbol = target.symbol
            assert symbol is not None
            if symbol.kind == "func":
                raise InterpError("cannot assign to a function")
            slot = symbol.slot
            if symbol.kind == "global":
                self.charge(GLOBAL_WR)
                self.emit(op.STOREG, slot, rs)
            elif symbol.address_taken and symbol.type.is_scalar:
                self.charge(LOCAL_WR)
                self.emit(op.SETBOX, slot, rs)
            else:
                self.charge(LOCAL_WR)
                self.emit(op.MOV, slot, rs)
            return
        if isinstance(target, ast.Index):
            self.charge(MEM_WR)
            rb = self.expr(target.base)
            ri = self.expr(target.index)
            self.emit(op.IDXW, rb, ri, rs)
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            self.charge(MEM_WR)
            rp = self.expr(target.operand)
            self.emit(op.DEREFW, rp, rs)
            return
        raise InterpError("invalid assignment target")

    # -- indexing / pointers ---------------------------------------------------

    def _index_load(self, e: ast.Index) -> int:
        base_type = decay(self.typer.type_of(e.base))
        elem_is_array = isinstance(base_type, PointerType) and isinstance(
            base_type.elem, ArrayType
        )
        self.charge(ALU if elem_is_array else MEM_RD)
        rb = self.expr(e.base)
        ri = self.expr(e.index)
        t = self.newtmp()
        self.emit(op.IDX, t, rb, ri)
        return t

    def _addr_of(self, e: ast.Expr) -> int:
        if isinstance(e, ast.Name):
            symbol = e.symbol
            assert symbol is not None
            if isinstance(symbol.type, ArrayType) or symbol.type.is_pointer:
                return self.expr(e)  # decays / copies the pointer
            if not symbol.address_taken:
                raise InterpError(f"&{symbol.name}: scalar was not marked address-taken")
            if symbol.kind == "global":
                raise InterpError("address-of scalar globals is not supported; use an array")
            self.charge(ALU)
            t = self.newtmp()
            self.emit(op.MOV, t, symbol.slot)  # the box list is the pointer
            return t
        if isinstance(e, ast.Index):
            self.charge(ALU)
            rb = self.expr(e.base)
            ri = self.expr(e.index)
            t = self.newtmp()
            self.emit(op.ADDR, t, rb, ri)
            return t
        if isinstance(e, ast.Unary) and e.op == "*":
            return self.expr(e.operand)
        raise InterpError("cannot take the address of this expression")

    # -- unary -----------------------------------------------------------------

    def _unary(self, e: ast.Unary) -> int:
        if e.op == "&":
            return self._addr_of(e.operand)
        if e.op == "*":
            self.charge(MEM_RD)
            rp = self.expr(e.operand)
            t = self.newtmp()
            self.emit(op.DEREF, t, rp)
            return t
        operand_type = decay(self.typer.type_of(e.operand))
        if e.op == "-":
            if operand_type == FLOAT:
                self.charge(FALU)
                rs = self.expr(e.operand)
                t = self.newtmp()
                self.emit(op.FNEG, t, rs)
                return t
            self.charge(ALU)
            rs = self.expr(e.operand)
            t = self.newtmp()
            self.emit(op.NEG, t, rs)
            return t
        if e.op == "!":
            self.charge(ALU)
            rs = self.expr(e.operand)
            t = self.newtmp()
            self.emit(op.NOT, t, rs)
            return t
        if e.op == "~":
            self.charge(ALU)
            rs = self.expr(e.operand)
            t = self.newtmp()
            self.emit(op.BNOT, t, rs)
            return t
        raise InterpError(f"unknown unary operator {e.op!r}")

    def _incdec(self, e: ast.IncDec) -> int:
        target_type = decay(self.typer.type_of(e.target))
        delta = 1 if e.op == "++" else -1
        self.charge(ALU)
        rv = self.expr(e.target)  # load, with its own charges
        rd = self.newtmp()
        nt = self.newtmp()
        self.emit(op.LOADI, rd, delta)
        if isinstance(target_type, PointerType):
            self.emit(op.PADD, nt, rv, rd)
        elif target_type == FLOAT:
            self.emit(op.FADD, nt, rv, rd)
        else:
            self.emit(op.ADD, nt, rv, rd)
        self._store(e.target, nt)
        return nt if e.prefix else rv

    # -- binary -----------------------------------------------------------------

    _INT_OPS = {
        "+": op.ADD, "-": op.SUB, "*": op.MUL, "/": op.DIV, "%": op.MOD,
        "<<": op.SHL, ">>": op.SHR, "&": op.AND, "|": op.OR, "^": op.XOR,
    }
    _INT_CLS = {"*": C_MUL, "/": C_DIV, "%": C_DIV}
    _FLOAT_OPS = {"+": op.FADD, "-": op.FSUB, "*": op.FMUL, "/": op.FDIV}
    _FLOAT_CLS = {"+": FALU, "-": FALU, "*": FMUL, "/": C_FDIV}
    _CMP_OPS = {
        "==": op.EQ, "!=": op.NE, "<": op.LT, "<=": op.LE, ">": op.GT, ">=": op.GE,
    }

    def _binary(self, e: ast.Binary) -> int:
        if e.op == ",":
            self.expr(e.lhs)
            return self.expr(e.rhs)
        lhs_type = decay(self.typer.type_of(e.lhs))
        rhs_type = decay(self.typer.type_of(e.rhs))
        o = e.op
        # Pointer arithmetic ---------------------------------------------------
        if isinstance(lhs_type, PointerType) and o in ("+", "-"):
            self.charge(ALU)
            ra = self.expr(e.lhs)
            rb = self.expr(e.rhs)
            t = self.newtmp()
            if isinstance(rhs_type, PointerType):
                self.emit(op.PDIFF, t, ra, rb)
            else:
                self.emit(op.PADD if o == "+" else op.PSUB, t, ra, rb)
            return t
        if isinstance(rhs_type, PointerType) and o == "+":
            self.charge(ALU)
            ra = self.expr(e.lhs)  # int side first: closure evaluation order
            rb = self.expr(e.rhs)
            t = self.newtmp()
            self.emit(op.PADD, t, rb, ra)
            return t
        # Comparisons ----------------------------------------------------------
        if o in self._CMP_OPS:
            self.charge(FALU if FLOAT in (lhs_type, rhs_type) else ALU)
            ra = self.expr(e.lhs)
            rb = self.expr(e.rhs)
            t = self.newtmp()
            self.emit(self._CMP_OPS[o], t, ra, rb)
            return t
        # Arithmetic -----------------------------------------------------------
        if FLOAT in (lhs_type, rhs_type):
            if o not in self._FLOAT_OPS:
                raise InterpError(f"operator {o!r} requires integer operands")
            self.charge(self._FLOAT_CLS[o])
            opcode = self._FLOAT_OPS[o]
        else:
            self.charge(self._INT_CLS.get(o, ALU))
            opcode = self._INT_OPS[o]
        ra = self.expr(e.lhs)
        rb = self.expr(e.rhs)
        t = self.newtmp()
        self.emit(opcode, t, ra, rb)
        return t

    def _logical(self, e: ast.Logical) -> int:
        self.charge(BRANCH)
        ra = self.expr(e.lhs)
        self.flush()
        d = self.newtmp()
        short = self.newlabel()
        end = self.newlabel()
        if e.op == "&&":
            self.emit(op.JF, ra, short)
            rb = self.expr(e.rhs)
            self.emit(op.BOOL, d, rb)
            self.flush()
            self.emit(op.JUMP, end)
            self.bind(short)
            self.emit(op.LOADI, d, 0)
            self.bind(end)
        else:
            self.emit(op.JT, ra, short)
            rb = self.expr(e.rhs)
            self.emit(op.BOOL, d, rb)
            self.flush()
            self.emit(op.JUMP, end)
            self.bind(short)
            self.emit(op.LOADI, d, 1)
            self.bind(end)
        return d

    def _ternary(self, e: ast.Ternary) -> int:
        self.charge(BRANCH)
        rc = self.expr(e.cond)
        self.flush()
        d = self.newtmp()
        els = self.newlabel()
        end = self.newlabel()
        self.emit(op.JF, rc, els)
        rt = self.expr(e.then)
        self.emit(op.MOV, d, rt)
        self.flush()
        self.emit(op.JUMP, end)
        self.bind(els)
        re_ = self.expr(e.els)
        self.emit(op.MOV, d, re_)
        self.bind(end)
        return d

    def _assign(self, e: ast.Assign) -> int:
        if e.op == "=":
            rv = self.expr(e.value)
            self._store(e.target, rv)
            return rv
        # Compound assignment desugars to load-op-store (store re-evaluates
        # the target), exactly as the closure compiler does.
        binop = ast.Binary(op=e.op[:-1], lhs=e.target, rhs=e.value, line=e.line)
        rv = self._binary(binop)
        self._store(e.target, rv)
        return rv

    # -- calls -------------------------------------------------------------------

    def _call(self, e: ast.Call) -> int:
        if isinstance(e.func, ast.Name) and e.func.symbol is None:
            name = e.func.name
            if name not in BUILTINS:
                raise InterpError(f"call to unknown builtin {name!r}")
            return self._builtin(name, e.args)
        if isinstance(e.func, ast.Name) and e.func.symbol.kind == "func":
            fi = self.fn_index.get(e.func.name)
            if fi is None:
                raise InterpError(f"function {e.func.name!r} has no body")
            self.charge(C_CALL)
            arg_regs = tuple(self.expr(a) for a in e.args)
            self.flush()
            t = self.newtmp()
            self.emit(op.CALL, t, fi, arg_regs)
            return t
        self.charge(C_CALL)
        rf = self.expr(e.func)
        arg_regs = tuple(self.expr(a) for a in e.args)
        self.flush()
        t = self.newtmp()
        self.emit(op.CALLI, t, rf, arg_regs)
        return t

    # -- reuse/profiling descriptors ----------------------------------------

    def _descriptor(self, e: ast.Expr, name: str) -> tuple:
        """(mode, slot, kind, charge_class) for a probe/commit/profile arg.

        The reuse transformation only ever passes plain variable accesses
        (see ``repro.reuse.transform``), which lets the ops defer the key
        loads — and their charges — to the non-bypassed path, mirroring
        the closure backend's governed-table gate check.  Hand-written
        intrinsic calls may pass anything: literals keep the deferred
        CONST charge (``SRC_CONST`` carries the value itself), and other
        expressions are evaluated eagerly into a temp — their charges
        land in the surrounding block and the op defers nothing for that
        operand (charge class -1).
        """
        if isinstance(e, ast.IntLit):
            return (op.SRC_CONST, wrap32(e.value), _value_kind(self, e), CONST)
        if isinstance(e, ast.FloatLit):
            return (op.SRC_CONST, float(e.value), _value_kind(self, e), CONST)
        if not isinstance(e, ast.Name) or e.symbol is None:
            return (op.SRC_REG, self.expr(e), _value_kind(self, e), -1)
        symbol = e.symbol
        kind = _value_kind(self, e)
        if symbol.kind == "global":
            cls = CONST if isinstance(symbol.type, ArrayType) else GLOBAL_RD
            return (op.SRC_GLOBAL, symbol.slot, kind, cls)
        if symbol.address_taken and symbol.type.is_scalar:
            return (op.SRC_BOX, symbol.slot, kind, LOCAL_RD)
        cls = CONST if isinstance(symbol.type, ArrayType) else LOCAL_RD
        return (op.SRC_REG, symbol.slot, kind, cls)

    # -- builtins ---------------------------------------------------------------

    def _builtin(self, name: str, args: list) -> int:
        if name == "__reuse_probe":
            seg = _segment_id(args, name)
            self.record_site(seg, "probe_line")
            descs = [self._descriptor(a, name) for a in args[1:]]
            meta = tuple((kind, cls) for _, _, kind, cls in descs)
            srcs = tuple((mode, slot) for mode, slot, _, _ in descs)
            self.flush()
            if self.profiled:
                self.emit(op.PROF_PB, seg)
            t = self.newtmp()
            self.emit(op.PROBE, t, seg, meta, srcs)
            if self.profiled:
                self.emit(op.PROF_PE, seg, t)
            return t

        if name in ("__reuse_out_i", "__reuse_out_f"):
            seg = _segment_id(args, name)
            if not isinstance(args[1], ast.IntLit):
                raise InterpError(f"{name}: output position must be a literal")
            self.charge(HASH_WORD)
            t = self.newtmp()
            self.emit(op.ROUT, t, seg, args[1].value)
            return t

        if name == "__reuse_out_arr":
            seg = _segment_id(args, name)
            if not isinstance(args[1], ast.IntLit):
                raise InterpError(f"{name}: output position must be a literal")
            desc = self._descriptor(args[2], name)
            self.emit(op.ROUT_ARR, seg, args[1].value, (desc[0], desc[1]), desc[3])
            return self.newtmp()

        if name == "__reuse_commit":
            seg = _segment_id(args, name)
            self.record_site(seg, "commit_line")
            descs = [self._descriptor(a, name) for a in args[1:]]
            meta = tuple((kind, cls) for _, _, kind, cls in descs)
            srcs = tuple((mode, slot) for mode, slot, _, _ in descs)
            self.flush()
            if self.profiled:
                self.emit(op.PROF_CB, seg)
            self.emit(op.COMMIT, seg, meta, srcs)
            if self.profiled:
                self.emit(op.PROF_SX, seg)
            return self.newtmp()

        if name == "__reuse_end":
            seg = _segment_id(args, name)
            self.record_site(seg, "end_line")
            self.flush()
            self.emit(op.REND, seg)
            if self.profiled:
                self.emit(op.PROF_SX, seg)
            return self.newtmp()

        if name == "__profile":
            seg = _segment_id(args, name)
            self.flush()
            descs = [self._descriptor(a, name) for a in args[1:]]
            # The stub is zero-cost: drop what eagerly evaluated arguments
            # charged, as the closure restores its counter snapshot.
            self.pending.clear()
            self.pending_lines.clear()
            kinds = tuple(kind for _, _, kind, _ in descs)
            srcs = tuple((mode, slot) for mode, slot, _, _ in descs)
            self.emit(op.PROFILE, seg, kinds, srcs)
            return self.newtmp()

        if name in ("__seg_enter", "__seg_exit"):
            seg = _segment_id(args, name)
            self.flush()
            opcode = op.SEGE if name == "__seg_enter" else op.SEGX
            self.emit(opcode, seg)
            return self.newtmp()

        if name == "__input_int":
            self.charge(IO)
            t = self.newtmp()
            self.emit(op.INPUT_I, t)
            return t
        if name == "__input_float":
            self.charge(IO)
            t = self.newtmp()
            self.emit(op.INPUT_F, t)
            return t
        if name == "__input_avail":
            t = self.newtmp()
            self.emit(op.INPUT_AV, t)
            return t
        if name in ("__output_int", "__output_float"):
            self.charge(IO)
            rv = self.expr(args[0])
            self.emit(op.OUTPUT, rv)
            return rv
        if name == "__print_int":
            rv = self.expr(args[0])
            self.emit(op.PRINT, rv)
            return rv
        if name == "__assert":
            rv = self.expr(args[0])
            self.emit(op.ASSERT, rv)
            return rv
        if name == "__cast_int":
            from_float = _value_kind(self, args[0]) == _KIND_FLOAT
            self.charge(FALU if from_float else ALU)
            rv = self.expr(args[0])
            t = self.newtmp()
            self.emit(op.CAST_I, t, rv)
            return t
        if name == "__cast_float":
            self.charge(FALU)
            rv = self.expr(args[0])
            t = self.newtmp()
            self.emit(op.CAST_F, t, rv)
            return t
        if name == "__abs":
            self.charge(ALU)
            rv = self.expr(args[0])
            t = self.newtmp()
            self.emit(op.ABS, t, rv)
            return t
        if name == "__fabs":
            self.charge(FALU)
            rv = self.expr(args[0])
            t = self.newtmp()
            self.emit(op.FABS, t, rv)
            return t
        if name in ("__min", "__max"):
            self.charge(ALU)
            ra = self.expr(args[0])
            rb = self.expr(args[1])
            t = self.newtmp()
            self.emit(op.MIN if name == "__min" else op.MAX, t, ra, rb)
            return t
        if name in op.MATH_NAMES:
            self.charge(C_MATH)
            rv = self.expr(args[0])
            t = self.newtmp()
            self.emit(op.MATH, t, rv, op.MATH_NAMES.index(name))
            return t
        raise InterpError(f"builtin {name!r} has no implementation")


def compile_function(fn, typer, machine, fn_index: dict, index: int) -> VMFunction:
    """Compile one mini-C function to a :class:`VMFunction` (unlinked)."""
    vmfn = VMFunction(fn, index)
    vmfn.machine = machine
    vmfn.cycle_profiler = machine.cycle_profiler
    _FnCompiler(fn, vmfn, typer, machine, fn_index).compile()
    return vmfn

"""Closure-compiling interpreter for mini-C.

Rather than walking the AST on every execution, each function body is
compiled once into a tree of Python closures; executing the program then
only runs closures.  Every closure charges its operation class into the
machine's counter tally, which the cost model converts to cycles, seconds
and Joules (see :mod:`repro.runtime.costs`).

The compiler is *typed*: it consults :class:`repro.minic.sema.Typer` at
compile time to choose integer vs float vs pointer operation variants, so
the hot path performs no type dispatch beyond what pointer values
inherently require.

Value model (see :mod:`repro.runtime.values`): ints wrap to 32 bits,
arrays are Python lists, pointers are bare lists (offset 0) or
``(list, offset)`` tuples, address-taken scalars are boxed in one-element
lists.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import InterpError
from ..minic import astnodes as ast
from ..minic.builtins import BUILTINS
from ..minic.sema import Typer
from ..minic.types import FLOAT, ArrayType, PointerType, decay
from . import intrinsics
from .costs import (
    ALU,
    BRANCH,
    CALL,
    CONST,
    DIV,
    FALU,
    FDIV,
    FMUL,
    GLOBAL_RD,
    GLOBAL_WR,
    LOCAL_RD,
    LOCAL_WR,
    MEM_RD,
    MEM_WR,
    MUL,
    RET,
)
from .machine import Machine
from .values import c_div, c_mod, c_shl, c_shr, deep_copy_value, wrap32, zero_value

# Control-flow sentinels returned by statement closures.
BREAK = object()
CONTINUE = object()


class Ret:
    """Wrapper signalling a return with a value through block closures."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


ExprClosure = Callable[[list], object]
StmtClosure = Callable[[list], object]


class CompiledFunction:
    """A mini-C function compiled against a specific machine."""

    def __init__(self, fn: ast.Function, machine: Machine) -> None:
        self.name = fn.name
        self.ret_type = fn.ret_type
        self._machine = machine
        self._frame_size = fn.frame_size
        self._param_specs = [
            (p.symbol.slot, p.symbol.address_taken and p.symbol.type.is_scalar)
            for p in fn.params
        ]
        self._body: Optional[StmtClosure] = None
        self._ctr = machine.counters

    def bind_body(self, body: StmtClosure) -> None:
        # Cycle attribution hooks are a compile-time decision: with no
        # profiler installed the bound closure is exactly the plain body,
        # so profiling can never perturb an unprofiled run.
        profiler = self._machine.cycle_profiler
        if profiler is not None:
            inner = body

            def body(frame, inner=inner, profiler=profiler, name=self.name):
                profiler.enter_function(name)
                try:
                    return inner(frame)
                finally:
                    profiler.exit_function()

        self._body = body
        self._ctr = self._machine.counters

    def invoke(self, args: tuple):
        frame = [0] * self._frame_size
        for (slot, boxed), value in zip(self._param_specs, args):
            frame[slot] = [value] if boxed else value
        result = self._body(frame)
        self._ctr[RET] += 1
        if type(result) is Ret:
            return result.value
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<compiled fn {self.name}>"


class CompiledProgram:
    """A whole program compiled against a machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.functions: dict[str, CompiledFunction] = {}
        self._global_templates: list = []

    def reset_globals(self) -> None:
        self.machine.globals = [deep_copy_value(v) for v in self._global_templates]

    def run(self, entry: str = "main", args: tuple = ()):
        """Invoke ``entry`` with fresh globals and I/O, return its value.

        Counters are *not* reset so several runs can accumulate; use
        :meth:`repro.runtime.machine.Machine.reset_counters` explicitly.
        """
        self.reset_globals()
        self.machine.reset_io()
        fn = self.functions.get(entry)
        if fn is None:
            raise InterpError(f"no function named {entry!r}")
        return fn.invoke(tuple(args))


_RECURSION_LIMIT = 40_000  # each mini-C call costs ~15 Python frames
_recursion_limit_checked = False


def _ensure_recursion_limit() -> None:
    """Raise the interpreter recursion limit once, idempotently.

    Deep mini-C call chains need a large Python stack.  The limit is only
    ever *raised* (a user-configured higher limit is left alone), and the
    global is touched at most once per process so repeated compiles do not
    keep mutating interpreter state.
    """
    global _recursion_limit_checked
    if _recursion_limit_checked:
        return
    import sys

    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    _recursion_limit_checked = True


def compile_program(program: ast.Program, machine: Machine) -> CompiledProgram:
    """Compile a resolved mini-C program against ``machine``.

    ``machine.backend`` selects the execution strategy: ``"vm"`` (the
    default) compiles to the register bytecode (:mod:`repro.runtime.vm`),
    ``"closures"`` builds the closure tree defined in this module — the
    unfused reference oracle, which charges every operation where it
    happens.  Both expose the same program interface and produce
    bit-identical cycles, outputs, metrics, and ledger verdicts.

    If any function's bytecode cannot be translated
    (:class:`~repro.runtime.vm.vm.Untranslatable`), the *whole* program
    is compiled on closures instead; the source map, when installed, is
    emptied first so no half-built VM debug info survives.
    """
    if getattr(machine, "backend", "closures") == "vm":
        from .vm import Untranslatable, compile_vm_program

        try:
            return compile_vm_program(program, machine)
        except Untranslatable:
            if machine.source_map is not None:
                machine.source_map.functions.clear()
    _ensure_recursion_limit()
    if machine.source_map is not None:
        machine.source_map.backend = "closures"
    compiled = CompiledProgram(machine)
    # Phase 1: create shells so calls can reference any function.
    for fn in program.functions:
        compiled.functions[fn.name] = CompiledFunction(fn, machine)
    # Globals: evaluate initializers at compile time.
    templates = []
    for g in program.globals:
        templates.append(_global_template(g.decl))
    compiled._global_templates = templates
    compiled.reset_globals()
    # Phase 2: compile bodies.
    typer = Typer(program)
    for fn in program.functions:
        fc = _FunctionCompiler(fn, compiled, typer, machine)
        compiled.functions[fn.name].bind_body(fc.compile_body())
    return compiled


# ---------------------------------------------------------------------------
# Global initializers
# ---------------------------------------------------------------------------


def _const_value(expr: ast.Expr):
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_const_value(expr.operand)
    if isinstance(expr, ast.Binary):
        lhs = _const_value(expr.lhs)
        rhs = _const_value(expr.rhs)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: c_div(a, b) if isinstance(a, int) else a / b,
            "<<": c_shl,
            ">>": c_shr,
            "%": c_mod,
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
        }
        if expr.op in ops:
            return ops[expr.op](lhs, rhs)
    raise InterpError("global initializer must be a constant expression")


def _fill_array(t: ArrayType, init: list):
    """Build a nested list for an array initializer, zero-padding."""
    result = zero_value(t)
    for i, item in enumerate(init):
        if i >= t.length:
            raise InterpError("too many array initializer elements")
        if isinstance(item, list):
            if not isinstance(t.elem, ArrayType):
                raise InterpError("nested initializer for non-array element")
            result[i] = _fill_array(t.elem, item)
        else:
            value = _const_value(item)
            if isinstance(t.elem, ArrayType):
                raise InterpError("scalar initializer for array element")
            result[i] = float(value) if t.elem == FLOAT else int(value)
    return result


def _global_template(decl: ast.VarDecl):
    if decl.array_init is not None:
        if not isinstance(decl.type, ArrayType):
            raise InterpError(f"initializer list for non-array global {decl.name}")
        return _fill_array(decl.type, decl.array_init)
    if decl.init is not None:
        value = _const_value(decl.init)
        return float(value) if decl.type == FLOAT else value
    return zero_value(decl.type)


# ---------------------------------------------------------------------------
# Function compiler
# ---------------------------------------------------------------------------


class _FunctionCompiler:
    def __init__(
        self,
        fn: ast.Function,
        compiled: CompiledProgram,
        typer: Typer,
        machine: Machine,
    ) -> None:
        self.fn = fn
        self.compiled = compiled
        self.typer = typer
        self.machine = machine
        self.ctr = machine.counters
        # Line-attribution mode: the profiler tracks lines, so every
        # statement closure gets an ``at_line`` mark.
        self.lined = machine.cycle_profiler is not None and getattr(
            machine.cycle_profiler, "track_lines", False
        )
        source_map = machine.source_map
        self.srcmap = None if source_map is None else source_map.function(fn.name)
        self.cur_line = 0

    # -- statements ----------------------------------------------------------

    def compile_body(self) -> StmtClosure:
        return self.compile_stmt(self.fn.body)

    def record_site(self, seg: int, key: str) -> None:
        """Note a reuse site's source line in the debug side table."""
        if self.srcmap is not None:
            self.srcmap.sites.setdefault(seg, {})[key] = self.cur_line

    def _note_stmt(self, stmt: ast.Stmt) -> bool:
        """Track the current source line; record the statement unit in
        the debug side table.  Returns whether the statement is a
        line-markable unit (has a line, is not a block)."""
        if stmt.line <= 0 or isinstance(stmt, ast.Block):
            return False
        self.cur_line = stmt.line
        if self.srcmap is not None:
            self.srcmap.stmt_lines.append((stmt.line, type(stmt).__name__))
        return True

    def compile_stmt(self, stmt: ast.Stmt) -> StmtClosure:
        line = stmt.line
        tracked = self._note_stmt(stmt)
        run = self._compile_stmt_kind(stmt)
        if self.lined and tracked:
            # Statement-start mark, mirroring the VM's PROF_LINE op: the
            # delta since the previous boundary belongs to the previous
            # line; everything after belongs to this one.
            prof = self.machine.cycle_profiler

            def run_line(fr, run=run, prof=prof, line=line):
                prof.at_line(line)
                return run(fr)

            return run_line
        return run

    def _compile_stmt_kind(self, stmt: ast.Stmt) -> StmtClosure:
        if isinstance(stmt, ast.Block):
            return self._compile_block(stmt)
        if isinstance(stmt, ast.ExprStmt):
            expr = self.compile_expr(stmt.expr)

            def run_expr(fr, expr=expr):
                expr(fr)
                return None

            return run_expr
        if isinstance(stmt, ast.DeclStmt):
            return self._compile_decl(stmt)
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.While):
            return self._compile_while(stmt)
        if isinstance(stmt, ast.DoWhile):
            return self._compile_do_while(stmt)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                ret0 = Ret(0)
                return lambda fr: ret0
            value = self.compile_expr(stmt.value)
            return lambda fr, value=value: Ret(value(fr))
        if isinstance(stmt, ast.Break):
            ctr = self.ctr

            def run_break(fr, ctr=ctr):
                ctr[BRANCH] += 1
                return BREAK

            return run_break
        if isinstance(stmt, ast.Continue):
            ctr = self.ctr

            def run_continue(fr, ctr=ctr):
                ctr[BRANCH] += 1
                return CONTINUE

            return run_continue
        raise InterpError(f"cannot compile statement {type(stmt).__name__}")

    def _compile_block(self, block: ast.Block) -> StmtClosure:
        stmts = [self.compile_stmt(s) for s in block.stmts]
        if not stmts:
            return lambda fr: None
        if len(stmts) == 1:
            return stmts[0]

        def run_block(fr, stmts=stmts):
            for s in stmts:
                r = s(fr)
                if r is not None:
                    return r
            return None

        return run_block

    def _compile_decl(self, stmt: ast.DeclStmt) -> StmtClosure:
        actions = []
        ctr = self.ctr
        for decl in stmt.decls:
            symbol = decl.symbol
            assert symbol is not None
            slot = symbol.slot
            boxed = symbol.address_taken and symbol.type.is_scalar
            if isinstance(symbol.type, ArrayType):
                if decl.array_init is not None:
                    template = _fill_array(symbol.type, decl.array_init)

                    def alloc_init(fr, slot=slot, template=template):
                        fr[slot] = deep_copy_value(template)

                    actions.append(alloc_init)
                else:
                    array_type = symbol.type

                    def alloc_zero(fr, slot=slot, t=array_type):
                        fr[slot] = zero_value(t)

                    actions.append(alloc_zero)
            elif decl.init is not None:
                value = self.compile_expr(decl.init)
                if boxed:

                    def store_boxed(fr, slot=slot, value=value, ctr=ctr):
                        ctr[LOCAL_WR] += 1
                        fr[slot] = [value(fr)]

                    actions.append(store_boxed)
                else:

                    def store_plain(fr, slot=slot, value=value, ctr=ctr):
                        ctr[LOCAL_WR] += 1
                        fr[slot] = value(fr)

                    actions.append(store_plain)
            else:
                init_value = zero_value(symbol.type)
                if boxed:

                    def zero_boxed(fr, slot=slot, v=init_value):
                        fr[slot] = [v]

                    actions.append(zero_boxed)
                else:

                    def zero_plain(fr, slot=slot, v=init_value):
                        fr[slot] = v

                    actions.append(zero_plain)

        def run_decl(fr, actions=actions):
            for a in actions:
                a(fr)
            return None

        return run_decl

    def _compile_if(self, stmt: ast.If) -> StmtClosure:
        ctr = self.ctr
        cond = self.compile_expr(stmt.cond)
        then = self.compile_stmt(stmt.then)
        if stmt.els is None:

            def run_if(fr, cond=cond, then=then, ctr=ctr):
                ctr[BRANCH] += 1
                if cond(fr):
                    return then(fr)
                return None

            return run_if
        els = self.compile_stmt(stmt.els)

        def run_if_else(fr, cond=cond, then=then, els=els, ctr=ctr):
            ctr[BRANCH] += 1
            if cond(fr):
                return then(fr)
            return els(fr)

        return run_if_else

    def _compile_while(self, stmt: ast.While) -> StmtClosure:
        ctr = self.ctr
        cond = self.compile_expr(stmt.cond)
        body = self.compile_stmt(stmt.body)
        if self.lined and stmt.line > 0:
            # Per-iteration mark before the BRANCH charge — the same
            # placement as the VM's PROF_LINE at the loop head, so both
            # backends tick at identical counter states.
            prof = self.machine.cycle_profiler
            line = stmt.line

            def run_while_lined(
                fr, cond=cond, body=body, ctr=ctr, prof=prof, line=line
            ):
                while True:
                    prof.at_line(line)
                    ctr[BRANCH] += 1
                    if not cond(fr):
                        return None
                    r = body(fr)
                    if r is not None:
                        if r is BREAK:
                            return None
                        if r is not CONTINUE:
                            return r

            return run_while_lined

        def run_while(fr, cond=cond, body=body, ctr=ctr):
            while True:
                ctr[BRANCH] += 1
                if not cond(fr):
                    return None
                r = body(fr)
                if r is not None:
                    if r is BREAK:
                        return None
                    if r is not CONTINUE:
                        return r

        return run_while

    def _compile_do_while(self, stmt: ast.DoWhile) -> StmtClosure:
        ctr = self.ctr
        cond = self.compile_expr(stmt.cond)
        body = self.compile_stmt(stmt.body)
        if self.lined and stmt.line > 0:
            # Mark at the tail before the BRANCH charge — matches the VM's
            # PROF_LINE at the do-while back-edge test.
            prof = self.machine.cycle_profiler
            line = stmt.line

            def run_do_lined(
                fr, cond=cond, body=body, ctr=ctr, prof=prof, line=line
            ):
                while True:
                    r = body(fr)
                    if r is not None:
                        if r is BREAK:
                            return None
                        if r is not CONTINUE:
                            return r
                    prof.at_line(line)
                    ctr[BRANCH] += 1
                    if not cond(fr):
                        return None

            return run_do_lined

        def run_do(fr, cond=cond, body=body, ctr=ctr):
            while True:
                r = body(fr)
                if r is not None:
                    if r is BREAK:
                        return None
                    if r is not CONTINUE:
                        return r
                ctr[BRANCH] += 1
                if not cond(fr):
                    return None

        return run_do

    def _compile_for(self, stmt: ast.For) -> StmtClosure:
        ctr = self.ctr
        init = self.compile_stmt(stmt.init) if stmt.init is not None else None
        cond = self.compile_expr(stmt.cond) if stmt.cond is not None else None
        step = self.compile_expr(stmt.step) if stmt.step is not None else None
        body = self.compile_stmt(stmt.body)
        if self.lined and stmt.line > 0:
            # Head mark each iteration (even condition-less) and a tail
            # mark before the step — both match the VM's PROF_LINE
            # placement at the for head/tail labels.
            prof = self.machine.cycle_profiler
            line = stmt.line

            def run_for_lined(
                fr,
                init=init,
                cond=cond,
                step=step,
                body=body,
                ctr=ctr,
                prof=prof,
                line=line,
            ):
                if init is not None:
                    init(fr)
                while True:
                    prof.at_line(line)
                    if cond is not None:
                        ctr[BRANCH] += 1
                        if not cond(fr):
                            return None
                    r = body(fr)
                    if r is not None:
                        if r is BREAK:
                            return None
                        if r is not CONTINUE:
                            return r
                    if step is not None:
                        prof.at_line(line)
                        step(fr)

            return run_for_lined

        def run_for(fr, init=init, cond=cond, step=step, body=body, ctr=ctr):
            if init is not None:
                init(fr)
            while True:
                if cond is not None:
                    ctr[BRANCH] += 1
                    if not cond(fr):
                        return None
                r = body(fr)
                if r is not None:
                    if r is BREAK:
                        return None
                    if r is not CONTINUE:
                        return r
                if step is not None:
                    step(fr)

        return run_for

    # -- expressions -----------------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> ExprClosure:
        ctr = self.ctr
        if isinstance(expr, ast.IntLit):
            value = wrap32(expr.value)

            def run_int(fr, value=value, ctr=ctr):
                ctr[CONST] += 1
                return value

            return run_int
        if isinstance(expr, ast.FloatLit):
            value = expr.value

            def run_float(fr, value=value, ctr=ctr):
                ctr[CONST] += 1
                return value

            return run_float
        if isinstance(expr, ast.Name):
            return self._compile_name_load(expr)
        if isinstance(expr, ast.Index):
            return self._compile_index_load(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.IncDec):
            return self._compile_incdec(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Logical):
            return self._compile_logical(expr)
        if isinstance(expr, ast.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        raise InterpError(f"cannot compile expression {type(expr).__name__}")

    # -- names ----------------------------------------------------------------

    def _compile_name_load(self, expr: ast.Name) -> ExprClosure:
        ctr = self.ctr
        symbol = expr.symbol
        if symbol is None:
            raise InterpError(f"unresolved name {expr.name!r} reached the compiler")
        if symbol.kind == "func":
            fn = self.compiled.functions.get(symbol.name)
            if fn is None:
                raise InterpError(f"function {symbol.name!r} has no body")
            return lambda fr, fn=fn: fn
        slot = symbol.slot
        if symbol.kind == "global":
            machine = self.machine
            if isinstance(symbol.type, ArrayType):

                def g_arr(fr, g=machine, slot=slot, ctr=ctr):
                    ctr[CONST] += 1
                    return g.globals[slot]

                return g_arr

            def g_scalar(fr, g=machine, slot=slot, ctr=ctr):
                ctr[GLOBAL_RD] += 1
                return g.globals[slot]

            return g_scalar
        # local or param
        if symbol.address_taken and symbol.type.is_scalar:

            def l_boxed(fr, slot=slot, ctr=ctr):
                ctr[LOCAL_RD] += 1
                return fr[slot][0]

            return l_boxed
        if isinstance(symbol.type, ArrayType):

            def l_arr(fr, slot=slot, ctr=ctr):
                ctr[CONST] += 1
                return fr[slot]

            return l_arr

        def l_scalar(fr, slot=slot, ctr=ctr):
            ctr[LOCAL_RD] += 1
            return fr[slot]

        return l_scalar

    def _compile_name_store(self, expr: ast.Name) -> Callable[[list, object], None]:
        ctr = self.ctr
        symbol = expr.symbol
        assert symbol is not None
        slot = symbol.slot
        if symbol.kind == "global":
            machine = self.machine

            def g_store(fr, v, g=machine, slot=slot, ctr=ctr):
                ctr[GLOBAL_WR] += 1
                g.globals[slot] = v

            return g_store
        if symbol.kind == "func":
            raise InterpError("cannot assign to a function")
        if symbol.address_taken and symbol.type.is_scalar:

            def l_boxed_store(fr, v, slot=slot, ctr=ctr):
                ctr[LOCAL_WR] += 1
                fr[slot][0] = v

            return l_boxed_store

        def l_store(fr, v, slot=slot, ctr=ctr):
            ctr[LOCAL_WR] += 1
            fr[slot] = v

        return l_store

    # -- indexing / pointers -----------------------------------------------------

    def _compile_index_load(self, expr: ast.Index) -> ExprClosure:
        ctr = self.ctr
        base = self.compile_expr(expr.base)
        index = self.compile_expr(expr.index)
        base_type = decay(self.typer.type_of(expr.base))
        elem_is_array = isinstance(base_type, PointerType) and isinstance(
            base_type.elem, ArrayType
        )
        cls = ALU if elem_is_array else MEM_RD

        def run_index(fr, base=base, index=index, ctr=ctr, cls=cls):
            ctr[cls] += 1
            b = base(fr)
            i = index(fr)
            if type(b) is tuple:
                return b[0][b[1] + i]
            return b[i]

        return run_index

    def _compile_index_store(self, expr: ast.Index) -> Callable[[list, object], None]:
        ctr = self.ctr
        base = self.compile_expr(expr.base)
        index = self.compile_expr(expr.index)

        def run_store(fr, v, base=base, index=index, ctr=ctr):
            ctr[MEM_WR] += 1
            b = base(fr)
            i = index(fr)
            if type(b) is tuple:
                b[0][b[1] + i] = v
            else:
                b[i] = v

        return run_store

    def _compile_addr_of(self, expr: ast.Expr) -> ExprClosure:
        """Compile ``&expr`` — yields a pointer value."""
        ctr = self.ctr
        if isinstance(expr, ast.Name):
            symbol = expr.symbol
            assert symbol is not None
            if isinstance(symbol.type, ArrayType) or symbol.type.is_pointer:
                return self.compile_expr(expr)  # decays / copies the pointer
            if not symbol.address_taken:
                raise InterpError(f"&{symbol.name}: scalar was not marked address-taken")
            slot = symbol.slot
            if symbol.kind == "global":
                raise InterpError("address-of scalar globals is not supported; use an array")

            def addr_local(fr, slot=slot, ctr=ctr):
                ctr[ALU] += 1
                return fr[slot]  # the box list is the pointer

            return addr_local
        if isinstance(expr, ast.Index):
            base = self.compile_expr(expr.base)
            index = self.compile_expr(expr.index)

            def addr_index(fr, base=base, index=index, ctr=ctr):
                ctr[ALU] += 1
                b = base(fr)
                i = index(fr)
                if type(b) is tuple:
                    return (b[0], b[1] + i)
                return (b, i)

            return addr_index
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self.compile_expr(expr.operand)
        raise InterpError("cannot take the address of this expression")

    # -- unary -------------------------------------------------------------------

    def _compile_unary(self, expr: ast.Unary) -> ExprClosure:
        ctr = self.ctr
        if expr.op == "&":
            return self._compile_addr_of(expr.operand)
        if expr.op == "*":
            operand = self.compile_expr(expr.operand)

            def run_deref(fr, operand=operand, ctr=ctr):
                ctr[MEM_RD] += 1
                v = operand(fr)
                if type(v) is tuple:
                    return v[0][v[1]]
                return v[0]

            return run_deref
        operand = self.compile_expr(expr.operand)
        operand_type = decay(self.typer.type_of(expr.operand))
        if expr.op == "-":
            if operand_type == FLOAT:

                def run_fneg(fr, operand=operand, ctr=ctr):
                    ctr[FALU] += 1
                    return -operand(fr)

                return run_fneg

            def run_neg(fr, operand=operand, ctr=ctr):
                ctr[ALU] += 1
                return wrap32(-operand(fr))

            return run_neg
        if expr.op == "!":

            def run_not(fr, operand=operand, ctr=ctr):
                ctr[ALU] += 1
                return 0 if operand(fr) else 1

            return run_not
        if expr.op == "~":

            def run_bnot(fr, operand=operand, ctr=ctr):
                ctr[ALU] += 1
                return ~operand(fr)

            return run_bnot
        raise InterpError(f"unknown unary operator {expr.op!r}")

    def _compile_incdec(self, expr: ast.IncDec) -> ExprClosure:
        ctr = self.ctr
        load = self.compile_expr(expr.target)
        store = self._compile_store(expr.target)
        target_type = decay(self.typer.type_of(expr.target))
        delta = 1 if expr.op == "++" else -1
        if isinstance(target_type, PointerType):

            def bump_ptr(v, delta=delta):
                if type(v) is tuple:
                    return (v[0], v[1] + delta)
                return (v, delta)

            bump = bump_ptr
        elif target_type == FLOAT:
            bump = lambda v, delta=delta: v + delta
        else:
            bump = lambda v, delta=delta: wrap32(v + delta)
        if expr.prefix:

            def run_pre(fr, load=load, store=store, bump=bump, ctr=ctr):
                ctr[ALU] += 1
                v = bump(load(fr))
                store(fr, v)
                return v

            return run_pre

        def run_post(fr, load=load, store=store, bump=bump, ctr=ctr):
            ctr[ALU] += 1
            v = load(fr)
            store(fr, bump(v))
            return v

        return run_post

    def _compile_store(self, expr: ast.Expr) -> Callable[[list, object], None]:
        if isinstance(expr, ast.Name):
            return self._compile_name_store(expr)
        if isinstance(expr, ast.Index):
            return self._compile_index_store(expr)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            ctr = self.ctr
            operand = self.compile_expr(expr.operand)

            def run_store(fr, v, operand=operand, ctr=ctr):
                ctr[MEM_WR] += 1
                p = operand(fr)
                if type(p) is tuple:
                    p[0][p[1]] = v
                else:
                    p[0] = v

            return run_store
        raise InterpError("invalid assignment target")

    # -- binary ---------------------------------------------------------------------

    def _compile_binary(self, expr: ast.Binary) -> ExprClosure:
        ctr = self.ctr
        if expr.op == ",":
            lhs = self.compile_expr(expr.lhs)
            rhs = self.compile_expr(expr.rhs)

            def run_comma(fr, lhs=lhs, rhs=rhs):
                lhs(fr)
                return rhs(fr)

            return run_comma
        lhs_type = decay(self.typer.type_of(expr.lhs))
        rhs_type = decay(self.typer.type_of(expr.rhs))
        lhs = self.compile_expr(expr.lhs)
        rhs = self.compile_expr(expr.rhs)
        op = expr.op
        # Pointer arithmetic -------------------------------------------------
        if isinstance(lhs_type, PointerType) and op in ("+", "-"):
            if isinstance(rhs_type, PointerType):

                def run_pdiff(fr, lhs=lhs, rhs=rhs, ctr=ctr):
                    ctr[ALU] += 1
                    a = lhs(fr)
                    b = rhs(fr)
                    ao = a[1] if type(a) is tuple else 0
                    bo = b[1] if type(b) is tuple else 0
                    return ao - bo

                return run_pdiff
            sign = 1 if op == "+" else -1

            def run_padd(fr, lhs=lhs, rhs=rhs, sign=sign, ctr=ctr):
                ctr[ALU] += 1
                p = lhs(fr)
                i = rhs(fr) * sign
                if type(p) is tuple:
                    return (p[0], p[1] + i)
                return (p, i)

            return run_padd
        if isinstance(rhs_type, PointerType) and op == "+":

            def run_padd2(fr, lhs=lhs, rhs=rhs, ctr=ctr):
                ctr[ALU] += 1
                i = lhs(fr)
                p = rhs(fr)
                if type(p) is tuple:
                    return (p[0], p[1] + i)
                return (p, i)

            return run_padd2
        # Comparisons ----------------------------------------------------------
        if op in ("==", "!=", "<", "<=", ">", ">="):
            cls = FALU if FLOAT in (lhs_type, rhs_type) else ALU
            table = {
                "==": lambda a, b: 1 if a == b else 0,
                "!=": lambda a, b: 1 if a != b else 0,
                "<": lambda a, b: 1 if a < b else 0,
                "<=": lambda a, b: 1 if a <= b else 0,
                ">": lambda a, b: 1 if a > b else 0,
                ">=": lambda a, b: 1 if a >= b else 0,
            }
            fn = table[op]

            def run_cmp(fr, lhs=lhs, rhs=rhs, fn=fn, ctr=ctr, cls=cls):
                ctr[cls] += 1
                return fn(lhs(fr), rhs(fr))

            return run_cmp
        # Arithmetic -------------------------------------------------------------
        is_float = FLOAT in (lhs_type, rhs_type)
        if is_float:
            table = {
                "+": (FALU, lambda a, b: a + b),
                "-": (FALU, lambda a, b: a - b),
                "*": (FMUL, lambda a, b: a * b),
                "/": (FDIV, _float_div),
            }
            if op not in table:
                raise InterpError(f"operator {op!r} requires integer operands")
            cls, fn = table[op]
        else:
            table = {
                "+": (ALU, lambda a, b: wrap32(a + b)),
                "-": (ALU, lambda a, b: wrap32(a - b)),
                "*": (MUL, lambda a, b: wrap32(a * b)),
                "/": (DIV, c_div),
                "%": (DIV, c_mod),
                "<<": (ALU, c_shl),
                ">>": (ALU, c_shr),
                "&": (ALU, lambda a, b: a & b),
                "|": (ALU, lambda a, b: a | b),
                "^": (ALU, lambda a, b: a ^ b),
            }
            cls, fn = table[op]

        def run_bin(fr, lhs=lhs, rhs=rhs, fn=fn, ctr=ctr, cls=cls):
            ctr[cls] += 1
            return fn(lhs(fr), rhs(fr))

        return run_bin

    def _compile_logical(self, expr: ast.Logical) -> ExprClosure:
        ctr = self.ctr
        lhs = self.compile_expr(expr.lhs)
        rhs = self.compile_expr(expr.rhs)
        if expr.op == "&&":

            def run_and(fr, lhs=lhs, rhs=rhs, ctr=ctr):
                ctr[BRANCH] += 1
                return 1 if (lhs(fr) and rhs(fr)) else 0

            return run_and

        def run_or(fr, lhs=lhs, rhs=rhs, ctr=ctr):
            ctr[BRANCH] += 1
            return 1 if (lhs(fr) or rhs(fr)) else 0

        return run_or

    def _compile_assign(self, expr: ast.Assign) -> ExprClosure:
        store = self._compile_store(expr.target)
        if expr.op == "=":
            value = self.compile_expr(expr.value)

            def run_assign(fr, value=value, store=store):
                v = value(fr)
                store(fr, v)
                return v

            return run_assign
        # Compound assignment desugars to load-op-store.
        binop = ast.Binary(
            op=expr.op[:-1], lhs=expr.target, rhs=expr.value, line=expr.line
        )
        combined = self._compile_binary(binop)

        def run_compound(fr, combined=combined, store=store):
            v = combined(fr)
            store(fr, v)
            return v

        return run_compound

    def _compile_ternary(self, expr: ast.Ternary) -> ExprClosure:
        ctr = self.ctr
        cond = self.compile_expr(expr.cond)
        then = self.compile_expr(expr.then)
        els = self.compile_expr(expr.els)

        def run_ternary(fr, cond=cond, then=then, els=els, ctr=ctr):
            ctr[BRANCH] += 1
            if cond(fr):
                return then(fr)
            return els(fr)

        return run_ternary

    # -- calls -------------------------------------------------------------------------

    def _compile_call(self, expr: ast.Call) -> ExprClosure:
        ctr = self.ctr
        if isinstance(expr.func, ast.Name) and expr.func.symbol is None:
            name = expr.func.name
            if name not in BUILTINS:
                raise InterpError(f"call to unknown builtin {name!r}")
            return intrinsics.compile_builtin(name, expr.args, self)
        args = [self.compile_expr(a) for a in expr.args]
        if isinstance(expr.func, ast.Name) and expr.func.symbol.kind == "func":
            fn = self.compiled.functions.get(expr.func.name)
            if fn is None:
                raise InterpError(f"function {expr.func.name!r} has no body")

            # Specialize the common arities: building the argument tuple
            # through a generator expression dominates call-heavy
            # workloads.
            if len(args) == 0:

                def run_call0(fr, fn=fn, ctr=ctr):
                    ctr[CALL] += 1
                    return fn.invoke(())

                return run_call0
            if len(args) == 1:
                a0 = args[0]

                def run_call1(fr, fn=fn, a0=a0, ctr=ctr):
                    ctr[CALL] += 1
                    return fn.invoke((a0(fr),))

                return run_call1
            if len(args) == 2:
                a0, a1 = args

                def run_call2(fr, fn=fn, a0=a0, a1=a1, ctr=ctr):
                    ctr[CALL] += 1
                    return fn.invoke((a0(fr), a1(fr)))

                return run_call2
            if len(args) == 3:
                a0, a1, a2 = args

                def run_call3(fr, fn=fn, a0=a0, a1=a1, a2=a2, ctr=ctr):
                    ctr[CALL] += 1
                    return fn.invoke((a0(fr), a1(fr), a2(fr)))

                return run_call3

            def run_call(fr, fn=fn, args=args, ctr=ctr):
                ctr[CALL] += 1
                return fn.invoke(tuple(a(fr) for a in args))

            return run_call
        func = self.compile_expr(expr.func)

        def run_indirect(fr, func=func, args=args, ctr=ctr):
            ctr[CALL] += 1
            target = func(fr)
            if not isinstance(target, CompiledFunction):
                raise InterpError("indirect call target is not a function")
            return target.invoke(tuple(a(fr) for a in args))

        return run_indirect


def _float_div(a: float, b: float) -> float:
    if b == 0:
        raise InterpError("float division by zero")
    return a / b

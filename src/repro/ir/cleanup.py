"""Clean-up pass: split function calls out of complex expressions.

The paper's GCC implementation runs a clean-up module so that "each
function call in a complex expression is split from the expression in
order to simplify the interprocedural analysis".  We do the same at the
AST level: a call nested inside a larger expression is hoisted into its
own temporary assignment immediately before the statement::

    x = f(a) + g(b);    ==>    int __cu0 = f(a);
                               int __cu1 = g(b);
                               x = __cu0 + __cu1;

Hoisting happens only where it preserves semantics without restructuring
control flow: expression statements, declaration initializers, ``return``
values, and ``if`` conditions.  Calls under short-circuit operators,
ternaries, and loop conditions/steps are left in place (their conditional
or repeated evaluation cannot be hoisted), as are calls that are already
the entire right-hand side.

Run on a *resolved* program (types are needed to declare the
temporaries).  Only the functions that hoisted a call are re-indexed and
re-resolved afterwards; a program with nothing to hoist is left as it was.
"""

from __future__ import annotations

from typing import Optional

from ..minic import astnodes as ast
from ..minic.builtins import BUILTINS
from ..minic.index import ProgramIndex
from ..minic.sema import Typer, resolve_functions
from ..minic.types import VOID, Type

_TEMP_PREFIX = "__cu"


class CleanupPass:
    def __init__(self, program: ast.Program, index: Optional[ProgramIndex] = None) -> None:
        self.program = program
        self.index = index
        self.typer = Typer(program)
        self._counter = 0
        self.hoisted = 0  # number of calls split out (for tests/reporting)

    def run(self) -> ast.Program:
        changed: list[ast.Function] = []
        for fn in self.program.functions:
            before = self.hoisted
            self._clean_block(fn.body)
            if self.hoisted > before:
                changed.append(fn)
        if changed:
            if self.index is None:
                self.index = ProgramIndex(self.program)
            else:
                self.index.refresh(fn.name for fn in changed)
            resolve_functions(self.program, changed, self.index)
        return self.program

    def _fresh_name(self) -> str:
        name = f"{_TEMP_PREFIX}{self._counter}"
        self._counter += 1
        return name

    # -- statement walking ----------------------------------------------------

    def _clean_block(self, block: ast.Block) -> None:
        new_stmts: list[ast.Stmt] = []
        for stmt in block.stmts:
            prefix: list[ast.Stmt] = []
            self._clean_stmt(stmt, prefix)
            new_stmts.extend(prefix)
            new_stmts.append(stmt)
        block.stmts = new_stmts

    def _clean_stmt(self, stmt: ast.Stmt, prefix: list[ast.Stmt]) -> None:
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._hoist(stmt.expr, prefix, is_root=True)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    decl.init = self._hoist(decl.init, prefix, is_root=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._hoist(stmt.value, prefix, is_root=True)
        elif isinstance(stmt, ast.If):
            stmt.cond = self._hoist(stmt.cond, prefix, is_root=False)
            self._clean_block(stmt.then)
            if stmt.els is not None:
                self._clean_block(stmt.els)
        elif isinstance(stmt, ast.Block):
            self._clean_block(stmt)
        elif isinstance(stmt, ast.While):
            self._clean_block(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._clean_block(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._clean_stmt(stmt.init, prefix)
            self._clean_block(stmt.body)
        # Break/Continue: nothing to do.

    # -- expression hoisting -----------------------------------------------------

    def _hoist(self, expr: ast.Expr, prefix: list[ast.Stmt], is_root: bool) -> ast.Expr:
        """Hoist nested calls out of ``expr``; returns the rewritten expr.

        ``is_root`` marks positions where a call may legitimately remain as
        the entire expression (statement expression, direct initializer,
        return value, direct assignment RHS).
        """
        if isinstance(expr, ast.Call):
            # First hoist calls out of the arguments.
            expr.args = [self._hoist(a, prefix, is_root=False) for a in expr.args]
            if is_root or self._is_trivial_builtin(expr):
                return expr
            return self._hoist_call(expr, prefix)
        if isinstance(expr, ast.Assign):
            expr.target = self._hoist(expr.target, prefix, is_root=False)
            # A direct `x = f(...)` RHS stays in place only for simple `=`.
            rhs_root = is_root and expr.op == "="
            expr.value = self._hoist(expr.value, prefix, is_root=rhs_root)
            return expr
        if isinstance(expr, ast.Binary):
            expr.lhs = self._hoist(expr.lhs, prefix, is_root=False)
            expr.rhs = self._hoist(expr.rhs, prefix, is_root=False)
            return expr
        if isinstance(expr, ast.Unary):
            expr.operand = self._hoist(expr.operand, prefix, is_root=False)
            return expr
        if isinstance(expr, ast.Index):
            expr.base = self._hoist(expr.base, prefix, is_root=False)
            expr.index = self._hoist(expr.index, prefix, is_root=False)
            return expr
        if isinstance(expr, ast.IncDec):
            return expr
        # Logical / Ternary arms are conditionally evaluated: only the
        # unconditionally-evaluated condition / lhs may be hoisted from.
        if isinstance(expr, ast.Logical):
            expr.lhs = self._hoist(expr.lhs, prefix, is_root=False)
            return expr
        if isinstance(expr, ast.Ternary):
            expr.cond = self._hoist(expr.cond, prefix, is_root=False)
            return expr
        return expr

    def _is_trivial_builtin(self, call: ast.Call) -> bool:
        """Casts and pure helpers need not be split — they have no
        interprocedural effects for the analyses to worry about."""
        if isinstance(call.func, ast.Name) and call.func.symbol is None:
            return call.func.name in BUILTINS
        return False

    def _hoist_call(self, call: ast.Call, prefix: list[ast.Stmt]) -> ast.Expr:
        ret_type = self._return_type(call)
        if ret_type == VOID or not ret_type.is_scalar and not ret_type.is_pointer:
            return call  # cannot name the result; leave in place
        name = self._fresh_name()
        decl = ast.VarDecl(name=name, type=ret_type, init=call, line=call.line)
        prefix.append(ast.DeclStmt(decls=[decl], line=call.line))
        self.hoisted += 1
        return ast.Name(name=name, line=call.line)

    def _return_type(self, call: ast.Call) -> Type:
        try:
            return self.typer.type_of(call)
        except Exception:
            return VOID


def cleanup(program: ast.Program, index: Optional[ProgramIndex] = None) -> ast.Program:
    """Run the clean-up pass in place; returns the program, with the
    functions that changed re-indexed (in ``index``) and re-resolved."""
    return CleanupPass(program, index).run()

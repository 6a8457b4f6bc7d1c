"""Symbol-level use/def extraction for statements and expressions.

For every CFG node the dataflow analyses need three sets:

* ``uses`` — symbols whose value may be read;
* ``defs`` — symbols that *must* be (completely) written ("strong" defs —
  only these kill liveness / upward exposure);
* ``weak_defs`` — symbols that *may* be (partially) written: array element
  stores, writes through pointers (via the points-to oracle), and
  assignments under conditionally-evaluated operators.

Calls use interprocedural MOD/REF summaries when provided (see
:mod:`repro.analysis.modref`); without summaries a call conservatively
reads and weakly writes every global and every pointee of its pointer
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..minic import astnodes as ast
from .pointer import PointsTo


@dataclass
class UseDef:
    uses: set[ast.Symbol] = field(default_factory=set)
    defs: set[ast.Symbol] = field(default_factory=set)
    weak_defs: set[ast.Symbol] = field(default_factory=set)


class UseDefExtractor:
    """Extracts use/def sets; one instance per program analysis session."""

    def __init__(
        self,
        points_to: Optional[PointsTo] = None,
        modref=None,
        global_symbols: Optional[set[ast.Symbol]] = None,
    ) -> None:
        self.points_to = points_to
        self.modref = modref  # ModRef summaries, optional
        # Fallback call effects when no MOD/REF summaries are available:
        # every non-const global may be read and written by any call.
        self.global_symbols = global_symbols or set()

    # -- statements -----------------------------------------------------------

    def of_stmt(self, stmt: ast.Stmt) -> UseDef:
        ud = UseDef()
        if isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr, ud, weak=False)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self._expr(decl.init, ud, weak=False)
                if decl.symbol is not None:
                    ud.defs.add(decl.symbol)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, ud, weak=False)
        # Break/Continue: empty.
        return ud

    def of_expr(self, expr: ast.Expr) -> UseDef:
        ud = UseDef()
        self._expr(expr, ud, weak=False)
        return ud

    # -- expression walk ---------------------------------------------------------

    def _expr(self, expr: ast.Expr, ud: UseDef, weak: bool) -> None:
        """``weak``: we are under a conditionally-evaluated context, so any
        definition found is a may-def."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return
        if isinstance(expr, ast.Name):
            if expr.symbol is not None and expr.symbol.kind != "func":
                ud.uses.add(expr.symbol)
            return
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                # taking an address is not a read of the object
                self._lvalue_address(expr.operand, ud, weak)
                return
            if expr.op == "*":
                self._expr(expr.operand, ud, weak)
                self._deref_use(expr.operand, ud)
                return
            self._expr(expr.operand, ud, weak)
            return
        if isinstance(expr, ast.IncDec):
            self._expr(expr.target, ud, weak)  # read
            self._define(expr.target, ud, weak)  # write
            return
        if isinstance(expr, ast.Binary):
            self._expr(expr.lhs, ud, weak)
            self._expr(expr.rhs, ud, weak)
            return
        if isinstance(expr, ast.Logical):
            self._expr(expr.lhs, ud, weak)
            self._expr(expr.rhs, ud, weak=True)
            return
        if isinstance(expr, ast.Ternary):
            self._expr(expr.cond, ud, weak)
            self._expr(expr.then, ud, weak=True)
            self._expr(expr.els, ud, weak=True)
            return
        if isinstance(expr, ast.Assign):
            if expr.op != "=":
                self._expr(expr.target, ud, weak)  # compound reads the target
            self._expr(expr.value, ud, weak)
            self._define(expr.target, ud, weak)
            return
        if isinstance(expr, ast.Index):
            self._expr(expr.base, ud, weak)
            self._expr(expr.index, ud, weak)
            # reading an element reads the (whole, symbol-granular) array
            self._deref_use(expr.base, ud)
            return
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self._expr(arg, ud, weak)
            self._call_effects(expr, ud)
            return
        raise TypeError(f"use/def of unknown expression {type(expr).__name__}")

    # -- helpers -----------------------------------------------------------------

    def _define(self, target: ast.Expr, ud: UseDef, weak: bool) -> None:
        if isinstance(target, ast.Name):
            if target.symbol is None:
                return
            if weak:
                ud.weak_defs.add(target.symbol)
            else:
                ud.defs.add(target.symbol)
            return
        if isinstance(target, ast.Index):
            self._expr(target.base, ud, weak)
            self._expr(target.index, ud, weak)
            # an element store is always a weak (partial) def of the array
            for symbol in self._targets_of(target.base):
                ud.weak_defs.add(symbol)
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            self._expr(target.operand, ud, weak)
            for symbol in self._targets_of(target.operand):
                ud.weak_defs.add(symbol)
            return

    def _lvalue_address(self, expr: ast.Expr, ud: UseDef, weak: bool) -> None:
        """&lvalue evaluates any index/base expressions but reads nothing."""
        if isinstance(expr, ast.Index):
            self._expr(expr.base, ud, weak)
            self._expr(expr.index, ud, weak)
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            self._expr(expr.operand, ud, weak)

    def _deref_use(self, base: ast.Expr, ud: UseDef) -> None:
        for symbol in self._targets_of(base):
            ud.uses.add(symbol)

    def _targets_of(self, base: ast.Expr) -> set[ast.Symbol]:
        """Symbols an indexing/deref base may denote."""
        # Direct array names are the common fast case.
        root = base
        while isinstance(root, ast.Binary) and root.op in ("+", "-"):
            root = root.lhs
        if isinstance(root, ast.Name) and root.symbol is not None:
            if root.symbol.type.is_array:
                return {root.symbol}
            if self.points_to is not None:
                targets = self.points_to.deref_targets(root)
                # the pointer variable itself was read to do the deref
                return targets
        if self.points_to is not None:
            return self.points_to.deref_targets(base)
        return set()

    def _call_effects(self, call: ast.Call, ud: UseDef) -> None:
        if isinstance(call.func, ast.Name) and call.func.symbol is None:
            return  # builtins have no variable-level side effects
        if isinstance(call.func, ast.Name) and call.func.symbol.kind != "func":
            ud.uses.add(call.func.symbol)  # the function-pointer variable
        if self.modref is not None:
            targets = (
                self.points_to.call_targets(call) if self.points_to is not None else set()
            )
            if isinstance(call.func, ast.Name) and call.func.symbol is not None:
                if call.func.symbol.kind == "func":
                    targets = {call.func.symbol.name}
            for callee in targets:
                mod, ref = self.modref.summary(callee)
                ud.uses.update(ref)
                ud.weak_defs.update(mod)
            return
        # No summaries: conservative — the call may read/write any global
        # and anything reachable from pointer arguments.
        for symbol in self.global_symbols:
            if not symbol.is_const:
                ud.uses.add(symbol)
                ud.weak_defs.add(symbol)
        for arg in call.args:
            if self.points_to is not None:
                for symbol in self.points_to.deref_targets(arg):
                    ud.uses.add(symbol)
                    ud.weak_defs.add(symbol)


class NodeUseDefs:
    """The use/def sets of one CFG's nodes, extracted once.  Answers
    ``of_stmt``/``of_expr`` for a node's statement or expression like an
    extractor would, so region analyses read them instead of extracting
    again (only the CFG's own nodes are known)."""

    def __init__(self, by_node: dict[int, UseDef]) -> None:
        self._by_node = by_node

    def of_stmt(self, stmt: ast.Node) -> UseDef:
        return self._by_node[id(stmt)]

    of_expr = of_stmt

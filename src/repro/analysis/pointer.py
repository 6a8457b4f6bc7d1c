"""Unification-based (Steensgaard-style) pointer analysis.

The paper performs a global unification-based pointer analysis (its
reference [7], Das) so that aliases introduced through call arguments and
globals are visible to the def-use and input/output analyses — e.g. the
``quan`` parameter ``table`` aliasing the global array ``power2``.

Our abstraction is symbol-granular: every variable symbol owns one
abstract cell; each cell has at most one pointee cell, and assignments
unify pointee cells (the classic almost-linear-time scheme).  Arrays are
single abstract locations (element-granular alias precision is not needed
by any client analysis).  Function symbols are locations too, which
resolves calls through function pointers for call-graph construction.

Public queries:

* :meth:`PointsTo.pointees` — the variable symbols a pointer may target;
* :meth:`PointsTo.called_functions` — the function names a function
  pointer may target;
* :meth:`PointsTo.may_alias` — whether two pointers may target the same
  location.
"""

from __future__ import annotations

from typing import Optional

from ..minic import astnodes as ast
from ..minic.index import ProgramIndex
from ..minic.types import ArrayType, PointerType


class _UnionFind:
    def __init__(self) -> None:
        self._parent: list[int] = []
        # pointee cell of each root cell (or -1)
        self._pts: list[int] = []

    def make_cell(self) -> int:
        cell = len(self._parent)
        self._parent.append(cell)
        self._pts.append(-1)
        return cell

    def find(self, cell: int) -> int:
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cell] != root:
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def pointee(self, cell: int) -> int:
        """The pointee cell of ``cell``, created on demand."""
        root = self.find(cell)
        if self._pts[root] == -1:
            self._pts[root] = self.make_cell()
        return self.find(self._pts[root])

    def union(self, a: int, b: int) -> None:
        """Unify two cells, recursively unifying their pointees."""
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            px, py = self._pts[rx], self._pts[ry]
            self._parent[rx] = ry
            if px != -1 and py != -1:
                worklist.append((px, py))
            elif px != -1:
                self._pts[ry] = px

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


class PointsTo:
    """The result of running pointer analysis over a whole program."""

    def __init__(self, program: ast.Program, index: Optional[ProgramIndex] = None) -> None:
        self.program = program
        self._uf = _UnionFind()
        self._cell_of: dict[ast.Symbol, int] = {}
        # the cell representing "a value that points at function f"
        self._fval_cell: dict[str, int] = {}
        # the cell holding function f's return value
        self._ret_cell: dict[str, int] = {}
        self._functions = {fn.name: fn for fn in program.functions}
        self._run(index if index is not None else ProgramIndex(program))

    # -- cells ----------------------------------------------------------------

    def _cell(self, symbol: ast.Symbol) -> int:
        cell = self._cell_of.get(symbol)
        if cell is None:
            cell = self._uf.make_cell()
            self._cell_of[symbol] = cell
        return cell

    def _fval(self, name: str) -> int:
        cell = self._fval_cell.get(name)
        if cell is None:
            cell = self._uf.make_cell()
            self._fval_cell[name] = cell
            fn = self._functions.get(name)
            if fn is not None and fn.symbol is not None:
                # pointee of a function value is the function's own cell
                self._uf.union(self._uf.pointee(cell), self._cell(fn.symbol))
        return cell

    def _ret(self, name: str) -> int:
        cell = self._ret_cell.get(name)
        if cell is None:
            cell = self._uf.make_cell()
            self._ret_cell[name] = cell
        return cell

    # -- constraint generation ------------------------------------------------

    def _run(self, index: ProgramIndex) -> None:
        # Each function's constraints are its index's "constraints"
        # bucket (assignments, declarations, calls, returns) in walk
        # order, so cells are created in visit order.  Iterate to a fixed
        # point: indirect-call constraints depend on points-to facts
        # discovered by earlier iterations.
        constraints = [
            (fn.name, index.function(fn.name).bucket("constraints"))
            for fn in self._functions.values()
        ]
        for _ in range(4):
            before = len(self._uf._parent)
            snapshot = list(self._uf._parent)
            for name, nodes in constraints:
                self._visit_function(name, nodes)
            after = list(self._uf._parent)
            if len(after) == before and after == snapshot:
                break

    def _visit_function(self, name: str, nodes: list) -> None:
        for node in nodes:
            if isinstance(node, ast.Assign) and node.op == "=":
                target_cell = self._lvalue_cell(node.target)
                if target_cell is not None:
                    self._assign(target_cell, node.value)
            elif isinstance(node, ast.DeclStmt):
                for decl in node.decls:
                    if decl.init is not None and decl.symbol is not None:
                        self._assign(self._cell(decl.symbol), decl.init)
            elif isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._assign(self._ret(name), node.value)

    def _assign(self, target_cell: int, value: ast.Expr) -> None:
        value_cell = self._value_cell(value)
        if value_cell is not None:
            # x = y: unify the pointees (contents) of the two cells.
            self._uf.union(self._uf.pointee(target_cell), self._uf.pointee(value_cell))

    def _visit_call(self, call: ast.Call) -> None:
        for callee in self.call_targets(call):
            fn = self._functions.get(callee)
            if fn is None:
                continue
            for param, arg in zip(fn.params, call.args):
                if param.symbol is None:
                    continue
                if isinstance(param.symbol.type, (PointerType,)):
                    self._assign(self._cell(param.symbol), arg)

    def call_targets(self, call: ast.Call) -> set[str]:
        """The possible callee names of a call expression."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.symbol is None:
                return set()  # builtin
            if func.symbol.kind == "func":
                return {func.symbol.name}
            # call through a variable: resolve via points-to
            return self.called_functions(func.symbol)
        return set()

    # -- value cells ------------------------------------------------------------

    def _value_cell(self, expr: ast.Expr) -> Optional[int]:
        """A cell whose pointee-set abstracts the value of ``expr`` (for
        pointer-valued expressions); None for non-pointer values."""
        if isinstance(expr, ast.Name):
            symbol = expr.symbol
            if symbol is None:
                return None
            if symbol.kind == "func":
                return self._fval(symbol.name)
            if isinstance(symbol.type, ArrayType):
                # array decay: a value pointing at the array's storage
                cell = self._uf.make_cell()
                self._uf.union(self._uf.pointee(cell), self._cell(symbol))
                return cell
            return self._cell(symbol)
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                inner = self._lvalue_cell(expr.operand)
                if inner is None:
                    return None
                cell = self._uf.make_cell()
                self._uf.union(self._uf.pointee(cell), inner)
                return cell
            if expr.op == "*":
                base = self._value_cell(expr.operand)
                if base is None:
                    return None
                return self._uf.pointee(base)
            return None
        if isinstance(expr, ast.Binary):
            if expr.op in ("+", "-"):
                # pointer arithmetic preserves the target
                left = self._value_cell(expr.lhs)
                if left is not None:
                    return left
                return self._value_cell(expr.rhs)
            if expr.op == ",":
                return self._value_cell(expr.rhs)
            return None
        if isinstance(expr, ast.Index):
            base = self._value_cell(expr.base)
            if base is None:
                return None
            return self._uf.pointee(base)
        if isinstance(expr, ast.Ternary):
            a = self._value_cell(expr.then)
            b = self._value_cell(expr.els)
            if a is not None and b is not None:
                self._uf.union(a, b)
            return a if a is not None else b
        if isinstance(expr, ast.Call):
            for callee in self.call_targets(expr):
                return self._ret(callee)
            return None
        if isinstance(expr, ast.Assign):
            return self._value_cell(expr.value)
        return None

    def _lvalue_cell(self, expr: ast.Expr) -> Optional[int]:
        """The cell of the storage an lvalue denotes."""
        if isinstance(expr, ast.Name):
            if expr.symbol is None or expr.symbol.kind == "func":
                return None
            return self._cell(expr.symbol)
        if isinstance(expr, ast.Index):
            base = self._value_cell(expr.base)
            if base is None:
                return None
            return self._uf.pointee(base)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base = self._value_cell(expr.operand)
            if base is None:
                return None
            return self._uf.pointee(base)
        return None

    # -- public queries --------------------------------------------------------------

    def pointees(self, symbol: ast.Symbol) -> set[ast.Symbol]:
        """Variable symbols that ``*symbol`` may denote."""
        if symbol not in self._cell_of:
            return set()
        target = self._uf.pointee(self._cell_of[symbol])
        result = set()
        for other, cell in self._cell_of.items():
            if other.kind == "func":
                continue
            if self._uf.same(cell, target):
                result.add(other)
        return result

    def called_functions(self, symbol: ast.Symbol) -> set[str]:
        """Function names that a call through ``symbol`` may reach."""
        if symbol not in self._cell_of:
            return set()
        target = self._uf.pointee(self._cell_of[symbol])
        result = set()
        for fn in self._functions.values():
            if fn.symbol is not None and fn.symbol in self._cell_of:
                if self._uf.same(self._cell_of[fn.symbol], target):
                    result.add(fn.name)
        return result

    def may_alias(self, a: ast.Symbol, b: ast.Symbol) -> bool:
        """May pointers ``a`` and ``b`` target the same location?"""
        if a not in self._cell_of or b not in self._cell_of:
            return False
        return self._uf.same(
            self._uf.pointee(self._cell_of[a]), self._uf.pointee(self._cell_of[b])
        )

    def deref_targets(self, expr: ast.Expr) -> set[ast.Symbol]:
        """The variable symbols a pointer-valued expression may point at —
        the may-use/may-def set of ``*expr`` for the dataflow analyses."""
        cell = self._value_cell(expr)
        if cell is None:
            return set()
        target = self._uf.pointee(cell)
        return {
            symbol
            for symbol, c in self._cell_of.items()
            if symbol.kind != "func" and self._uf.same(c, target)
        }


def analyze_pointers(program: ast.Program) -> PointsTo:
    """Run the global pointer analysis."""
    return PointsTo(program)

"""Semantic analysis for mini-C.

Responsibilities:

* resolve every :class:`~repro.minic.astnodes.Name` to a
  :class:`~repro.minic.astnodes.Symbol` (locals shadow globals; block
  scoping with shadowing is supported);
* assign frame slots to params/locals and global slots to globals;
* mark address-taken scalars (the runtime boxes those);
* detect syntactically-constant globals (never written and never passed
  to a call) — the seed set for the paper's "invariant at segment entry"
  classification, later refined by pointer/mod-ref analysis;
* light type checking via :class:`Typer` (indexing non-arrays, calling
  non-functions, arity errors for known functions and builtins).

``analyze`` mutates the AST in place and returns it, so passes can chain:
``analyze(parse_program(src))``.  :func:`resolve_functions` resolves only
the functions a later pass created or rewrote, keeping every other
symbol, and re-derives global constness.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import SemanticError
from . import astnodes as ast
from .builtins import BUILTINS
from .index import ProgramIndex
from .types import (
    FLOAT,
    INT,
    VOID,
    FuncType,
    PointerType,
    Type,
    common_arith_type,
    decay,
)


class Scope:
    """A lexical scope mapping names to symbols."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.symbols: dict[str, ast.Symbol] = {}

    def define(self, symbol: ast.Symbol) -> None:
        if symbol.name in self.symbols:
            raise SemanticError(f"duplicate declaration of {symbol.name!r}")
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[ast.Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.global_scope = Scope()
        self._next_slot = 0
        self._current_fn: Optional[ast.Function] = None

    # -- entry point -----------------------------------------------------

    def run(self, index: Optional[ProgramIndex] = None) -> ast.Program:
        self._declare_globals()
        self._declare_functions()
        for fn in self.program.functions:
            self._resolve_function(fn)
        if index is None:
            index = ProgramIndex(self.program)
        else:
            for entry in index:
                entry.facts.clear()  # every symbol is new
        mark_constant_globals(self.program, index)
        return self.program

    # -- pass 1: global declarations --------------------------------------

    def _declare_globals(self) -> None:
        for index, g in enumerate(self.program.globals):
            symbol = ast.Symbol(
                name=g.decl.name,
                type=g.decl.type,
                kind="global",
                slot=index,
                is_const=g.is_const,
            )
            g.decl.symbol = symbol
            self.global_scope.define(symbol)

    def _declare_functions(self) -> None:
        for fn in self.program.functions:
            self._declare_function(fn)

    def _declare_function(self, fn: ast.Function) -> None:
        ftype = FuncType(fn.ret_type, tuple(decay(p.type) for p in fn.params))
        symbol = ast.Symbol(name=fn.name, type=ftype, kind="func")
        fn.symbol = symbol
        self.global_scope.define(symbol)

    # -- pass 2: function bodies ------------------------------------------

    def _resolve_function(self, fn: ast.Function) -> None:
        self._current_fn = fn
        self._next_slot = 0
        scope = Scope(self.global_scope)
        for param in fn.params:
            symbol = ast.Symbol(
                name=param.name,
                type=decay(param.type),
                kind="param",
                slot=self._alloc_slot(),
                func_name=fn.name,
            )
            param.symbol = symbol
            scope.define(symbol)
        self._resolve_block(fn.body, scope)
        fn.frame_size = self._next_slot
        self._current_fn = None

    def _alloc_slot(self) -> int:
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _resolve_block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent)
        for stmt in block.stmts:
            self._resolve_stmt(stmt, scope)

    def _resolve_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self._resolve_expr(decl.init, scope)
                if decl.array_init is not None:
                    self._resolve_init_list(decl.array_init, scope)
                symbol = ast.Symbol(
                    name=decl.name,
                    type=decl.type,
                    kind="local",
                    slot=self._alloc_slot(),
                    func_name=self._current_fn.name if self._current_fn else "",
                )
                decl.symbol = symbol
                scope.define(symbol)
        elif isinstance(stmt, ast.ExprStmt):
            self._resolve_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Block):
            self._resolve_block(stmt, scope)
        elif isinstance(stmt, ast.If):
            self._resolve_expr(stmt.cond, scope)
            self._resolve_block(stmt.then, scope)
            if stmt.els is not None:
                self._resolve_block(stmt.els, scope)
        elif isinstance(stmt, ast.While):
            self._resolve_expr(stmt.cond, scope)
            self._resolve_block(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._resolve_block(stmt.body, scope)
            self._resolve_expr(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._resolve_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._resolve_expr(stmt.cond, inner)
            if stmt.step is not None:
                self._resolve_expr(stmt.step, inner)
            self._resolve_block(stmt.body, inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._resolve_expr(stmt.value, scope)
            if self._current_fn is not None:
                if stmt.value is None and self._current_fn.ret_type != VOID:
                    raise SemanticError(
                        f"{self._current_fn.name}: return without value in non-void function"
                    )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:
            raise SemanticError(f"unknown statement: {type(stmt).__name__}")

    def _resolve_init_list(self, items: list, scope: Scope) -> None:
        for item in items:
            if isinstance(item, list):
                self._resolve_init_list(item, scope)
            else:
                self._resolve_expr(item, scope)

    def _resolve_expr(self, expr: ast.Expr, scope: Scope) -> None:
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return
        if isinstance(expr, ast.Name):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                if expr.name in BUILTINS:
                    return  # builtins resolve by name at compile time
                raise SemanticError(f"undeclared identifier {expr.name!r}")
            expr.symbol = symbol
            return
        if isinstance(expr, ast.Unary):
            self._resolve_expr(expr.operand, scope)
            if expr.op == "&":
                target = expr.operand
                if isinstance(target, ast.Name) and target.symbol is not None:
                    if target.symbol.type.is_scalar:
                        target.symbol.address_taken = True
            return
        if isinstance(expr, ast.IncDec):
            self._resolve_expr(expr.target, scope)
            return
        if isinstance(expr, (ast.Binary, ast.Logical)):
            self._resolve_expr(expr.lhs, scope)
            self._resolve_expr(expr.rhs, scope)
            return
        if isinstance(expr, ast.Assign):
            self._resolve_expr(expr.target, scope)
            self._resolve_expr(expr.value, scope)
            return
        if isinstance(expr, ast.Ternary):
            self._resolve_expr(expr.cond, scope)
            self._resolve_expr(expr.then, scope)
            self._resolve_expr(expr.els, scope)
            return
        if isinstance(expr, ast.Call):
            self._resolve_expr(expr.func, scope)
            for arg in expr.args:
                self._resolve_expr(arg, scope)
            self._check_call_arity(expr)
            return
        if isinstance(expr, ast.Index):
            self._resolve_expr(expr.base, scope)
            self._resolve_expr(expr.index, scope)
            return
        raise SemanticError(f"unknown expression: {type(expr).__name__}")

    def _check_call_arity(self, call: ast.Call) -> None:
        if not isinstance(call.func, ast.Name):
            return  # indirect call: checked at runtime
        name = call.func.name
        if call.func.symbol is not None:
            symbol = call.func.symbol
            if isinstance(symbol.type, FuncType):
                if len(call.args) != len(symbol.type.params):
                    raise SemanticError(
                        f"call to {name!r}: expected {len(symbol.type.params)} args, "
                        f"got {len(call.args)}"
                    )
            return
        sig = BUILTINS.get(name)
        if sig is None:
            raise SemanticError(f"call to undeclared function {name!r}")
        if sig.variadic:
            if len(call.args) < sig.min_args:
                raise SemanticError(f"builtin {name!r} needs >= {sig.min_args} args")
        elif len(call.args) != sig.min_args:
            raise SemanticError(
                f"builtin {name!r} expects {sig.min_args} args, got {len(call.args)}"
            )


def _global_effects(entry) -> tuple[frozenset, frozenset]:
    """The globals one function writes (assignment or ++/--) and lets
    escape (``&``, or an array passed to a call), from its index buckets;
    a per-function fact."""
    facts = entry.facts.get("global_effects")
    if facts is not None:
        return facts
    written: set[ast.Symbol] = set()
    escaped: set[ast.Symbol] = set()
    for node in entry.bucket("assigns") + entry.bucket("incdecs"):
        root = _root_symbol(node.target)
        if root is not None and root.kind == "global":
            written.add(root)
    for node in entry.bucket("unaries"):
        if node.op == "&":
            root = _root_symbol(node.operand)
            if root is not None and root.kind == "global":
                escaped.add(root)
    for node in entry.bucket("calls"):
        for arg in node.args:
            root = _root_symbol(arg)
            if root is not None and root.kind == "global" and not root.type.is_scalar:
                escaped.add(root)
    facts = entry.facts["global_effects"] = (frozenset(written), frozenset(escaped))
    return facts


def mark_constant_globals(program: ast.Program, index: ProgramIndex) -> None:
    """A global is treated as constant if it is declared const, or if no
    function ever (a) assigns it, (b) applies ++/-- or & to it, or
    (c) passes it (or a subobject) as a call argument.  Case (c) is
    conservative; pointer mod/ref analysis refines it later.

    Derived afresh from every function's written/escaped globals each
    time, so a rewrite that removes the last write or escape (a
    specialized call site no longer passing an array) makes the global
    constant."""
    written: set[ast.Symbol] = set()
    escaped: set[ast.Symbol] = set()
    for fn in program.functions:
        fn_written, fn_escaped = _global_effects(index.function(fn.name))
        written |= fn_written
        escaped |= fn_escaped
    for g in program.globals:
        symbol = g.decl.symbol
        assert symbol is not None
        symbol.is_const = g.is_const or (symbol not in written and symbol not in escaped)


def _root_symbol(expr: ast.Expr) -> Optional[ast.Symbol]:
    """The symbol at the base of an lvalue-ish expression, if any."""
    while True:
        if isinstance(expr, ast.Name):
            return expr.symbol
        if isinstance(expr, ast.Index):
            expr = expr.base
        elif isinstance(expr, ast.Unary) and expr.op in ("*", "&"):
            expr = expr.operand
        else:
            return None


class Typer:
    """On-demand expression typing over a resolved AST.

    Types are recomputed rather than cached on nodes so that AST rewrites
    (specialization, reuse transformation) can never leave stale types.
    """

    def __init__(self, program: ast.Program) -> None:
        self._functions = {fn.name: fn for fn in program.functions}

    def type_of(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.Name):
            if expr.symbol is not None:
                return expr.symbol.type
            sig = BUILTINS.get(expr.name)
            if sig is not None:
                return FuncType(sig.ret, ())
            raise SemanticError(f"unresolved name {expr.name!r}")
        if isinstance(expr, ast.Unary):
            inner = self.type_of(expr.operand)
            if expr.op == "*":
                inner = decay(inner)
                if isinstance(inner, PointerType):
                    return inner.elem
                raise SemanticError("dereference of non-pointer")
            if expr.op == "&":
                return PointerType(self.type_of(expr.operand))
            if expr.op in ("!", "~"):
                return INT
            return inner  # unary minus
        if isinstance(expr, ast.IncDec):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Logical):
            return INT
        if isinstance(expr, ast.Binary):
            if expr.op == ",":
                return self.type_of(expr.rhs)
            lhs = decay(self.type_of(expr.lhs))
            rhs = decay(self.type_of(expr.rhs))
            if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                return INT
            if isinstance(lhs, PointerType) and expr.op in ("+", "-"):
                if isinstance(rhs, PointerType) and expr.op == "-":
                    return INT
                return lhs
            if isinstance(rhs, PointerType) and expr.op == "+":
                return rhs
            if expr.op in ("%", "<<", ">>", "&", "|", "^"):
                return INT
            return common_arith_type(lhs, rhs)
        if isinstance(expr, ast.Assign):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Ternary):
            then_t = decay(self.type_of(expr.then))
            els_t = decay(self.type_of(expr.els))
            if isinstance(then_t, PointerType):
                return then_t
            if isinstance(els_t, PointerType):
                return els_t
            return common_arith_type(then_t, els_t)
        if isinstance(expr, ast.Call):
            ftype = self.type_of(expr.func)
            if isinstance(ftype, FuncType):
                return ftype.ret
            if isinstance(ftype, PointerType) and isinstance(ftype.elem, FuncType):
                return ftype.elem.ret
            raise SemanticError("call of non-function value")
        if isinstance(expr, ast.Index):
            base = decay(self.type_of(expr.base))
            if isinstance(base, PointerType):
                return base.elem
            raise SemanticError("indexing a non-array value")
        raise SemanticError(f"cannot type expression {type(expr).__name__}")


def analyze(program: ast.Program, index: Optional[ProgramIndex] = None) -> ast.Program:
    """Run semantic analysis in place and return the program.  Global
    constness reads ``index`` (built here when not given)."""
    return SemanticAnalyzer(program).run(index)


def resolve_functions(
    program: ast.Program,
    functions: Sequence[ast.Function],
    index: ProgramIndex,
    calls: Sequence[ast.Call] = (),
) -> None:
    """Resolve only what a pass created or rewrote in an analyzed
    program: the bodies of ``functions`` (indexed already; a function
    without a symbol, such as a specialized clone, is declared) and the
    callee names of ``calls``.  Every other Symbol object is kept.
    Global constness is re-derived from every function's facts."""
    analyzer = SemanticAnalyzer(program)
    scope = analyzer.global_scope
    for g in program.globals:
        scope.define(g.decl.symbol)
    for fn in program.functions:
        if fn.symbol is None:
            analyzer._declare_function(fn)
        else:
            scope.define(fn.symbol)
    for fn in functions:
        analyzer._resolve_function(fn)
        index.function(fn.name).facts.clear()
    for call in calls:
        analyzer._resolve_expr(call.func, scope)
        analyzer._check_call_arity(call)
        index.owner(call).facts.clear()
    mark_constant_globals(program, index)

"""Abstract syntax tree node definitions for mini-C.

The AST is deliberately mutable: the paper's scheme is a source-to-source
transformation, and our reuse/specialization passes rewrite the tree in
place (or splice cloned subtrees).  Every node records its source line for
diagnostics and for mapping profiling data back to code.

Symbols are attached by semantic analysis (:mod:`repro.minic.sema`); until
then ``Name.symbol`` is ``None``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .types import Type


class Node:
    """Base class of all AST nodes."""

    line: int

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        for name in _child_slots(type(self))[0]:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item


# Node class -> (its dataclass field names in declaration order, the same
# names reversed); filled on first use, so ``children`` and ``walk`` never
# call ``dataclasses.fields`` on a node.
_CHILD_SLOTS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _child_slots(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    slots = _CHILD_SLOTS.get(cls)
    if slots is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        slots = _CHILD_SLOTS[cls] = (names, names[::-1])
    return slots


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all of its descendants, pre-order.

    A node's children are read only after it has been yielded, so a
    consumer may rewrite them before the walk descends.
    """
    stack = [node]
    push = stack.append
    pop = stack.pop
    slots = _CHILD_SLOTS
    while stack:
        current = pop()
        yield current
        cls = type(current)
        names = (slots.get(cls) or _child_slots(cls))[1]
        # push the children last-first, so they pop in ``children`` order
        for name in names:
            value = getattr(current, name)
            if isinstance(value, Node):
                push(value)
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, Node):
                        push(item)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

_SYMBOL_COUNTER = [0]


@dataclass(eq=False)
class Symbol:
    """A resolved variable, parameter, or function name.

    Symbols use identity equality: two locals named ``i`` in different
    functions are distinct symbols.
    """

    name: str
    type: Type
    kind: str  # "local" | "param" | "global" | "func"
    slot: int = -1  # frame slot for locals/params, assigned by sema
    address_taken: bool = False
    is_const: bool = False  # declared const, or global never re-assigned
    func_name: str = ""  # owning function for locals/params
    uid: int = field(default_factory=lambda: _SYMBOL_COUNTER.__setitem__(0, _SYMBOL_COUNTER[0] + 1) or _SYMBOL_COUNTER[0])

    def __hash__(self) -> int:
        return self.uid

    def __repr__(self) -> str:
        scope = self.func_name + "::" if self.func_name else ""
        return f"<sym {scope}{self.name}#{self.uid}>"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Expr(Node):
    pass


@dataclass(eq=False)
class IntLit(Expr):
    value: int
    line: int = 0


@dataclass(eq=False)
class FloatLit(Expr):
    value: float
    line: int = 0


@dataclass(eq=False)
class Name(Expr):
    name: str
    line: int = 0
    symbol: Optional[Symbol] = None


@dataclass(eq=False)
class Unary(Expr):
    """Unary operator: one of ``- + ! ~ * &``."""

    op: str
    operand: Expr
    line: int = 0


@dataclass(eq=False)
class IncDec(Expr):
    """``++x``, ``x++``, ``--x``, ``x--``."""

    op: str  # "++" or "--"
    prefix: bool
    target: Expr
    line: int = 0


@dataclass(eq=False)
class Binary(Expr):
    """Binary operator (arithmetic, shifts, comparisons, bitwise)."""

    op: str
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass(eq=False)
class Logical(Expr):
    """Short-circuit ``&&`` / ``||`` (kept distinct from Binary because of
    their control-flow semantics)."""

    op: str  # "&&" or "||"
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass(eq=False)
class Assign(Expr):
    """Assignment, possibly compound (``=``, ``+=``, ``<<=``, ...)."""

    op: str
    target: Expr
    value: Expr
    line: int = 0


@dataclass(eq=False)
class Ternary(Expr):
    cond: Expr
    then: Expr
    els: Expr
    line: int = 0


@dataclass(eq=False)
class Call(Expr):
    """Function call.  ``func`` is usually a Name; calls through function
    pointers use an arbitrary expression."""

    func: Expr
    args: list[Expr]
    line: int = 0


@dataclass(eq=False)
class Index(Expr):
    """Array subscript ``base[index]`` (also used for pointer indexing)."""

    base: Expr
    index: Expr
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class VarDecl(Node):
    """A single declarator within a declaration statement."""

    name: str
    type: Type
    init: Optional[Expr]
    line: int = 0
    symbol: Optional[Symbol] = None
    # Array initializers are lists of (possibly nested) constant expressions.
    array_init: Optional[list] = None


@dataclass(eq=False)
class DeclStmt(Stmt):
    decls: list[VarDecl]
    line: int = 0


@dataclass(eq=False)
class ExprStmt(Stmt):
    expr: Expr
    line: int = 0


@dataclass(eq=False)
class Block(Stmt):
    stmts: list[Stmt]
    line: int = 0


@dataclass(eq=False)
class If(Stmt):
    cond: Expr
    then: Block
    els: Optional[Block]
    line: int = 0


@dataclass(eq=False)
class While(Stmt):
    cond: Expr
    body: Block
    line: int = 0


@dataclass(eq=False)
class DoWhile(Stmt):
    body: Block
    cond: Expr
    line: int = 0


@dataclass(eq=False)
class For(Stmt):
    init: Optional[Stmt]  # DeclStmt or ExprStmt
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Block
    line: int = 0


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr]
    line: int = 0


@dataclass(eq=False)
class Break(Stmt):
    line: int = 0


@dataclass(eq=False)
class Continue(Stmt):
    line: int = 0


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Param(Node):
    name: str
    type: Type
    line: int = 0
    symbol: Optional[Symbol] = None


@dataclass(eq=False)
class Function(Node):
    name: str
    ret_type: Type
    params: list[Param]
    body: Block
    is_static: bool = False
    line: int = 0
    symbol: Optional[Symbol] = None
    # Number of frame slots (params + locals), assigned by sema.
    frame_size: int = 0


@dataclass(eq=False)
class GlobalVar(Node):
    decl: VarDecl
    is_static: bool = False
    is_const: bool = False
    line: int = 0


@dataclass(eq=False)
class Program(Node):
    """A whole translation unit: globals and functions, in source order."""

    globals: list[GlobalVar]
    functions: list[Function]
    line: int = 0

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def global_var(self, name: str) -> GlobalVar:
        for g in self.globals:
            if g.decl.name == name:
                return g
        raise KeyError(name)

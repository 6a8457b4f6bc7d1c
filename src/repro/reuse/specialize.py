"""Code specialization to reduce hashing overhead (section 2.4).

When a function-body segment fails the ``O/C < 1`` pre-filter because its
input set is wide, but some of its arguments are *invariant at the call
sites* — literal constants, or global arrays the coverage analysis proves
are never modified — the scheme clones the function with those parameters
bound, rewrites the call sites, and lets the (much narrower) specialized
version become the reuse candidate.

This is exactly the paper's ``quan`` story: the original takes
``(val, table, size)``; at most call sites ``size == 15`` and ``table``
is (a copy of) the invariant ``power2``, so the specialized version has
the single input ``val``.

The specializer reads and maintains the compile's
:class:`~repro.minic.index.ProgramIndex`: a clone is indexed when it is
created and a caller when its call sites are rewritten.  It reports the
functions it created and the call sites it rewrote, which is all that
:func:`~repro.minic.sema.resolve_functions` has to resolve afterwards.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from ..minic import astnodes as ast
from ..minic.index import ProgramIndex
from ..minic.types import ArrayType

MAX_VERSIONS_PER_FUNCTION = 4


@dataclass(frozen=True)
class Binding:
    """One bound parameter: position, and either a literal or a global."""

    position: int
    kind: str  # "const" | "global"
    const_value: int = 0
    global_name: str = ""

    def describe(self) -> str:
        if self.kind == "const":
            return f"arg{self.position}={self.const_value}"
        return f"arg{self.position}->{self.global_name}"


@dataclass
class SpecializationRecord:
    original: str
    specialized: str
    bindings: tuple[Binding, ...]
    call_sites: int = 0


class Specializer:
    def __init__(
        self,
        program: ast.Program,
        invariants: frozenset,
        index: Optional[ProgramIndex] = None,
    ) -> None:
        self.program = program
        self.index = index if index is not None else ProgramIndex(program)
        self.invariant_names = {s.name for s in invariants}
        self.records: list[SpecializationRecord] = []
        # the clones made, and the call sites rewritten to call them
        self.created: list[ast.Function] = []
        self.rewritten_calls: list[ast.Call] = []
        self._version_counter: dict[str, int] = {}

    # -- binding detection ----------------------------------------------------

    def _binding_of_arg(self, position: int, arg: ast.Expr) -> Optional[Binding]:
        if isinstance(arg, ast.IntLit):
            return Binding(position=position, kind="const", const_value=arg.value)
        if isinstance(arg, ast.Name) and arg.symbol is not None:
            symbol = arg.symbol
            if (
                symbol.kind == "global"
                and isinstance(symbol.type, ArrayType)
                and symbol.name in self.invariant_names
            ):
                return Binding(position=position, kind="global", global_name=symbol.name)
        return None

    def _signature_of_call(self, call: ast.Call) -> tuple[Binding, ...]:
        bindings = []
        for position, arg in enumerate(call.args):
            binding = self._binding_of_arg(position, arg)
            if binding is not None:
                bindings.append(binding)
        return tuple(bindings)

    # -- the pass -----------------------------------------------------------------

    def specialize_function(self, name: str) -> list[SpecializationRecord]:
        """Attempt to specialize all call sites of function ``name``.

        Returns the records of versions created (possibly empty)."""
        fn = self.program.function(name)
        if not fn.params:
            return []
        if self._shadows_globals(fn):
            return []
        calls = self._direct_calls_to(name)
        if not calls:
            return []
        by_signature: dict[tuple[Binding, ...], list[ast.Call]] = {}
        for call in calls:
            signature = self._signature_of_call(call)
            if signature:
                by_signature.setdefault(signature, []).append(call)
        created: list[SpecializationRecord] = []
        for signature, sites in sorted(
            by_signature.items(), key=lambda item: -len(item[1])
        ):
            if self._version_counter.get(name, 0) >= MAX_VERSIONS_PER_FUNCTION:
                break
            record = self._create_version(fn, signature, sites)
            created.append(record)
        self.records.extend(created)
        return created

    def _direct_calls_to(self, name: str) -> list[ast.Call]:
        result = []
        for fn in self.program.functions:
            for node in self.index.function(fn.name).bucket("calls"):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.name == name
                    and node.func.symbol is not None
                    and node.func.symbol.kind == "func"
                ):
                    result.append(node)
        return result

    def _shadows_globals(self, fn: ast.Function) -> bool:
        """True if the function declares locals that would capture the
        rewritten global references (conservative bail-out)."""
        local_names = {p.name for p in fn.params}
        for stmt in self.index.function(fn.name).bucket("decls"):
            local_names.update(decl.name for decl in stmt.decls)
        return bool(local_names & self.invariant_names)

    def _create_version(
        self,
        fn: ast.Function,
        signature: tuple[Binding, ...],
        sites: list[ast.Call],
    ) -> SpecializationRecord:
        version = self._version_counter.get(fn.name, 0)
        self._version_counter[fn.name] = version + 1
        new_name = f"{fn.name}__s{version}"

        clone = copy.deepcopy(fn)
        clone.name = new_name
        clone.symbol = None
        bound_positions = {b.position for b in signature}
        substitutions: dict[str, ast.Expr] = {}
        for binding in signature:
            param = fn.params[binding.position]
            if binding.kind == "const":
                substitutions[param.name] = ast.IntLit(value=binding.const_value)
            else:
                substitutions[param.name] = ast.Name(name=binding.global_name)
        clone.params = [
            p for i, p in enumerate(clone.params) if i not in bound_positions
        ]
        _substitute_names(clone.body, substitutions)
        self.program.functions.append(clone)
        self.created.append(clone)

        callers = [self.index.owner(call).fn.name for call in sites]
        for call in sites:
            call.func = ast.Name(name=new_name, line=call.line)
            call.args = [
                a for i, a in enumerate(call.args) if i not in bound_positions
            ]
        self.rewritten_calls.extend(sites)
        self.index.refresh([new_name, *callers])
        return SpecializationRecord(
            original=fn.name,
            specialized=new_name,
            bindings=signature,
            call_sites=len(sites),
        )


def _substitute_names(block: ast.Block, substitutions: dict[str, ast.Expr]) -> None:
    """Replace reads of the given names with replacement expressions.

    The replacements are literals or global names, so no capture issues
    arise (the caller already bailed out on shadowing)."""

    def sub_expr(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Name) and expr.name in substitutions:
            return copy.deepcopy(substitutions[expr.name])
        for attr in ("operand", "lhs", "rhs", "target", "value", "cond", "then", "els", "base", "index", "func"):
            child = getattr(expr, attr, None)
            if isinstance(child, ast.Expr):
                setattr(expr, attr, sub_expr(child))
        if isinstance(expr, ast.Call):
            expr.args = [sub_expr(a) for a in expr.args]
        return expr

    for node in list(ast.walk(block)):
        if isinstance(node, ast.ExprStmt):
            node.expr = sub_expr(node.expr)
        elif isinstance(node, ast.Return) and node.value is not None:
            node.value = sub_expr(node.value)
        elif isinstance(node, ast.VarDecl) and node.init is not None:
            node.init = sub_expr(node.init)
        elif isinstance(node, (ast.If, ast.While, ast.DoWhile)):
            node.cond = sub_expr(node.cond)
        elif isinstance(node, ast.For):
            if node.cond is not None:
                node.cond = sub_expr(node.cond)
            if node.step is not None:
                node.step = sub_expr(node.step)

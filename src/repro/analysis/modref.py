"""Interprocedural MOD/REF summaries.

For every function we compute the sets of symbols it may modify (MOD) and
may read (REF), *as visible to its callers*: globals, and pointees of
pointer parameters (which are the caller's storage).  A function's own
locals and parameters are filtered out — their lifetime ends at return.

Summaries are computed to a fixed point over the call graph (recursion is
handled by plain iteration), and they feed the call-site effects in
:mod:`repro.analysis.usedef`, which is what makes def-use chains and
liveness *global* in the paper's sense: "there may exist a def-use chain
whose definition and use are in different procedures".
"""

from __future__ import annotations

from typing import Optional

from ..minic import astnodes as ast
from ..minic.index import ProgramIndex
from .pointer import PointsTo
from .usedef import UseDefExtractor


class _NoEffects:
    """A ModRef stub that reports empty call effects (used while gathering
    each function's *direct* effects)."""

    def summary(self, name: str):
        return frozenset(), frozenset()


class ModRef:
    def __init__(
        self,
        program: ast.Program,
        points_to: PointsTo,
        index: Optional[ProgramIndex] = None,
    ) -> None:
        self.program = program
        self.points_to = points_to
        self._mod: dict[str, frozenset] = {}
        self._ref: dict[str, frozenset] = {}
        self._compute(index if index is not None else ProgramIndex(program))

    def summary(self, name: str) -> tuple[frozenset, frozenset]:
        """Returns (MOD, REF) for a function name; empty for unknown."""
        return self._mod.get(name, frozenset()), self._ref.get(name, frozenset())

    def mod(self, name: str) -> frozenset:
        return self._mod.get(name, frozenset())

    def ref(self, name: str) -> frozenset:
        return self._ref.get(name, frozenset())

    def modified_anywhere(self) -> frozenset:
        """Symbols modified by any function — the complement (over globals)
        is the refined invariant-globals set used by code-coverage
        analysis and hash-key pruning."""
        result: set = set()
        for mod in self._mod.values():
            result |= mod
        return frozenset(result)

    # -- computation -------------------------------------------------------

    def _compute(self, index: ProgramIndex) -> None:
        extractor = UseDefExtractor(self.points_to, modref=_NoEffects())
        call_sites: dict[str, list] = {}
        for fn in self.program.functions:
            entry = index.function(fn.name)
            # the function's own statements and conditions; calls'
            # effects are added by the fixed point below
            mod: set = set()
            ref: set = set()
            for node in entry.bucket("stmts"):
                ud = extractor.of_stmt(node)
                mod |= ud.defs | ud.weak_defs
                ref |= ud.uses
            for node in entry.bucket("conds"):
                if isinstance(node, ast.For):
                    parts = [part for part in (node.cond, node.step) if part is not None]
                else:
                    parts = [node.cond]
                for part in parts:
                    ud = extractor.of_expr(part)
                    mod |= ud.defs | ud.weak_defs
                    ref |= ud.uses
            self._mod[fn.name] = frozenset(self._externalize(fn, mod))
            self._ref[fn.name] = frozenset(self._externalize(fn, ref))
            call_sites[fn.name] = entry.bucket("calls")

        # Fixed point over the call graph.
        changed = True
        while changed:
            changed = False
            for fn in self.program.functions:
                mod = set(self._mod[fn.name])
                ref = set(self._ref[fn.name])
                for call in call_sites[fn.name]:
                    for callee in self.points_to.call_targets(call):
                        cm, cr = self.summary(callee)
                        mod |= self._externalize(fn, cm)
                        ref |= self._externalize(fn, cr)
                if mod != self._mod[fn.name] or ref != self._ref[fn.name]:
                    self._mod[fn.name] = frozenset(mod)
                    self._ref[fn.name] = frozenset(ref)
                    changed = True

    @staticmethod
    def _externalize(fn: ast.Function, symbols: set) -> set:
        """Drop symbols that are private to ``fn`` (its locals/params)."""
        return {
            s
            for s in symbols
            if not (s.kind in ("local", "param") and s.func_name == fn.name)
        }


def analyze_modref(program: ast.Program, points_to: PointsTo) -> ModRef:
    return ModRef(program, points_to)

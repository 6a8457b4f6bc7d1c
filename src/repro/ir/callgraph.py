"""Interprocedural call graph construction.

"In the call graph construction, we take into account function pointers
and recursive functions.  For recursive functions we compute their
strongly-connected-component."

Indirect call sites are resolved through the points-to analysis; SCCs come
from :mod:`repro.ir.scc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..minic import astnodes as ast
from ..minic.index import ProgramIndex
from ..analysis.pointer import PointsTo
from .scc import condense, strongly_connected_components


@dataclass
class CallSite:
    caller: str
    call: ast.Call
    callees: frozenset  # of function names
    line: int


class CallGraph:
    def __init__(
        self,
        program: ast.Program,
        points_to: Optional[PointsTo] = None,
        index: Optional[ProgramIndex] = None,
    ) -> None:
        self.program = program
        if index is None:
            index = ProgramIndex(program)
        self.points_to = points_to or PointsTo(program, index)
        self.edges: dict[str, set[str]] = {fn.name: set() for fn in program.functions}
        self.call_sites: list[CallSite] = []
        self._build(index)

    def _build(self, index: ProgramIndex) -> None:
        for fn in self.program.functions:
            for node in index.function(fn.name).bucket("calls"):
                callees = frozenset(self.points_to.call_targets(node))
                if callees:
                    self.call_sites.append(
                        CallSite(caller=fn.name, call=node, callees=callees, line=node.line)
                    )
                    self.edges[fn.name].update(callees)

    # -- queries ---------------------------------------------------------------

    def callees(self, name: str) -> set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> set[str]:
        return {caller for caller, callees in self.edges.items() if name in callees}

    def sccs(self) -> list[list[str]]:
        """SCCs in reverse topological order (callees before callers)."""
        return strongly_connected_components(self.edges)

    def condensation(self):
        """(component_of, members, dag) over function names."""
        return condense(self.edges)

    def reachable_from(self, root: str) -> set[str]:
        seen = {root}
        stack = [root]
        while stack:
            name = stack.pop()
            for callee in self.edges.get(name, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen


def build_callgraph(program: ast.Program, points_to: Optional[PointsTo] = None) -> CallGraph:
    return CallGraph(program, points_to)

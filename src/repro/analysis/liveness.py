"""Liveness analysis (backward may-problem over the CFG).

The paper uses liveness to find a segment's *output variables*: "a
variable computed by the code segment is an output variable if it remains
live at the exit of the code segment".

At function exit the live set is not empty: mutable globals stay live
(callers can read them), and so does anything a pointer parameter may
point at (writes through it are visible to the caller).  Callers build
that exit set with :func:`function_exit_live`.
"""

from __future__ import annotations

from typing import Optional

from ..minic import astnodes as ast
from ..minic.types import PointerType
from ..ir.cfg import CFG
from .dataflow import DataflowResult, solve_backward
from .pointer import PointsTo
from .usedef import NodeUseDefs, UseDefExtractor


def function_exit_live(
    func: ast.Function,
    program: ast.Program,
    points_to: Optional[PointsTo] = None,
) -> frozenset:
    """Symbols live at a function's exit: mutable globals + pointees of
    pointer parameters (excluding the function's own dead locals)."""
    live: set[ast.Symbol] = set()
    for g in program.globals:
        if g.decl.symbol is not None and not g.decl.symbol.is_const:
            live.add(g.decl.symbol)
    if points_to is not None:
        for param in func.params:
            if param.symbol is not None and isinstance(param.symbol.type, PointerType):
                for target in points_to.pointees(param.symbol):
                    # a pointee that is another function's local outlives
                    # this call only if it is the caller's storage; keep it
                    # (conservative).
                    if target.func_name != func.name:
                        live.add(target)
    return frozenset(live)


class Liveness:
    """Solved liveness over one function's CFG."""

    def __init__(
        self,
        cfg: CFG,
        extractor: UseDefExtractor,
        exit_live: frozenset = frozenset(),
    ) -> None:
        self.cfg = cfg
        self._node_ud = {}
        by_node = {}
        gen: dict[int, frozenset] = {}
        kill: dict[int, frozenset] = {}
        for node in cfg:
            if node.ast_node is None:
                continue
            if isinstance(node.ast_node, ast.Stmt):
                ud = extractor.of_stmt(node.ast_node)
            else:
                ud = extractor.of_expr(node.ast_node)
            self._node_ud[node.nid] = ud
            by_node[id(node.ast_node)] = ud
            gen[node.nid] = frozenset(ud.uses)
            kill[node.nid] = frozenset(ud.defs)  # only strong defs kill

        def transfer(nid: int, out: frozenset) -> frozenset:
            return gen.get(nid, frozenset()) | (out - kill.get(nid, frozenset()))

        self.result: DataflowResult = solve_backward(cfg, transfer, exit_value=exit_live)
        # every node's use/def sets, for the region analyses of segments
        self.use_defs = NodeUseDefs(by_node)

    def live_in(self, nid: int) -> frozenset:
        return self.result.in_sets[nid]

    def live_out(self, nid: int) -> frozenset:
        return self.result.out_sets[nid]

    def live_at_region_exit(self, region: set[int]) -> frozenset:
        """Symbols live when control leaves the region: the union of
        live-in over every outside successor of a region node."""
        live: set = set()
        for target in self.cfg.region_exit_targets(region):
            live |= self.result.in_sets[target]
        return frozenset(live)

    def region_defs(self, region: set[int]) -> frozenset:
        """All symbols (strongly or weakly) defined inside the region."""
        defined: set = set()
        for nid in region:
            ud = self._node_ud.get(nid)
            if ud is not None:
                defined |= ud.defs | ud.weak_defs
        return frozenset(defined)

    def region_outputs(self, region: set[int]) -> frozenset:
        """The paper's output set: variables computed in the region that
        remain live at the region exit."""
        return self.region_defs(region) & self.live_at_region_exit(region)

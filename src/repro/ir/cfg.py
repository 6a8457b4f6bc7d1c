"""Statement-level control-flow graph construction for mini-C functions.

Every simple statement (declaration, expression statement, return) becomes
one node; structured control flow contributes *condition* nodes (and, for
``for`` loops, *init* and *step* nodes).  Each node records an ``owner``
AST statement: for condition/step nodes the owner is the control statement
itself, which is what lets region queries ("which CFG nodes lie inside
this loop body?") give the paper's segment boundaries exactly — a loop's
condition is *outside* its body segment.

The CFG drives the dataflow analyses (liveness at segment exits,
upward-exposed reads at segment entries, and the code-coverage/invariance
analysis of section 2.4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import AnalysisError
from ..minic import astnodes as ast
from ..minic.index import FunctionIndex

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
COND = "cond"
STEP = "step"


@dataclass(eq=False)
class CFGNode:
    nid: int
    kind: str
    ast_node: Optional[ast.Node]  # stmt for STMT, expr for COND/STEP
    owner: Optional[ast.Stmt]  # enclosing statement determining region membership
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<cfg#{self.nid} {self.kind}>"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: ast.Function, index: Optional[FunctionIndex] = None) -> None:
        self.func = func
        self.index = index
        # owners' pre-order numbers (ascending) and their nodes' ids
        self._by_owner: Optional[tuple[list[int], list[int]]] = None
        self.nodes: list[CFGNode] = []
        self.entry = self._new_node(ENTRY, None, None).nid
        self.exit = self._new_node(EXIT, None, None).nid

    def _new_node(self, kind: str, ast_node, owner) -> CFGNode:
        node = CFGNode(nid=len(self.nodes), kind=kind, ast_node=ast_node, owner=owner)
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- region queries ------------------------------------------------------

    def nodes_in_region(self, region_root: ast.Node) -> set[int]:
        """CFG node ids whose owner statement lies inside ``region_root``
        (inclusive).  For a loop *body* region pass the body block: the
        loop's own condition/step nodes stay outside.  Membership is the
        function index's: each of the root's pre-order spans selects the
        nodes whose owner is numbered inside it."""
        if self._by_owner is None:
            if self.index is None:
                self.index = FunctionIndex(self.func)
            pos = self.index.pos
            pairs = sorted((pos[id(n.owner)], n.nid) for n in self.nodes if n.owner is not None)
            self._by_owner = ([at for at, _ in pairs], [nid for _, nid in pairs])
        numbers, nids = self._by_owner
        region: set[int] = set()
        for lo, hi in self.index.spans(region_root):
            start = bisect_left(numbers, lo)
            region.update(nids[start : bisect_left(numbers, hi, start)])
        return region

    def region_entries(self, region: set[int]) -> set[int]:
        """Nodes in the region with a predecessor outside it (or none)."""
        result = set()
        for nid in region:
            preds = self.nodes[nid].preds
            if not preds or any(p not in region for p in preds):
                result.add(nid)
        return result

    def region_exit_targets(self, region: set[int]) -> set[int]:
        """Nodes *outside* the region that are successors of region nodes."""
        result = set()
        for nid in region:
            for succ in self.nodes[nid].succs:
                if succ not in region:
                    result.add(succ)
        return result

    def reverse_postorder(self) -> list[int]:
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            nid, idx = stack[-1]
            succs = self.nodes[nid].succs
            if idx < len(succs):
                stack[-1] = (nid, idx + 1)
                succ = succs[idx]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                order.append(nid)
        order.reverse()
        return order


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        # (break_targets, continue_targets) stacks: lists of node ids that
        # must be wired once the construct's join points are known.
        self.break_stack: list[list[int]] = []
        self.continue_stack: list[list[int]] = []

    def build(self) -> None:
        frontier = self._build_block(self.cfg.func.body, [self.cfg.entry])
        for nid in frontier:
            self.cfg.add_edge(nid, self.cfg.exit)

    # Each _build_* takes the list of current frontier nodes (whose control
    # falls through into the construct) and returns the new frontier.

    def _build_block(self, block: ast.Block, frontier: list[int]) -> list[int]:
        for stmt in block.stmts:
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _link(self, node: CFGNode, frontier: list[int]) -> None:
        for nid in frontier:
            self.cfg.add_edge(nid, node.nid)

    def _build_stmt(self, stmt: ast.Stmt, frontier: list[int]) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, (ast.DeclStmt, ast.ExprStmt)):
            node = cfg._new_node(STMT, stmt, stmt)
            self._link(node, frontier)
            return [node.nid]
        if isinstance(stmt, ast.Block):
            return self._build_block(stmt, frontier)
        if isinstance(stmt, ast.Return):
            node = cfg._new_node(STMT, stmt, stmt)
            self._link(node, frontier)
            cfg.add_edge(node.nid, cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = cfg._new_node(STMT, stmt, stmt)
            self._link(node, frontier)
            if not self.break_stack:
                raise AnalysisError("break outside of a loop")
            self.break_stack[-1].append(node.nid)
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg._new_node(STMT, stmt, stmt)
            self._link(node, frontier)
            if not self.continue_stack:
                raise AnalysisError("continue outside of a loop")
            self.continue_stack[-1].append(node.nid)
            return []
        if isinstance(stmt, ast.If):
            cond = cfg._new_node(COND, stmt.cond, stmt)
            self._link(cond, frontier)
            then_out = self._build_block(stmt.then, [cond.nid])
            if stmt.els is None:
                return then_out + [cond.nid]
            else_out = self._build_block(stmt.els, [cond.nid])
            return then_out + else_out
        if isinstance(stmt, ast.While):
            cond = cfg._new_node(COND, stmt.cond, stmt)
            self._link(cond, frontier)
            self.break_stack.append([])
            self.continue_stack.append([])
            body_out = self._build_block(stmt.body, [cond.nid])
            for nid in body_out + self.continue_stack.pop():
                cfg.add_edge(nid, cond.nid)
            return [cond.nid] + self.break_stack.pop()
        if isinstance(stmt, ast.DoWhile):
            self.break_stack.append([])
            self.continue_stack.append([])
            # A placeholder edge source for the back edge: build body first.
            body_in_marker = len(cfg.nodes)
            body_out = self._build_block(stmt.body, frontier)
            cond = cfg._new_node(COND, stmt.cond, stmt)
            for nid in body_out + self.continue_stack.pop():
                cfg.add_edge(nid, cond.nid)
            # back edge: cond -> first node created for the body (if any)
            if body_in_marker < cond.nid:
                cfg.add_edge(cond.nid, body_in_marker)
            return [cond.nid] + self.break_stack.pop()
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                init = cfg._new_node(STMT, stmt.init, stmt)
                self._link(init, frontier)
                frontier = [init.nid]
            if stmt.cond is not None:
                cond = cfg._new_node(COND, stmt.cond, stmt)
                self._link(cond, frontier)
                loop_head = cond.nid
                exits = [cond.nid]
            else:
                # no condition: synthesize an always-true condition node so
                # the loop structure stays uniform
                cond = cfg._new_node(COND, None, stmt)
                self._link(cond, frontier)
                loop_head = cond.nid
                exits = []
            self.break_stack.append([])
            self.continue_stack.append([])
            body_out = self._build_block(stmt.body, [loop_head])
            continues = self.continue_stack.pop()
            if stmt.step is not None:
                step = cfg._new_node(STEP, stmt.step, stmt)
                for nid in body_out + continues:
                    cfg.add_edge(nid, step.nid)
                cfg.add_edge(step.nid, loop_head)
            else:
                for nid in body_out + continues:
                    cfg.add_edge(nid, loop_head)
            return exits + self.break_stack.pop()
        raise AnalysisError(f"cannot build CFG for {type(stmt).__name__}")


def build_cfg(func: ast.Function, index: Optional[FunctionIndex] = None) -> CFG:
    """Build the control-flow graph of one function (``index``, the
    function's index, answers its region queries; built when needed)."""
    cfg = CFG(func, index)
    _Builder(cfg).build()
    return cfg

"""Code-coverage (invariance) analysis — section 2.4 of the paper.

"To identify whether a variable is invariant in the execution of the code
segment, our scheme performs a code coverage analysis to find all basic
blocks which are in the execution paths from the first execution instance
to the last execution instance of the code segment.  If the variable
remains unchanged in all these basic blocks, then it is invariant for the
code segment."

Two granularities are provided:

* :func:`invariant_globals` — program-wide: globals no function ever
  modifies (pointer-aware via MOD/REF).  This refines the syntactic
  constancy from semantic analysis: an array passed to a function that
  only *reads* it (the ``power2``/``table`` case in ``quan``) is
  invariant here even though it escapes syntactically.
* :class:`BetweenExecutions` — intra-function: the CFG nodes that can
  execute between two dynamic instances of a segment (paths from a region
  exit back to a region entry), and the symbols unchanged on all of them.
"""

from __future__ import annotations

from collections import deque

from ..minic import astnodes as ast
from ..ir.cfg import CFG
from .modref import ModRef
from .usedef import UseDefExtractor


def invariant_globals(program: ast.Program, modref: ModRef) -> frozenset:
    """Global symbols never modified by any function (after initialization)."""
    modified = modref.modified_anywhere()
    result = set()
    for g in program.globals:
        symbol = g.decl.symbol
        if symbol is not None and symbol not in modified:
            result.add(symbol)
    return frozenset(result)


class BetweenExecutions:
    """The set of CFG nodes on execution paths between two instances of a
    region, and invariance queries over it."""

    def __init__(self, cfg: CFG, region: set[int], extractor: UseDefExtractor) -> None:
        self.cfg = cfg
        self.region = region
        self.extractor = extractor
        self.between = self._between_nodes()

    def _between_nodes(self) -> set[int]:
        entries = self.cfg.region_entries(self.region)
        exits = self.cfg.region_exit_targets(self.region)
        # forward reachability from exit targets, stopping at region entries
        forward: set[int] = set()
        work = deque(exits)
        while work:
            nid = work.popleft()
            if nid in forward:
                continue
            forward.add(nid)
            if nid in entries:
                continue  # re-entering the region ends the "between" path
            for succ in self.cfg.node(nid).succs:
                if succ not in self.region:
                    work.append(succ)
                else:
                    forward.add(succ)  # boundary marker; filtered below
        # backward reachability from region entries
        backward: set[int] = set()
        work = deque(entries)
        while work:
            nid = work.popleft()
            for pred in self.cfg.node(nid).preds:
                if pred in backward or pred in self.region:
                    continue
                backward.add(pred)
                work.append(pred)
        return (forward & backward) - self.region

    def modifies(self, symbol: ast.Symbol) -> bool:
        """May any between-executions node modify ``symbol``?"""
        for nid in self.between:
            node = self.cfg.node(nid)
            if node.ast_node is None:
                continue
            if isinstance(node.ast_node, ast.Stmt):
                ud = self.extractor.of_stmt(node.ast_node)
            else:
                ud = self.extractor.of_expr(node.ast_node)
            if symbol in ud.defs or symbol in ud.weak_defs:
                return True
        return False

"""One structural index over every function body of a program.

The static half of a compile asks the same questions of the same trees
many times: which calls, assignments, declarations and conditions a
function holds, which function owns a node, and whether a node lies
inside a region.  :class:`ProgramIndex` answers all of them from a single
:func:`~repro.minic.astnodes.walk` per function body:

* every node gets its ``walk`` pre-order number and the end of its
  subtree's number range, so "is X inside R" is an interval test and
  "the calls inside R" is a slice of the function's call bucket;
* every node's owning :class:`FunctionIndex` is the one numbering it;
* per-class buckets (``calls``, ``assigns``, ``decls``, ``conds``, ...)
  list their nodes in walk pre-order.  Consumers rely on that order: the
  points-to analysis creates its union-find cells in visit order, and the
  first I/O call of a region names its rejection reason.

Each :class:`FunctionIndex` also carries ``facts``, the per-function
results that depend on its body alone (sema's written/escaped globals and
the CFG).  :meth:`ProgramIndex.refresh` re-walks a function whose body was
created or rewritten and so drops exactly that function's facts.  Facts
that read interprocedural state (mod/ref, liveness) are not kept: they are
recomputed with it.

The structure reads no symbols, so the index may be built before semantic
analysis.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from . import astnodes as ast
from .astnodes import _child_slots

# node class -> the buckets it is listed in
_BUCKETS_OF: dict[type, tuple[str, ...]] = {
    ast.Call: ("calls", "constraints"),
    ast.Assign: ("assigns", "constraints"),
    ast.DeclStmt: ("decls", "stmts", "constraints"),
    ast.Return: ("stmts", "constraints"),
    ast.ExprStmt: ("stmts",),
    ast.If: ("conds",),
    ast.While: ("conds",),
    ast.DoWhile: ("conds",),
    ast.For: ("conds",),
    ast.IncDec: ("incdecs",),
    ast.Unary: ("unaries",),
    ast.Break: ("breaks",),
}
BUCKETS = tuple(sorted({name for names in _BUCKETS_OF.values() for name in names}))


class FunctionIndex:
    """One function body in ``walk`` pre-order.

    ``pos`` maps ``id(node)`` to the node's pre-order number ``i``, and
    ``end[i]`` is one past the last number of its subtree.
    ``numbers[name]`` holds the pre-order numbers of a bucket's nodes
    (ascending), ``buckets[name]`` the nodes themselves.

    Region membership is answered here and nowhere else: :meth:`spans`
    turns a region root into number ranges, which :meth:`contains`,
    :meth:`within` and :meth:`repro.ir.cfg.CFG.nodes_in_region` read.
    """

    __slots__ = ("fn", "pos", "end", "numbers", "buckets", "facts")

    def __init__(self, fn: ast.Function) -> None:
        self.fn = fn
        nodes: list[ast.Node] = []
        pos: dict[int, int] = {}
        parent_at: dict[int, int] = {}
        parent: list[int] = []
        numbers: dict[str, list[int]] = {name: [] for name in BUCKETS}
        slots = ast._CHILD_SLOTS
        for node in ast.walk(fn.body):
            i = len(nodes)
            nodes.append(node)
            key = id(node)
            pos[key] = i
            parent.append(parent_at.pop(key, -1))
            cls = type(node)
            for name in _BUCKETS_OF.get(cls, ()):
                numbers[name].append(i)
            for name in (slots.get(cls) or _child_slots(cls))[0]:
                value = getattr(node, name)
                if isinstance(value, ast.Node):
                    parent_at[id(value)] = i
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.Node):
                            parent_at[id(item)] = i
        end = list(range(1, len(nodes) + 1))
        for i in range(len(nodes) - 1, 0, -1):
            p = parent[i]
            if end[i] > end[p]:
                end[p] = end[i]
        self.pos = pos
        self.end = end
        self.numbers = numbers
        self.buckets = {name: [nodes[i] for i in at] for name, at in numbers.items()}
        self.facts: dict[str, object] = {}

    def bucket(self, name: str) -> list:
        """The bucket's nodes in walk pre-order (shared: do not mutate)."""
        return self.buckets[name]

    def spans(self, root: ast.Node) -> list[tuple[int, int]]:
        """The pre-order number ranges ``[lo, hi)`` of ``root``'s
        subtree, in walk order.  A root outside the body (a detached block
        wrapping in-tree statements) covers its children's ranges."""
        lo = self.pos.get(id(root))
        if lo is not None:
            return [(lo, self.end[lo])]
        return [span for child in root.children() for span in self.spans(child)]

    def contains(self, root: ast.Node, node: ast.Node) -> bool:
        """Whether ``node`` lies in ``root``'s subtree (inclusive)."""
        at = self.pos.get(id(node))
        return at is not None and any(lo <= at < hi for lo, hi in self.spans(root))

    def within(self, root: ast.Node, name: str) -> list:
        """The bucket's nodes inside ``root``'s subtree, in pre-order."""
        numbers = self.numbers[name]
        bucket = self.buckets[name]
        found: list = []
        for lo, hi in self.spans(root):
            start = bisect_left(numbers, lo)
            found += bucket[start : bisect_left(numbers, hi, start)]
        return found


class ProgramIndex:
    """The :class:`FunctionIndex` of every function of one program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self._functions = {fn.name: FunctionIndex(fn) for fn in program.functions}

    def refresh(self, names: Iterable[str]) -> None:
        """Re-index the named functions (new or rewritten bodies), which
        drops their facts; every other function keeps its entry."""
        for name in dict.fromkeys(names):
            self._functions[name] = FunctionIndex(self.program.function(name))

    def __iter__(self) -> Iterator[FunctionIndex]:
        return iter(self._functions.values())

    def function(self, name: str) -> FunctionIndex:
        return self._functions[name]

    def owner(self, node: ast.Node) -> Optional[FunctionIndex]:
        """The :class:`FunctionIndex` whose body holds ``node``, or None."""
        key = id(node)
        for entry in self._functions.values():
            if key in entry.pos:
                return entry
        return None

"""Candidate code-segment identification.

"We confine the candidate code segment to a function body, a loop body,
or an IF branch."  This module enumerates those regions, runs the
input/output analyses on each, and applies the *feasibility* checks that
a sound source-to-source memoization needs:

* loop-body and IF-branch segments must not be escaped by ``break`` /
  ``continue`` / ``return`` (the commit stub must post-dominate the body);
* segments must not perform I/O (directly or transitively) — replaying a
  table lookup would drop the side effect;
* every input/output must have a bounded shape (scalars and fixed-size
  arrays; pointers resolve through points-to);
* an output that is not *must-defined* on every path through the region
  is also registered as an input: its exit value then depends on its
  entry value, so it must participate in the hash key for the memo to be
  a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..minic import astnodes as ast
from ..minic.index import FunctionIndex, ProgramIndex
from ..minic.types import FLOAT, VOID
from ..ir.callgraph import CallGraph
from ..ir.cfg import CFG, build_cfg
from ..analysis.arrays import IOShape, shape_of
from ..analysis.coverage import invariant_globals
from ..analysis.liveness import Liveness, function_exit_live
from ..analysis.modref import ModRef
from ..analysis.pointer import PointsTo
from ..analysis.upward import segment_inputs
from ..analysis.usedef import UseDefExtractor

# Builtins whose calls make a segment non-memoizable.
_IO_BUILTINS = frozenset(
    {
        "__input_int",
        "__input_float",
        "__input_avail",
        "__output_int",
        "__output_float",
        "__print_int",
    }
)


class ProgramAnalysis:
    """All whole-program analysis artifacts the reuse pipeline needs.

    Built over one :class:`~repro.minic.index.ProgramIndex` per compile
    (built here when not given).  Each function's CFG depends on its body
    alone and is kept on its index entry, so :meth:`refresh`, after a
    pass re-indexed and re-resolved the functions it created or rewrote,
    rebuilds only their CFGs; every other fact is recomputed.
    """

    def __init__(self, program: ast.Program, index: Optional[ProgramIndex] = None) -> None:
        self.program = program
        self.index = index if index is not None else ProgramIndex(program)
        self.refresh()

    def refresh(self) -> None:
        """(Re-)solve every fact over the index's current functions."""
        program = self.program
        index = self.index
        self.points_to = PointsTo(program, index)
        self.modref = ModRef(program, self.points_to, index)
        self.callgraph = CallGraph(program, self.points_to, index)
        self.global_symbols = {
            g.decl.symbol for g in program.globals if g.decl.symbol is not None
        }
        self.extractor = UseDefExtractor(
            self.points_to, modref=self.modref, global_symbols=self.global_symbols
        )
        self.invariants = invariant_globals(program, self.modref)
        const_globals = frozenset(s for s in self.global_symbols if s.is_const)
        self.invariants = self.invariants | const_globals
        self.cfgs: dict[str, CFG] = {}
        self.liveness: dict[str, Liveness] = {}
        for fn in program.functions:
            entry = index.function(fn.name)
            cfg = entry.facts.get("cfg")
            if cfg is None:
                cfg = entry.facts["cfg"] = build_cfg(fn, entry)
            self.cfgs[fn.name] = cfg
            exit_live = function_exit_live(fn, program, self.points_to)
            self.liveness[fn.name] = Liveness(cfg, self.extractor, exit_live)
        self.io_functions = self._io_functions()

    def release_facts(self) -> None:
        """Free the per-function facts (CFGs, sema's global effects) and
        the liveness once no stage will refresh the analysis or analyze a
        segment; the index, call graph and points-to stay for nesting and
        the transformation."""
        for entry in self.index:
            entry.facts.clear()
        self.cfgs = {}
        self.liveness = {}

    def _io_functions(self) -> set[str]:
        """Functions that may perform I/O, directly or transitively."""
        direct: set[str] = set()
        for fn in self.program.functions:
            for node in self.index.function(fn.name).bucket("calls"):
                if isinstance(node.func, ast.Name):
                    if node.func.symbol is None and node.func.name in _IO_BUILTINS:
                        direct.add(fn.name)
                        break
        # transitive closure over the call graph
        result = set(direct)
        changed = True
        while changed:
            changed = False
            for caller, callees in self.callgraph.edges.items():
                if caller not in result and callees & result:
                    result.add(caller)
                    changed = True
        return result


@dataclass
class Segment:
    """One candidate code segment and everything the scheme learns about it."""

    seg_id: int
    kind: str  # "function" | "loop" | "if-branch"
    func_name: str
    region_root: ast.Block
    control: ast.Node  # the Function / loop stmt / If stmt
    inputs: list[IOShape] = field(default_factory=list)
    outputs: list[IOShape] = field(default_factory=list)
    has_retval: bool = False
    retval_is_float: bool = False
    feasible: bool = True
    reject_reason: str = ""
    # cost-model quantities (cycles); filled by granularity / hashing-cost
    static_granularity: float = 0.0
    overhead: float = 0.0
    # profiling results
    executions: int = 0
    distinct_inputs: int = 0
    reuse_rate: float = 0.0
    measured_granularity: float = 0.0
    # selection results
    gain: float = 0.0
    selected: bool = False
    merged_group: Optional[str] = None

    @property
    def in_words(self) -> int:
        return sum(s.words for s in self.inputs)

    @property
    def out_words(self) -> int:
        return sum(s.words for s in self.outputs) + (1 if self.has_retval else 0)

    def describe(self) -> str:
        ins = ", ".join(s.symbol.name for s in self.inputs)
        outs = ", ".join(s.symbol.name for s in self.outputs)
        if self.has_retval:
            outs = (outs + ", " if outs else "") + "<retval>"
        return f"[{self.seg_id}] {self.kind} in {self.func_name}: in({ins}) out({outs})"


def _region_escapes(region_root: ast.Block) -> bool:
    """True if a break/continue/return inside the region can leave it."""

    def visit(stmt: ast.Stmt, loop_depth: int) -> bool:
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return loop_depth == 0
        if isinstance(stmt, ast.Block):
            return any(visit(s, loop_depth) for s in stmt.stmts)
        if isinstance(stmt, ast.If):
            if visit(stmt.then, loop_depth):
                return True
            return stmt.els is not None and visit(stmt.els, loop_depth)
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            return visit(stmt.body, loop_depth + 1)
        if isinstance(stmt, ast.For):
            return visit(stmt.body, loop_depth + 1)
        return False

    return any(visit(s, 0) for s in region_root.stmts)


def _calls_in(region_root: ast.Node, entry: FunctionIndex) -> list[str]:
    """Names called in the region, deduplicated, in ``ast.walk`` order (so
    a rejection reason never depends on set iteration order)."""
    names: dict[str, None] = {}
    for node in entry.within(region_root, "calls"):
        if isinstance(node.func, ast.Name):
            names[node.func.name] = None
    return list(names)


def _must_defined_at_exit(cfg: CFG, region: set[int], use_defs) -> frozenset:
    """Symbols strongly defined on *every* path through the region."""
    defs: dict[int, frozenset] = {}
    for nid in region:
        node = cfg.node(nid)
        if node.ast_node is None:
            defs[nid] = frozenset()
        elif isinstance(node.ast_node, ast.Stmt):
            defs[nid] = frozenset(use_defs.of_stmt(node.ast_node).defs)
        else:
            defs[nid] = frozenset(use_defs.of_expr(node.ast_node).defs)

    entries = cfg.region_entries(region)
    # forward, intersection meet; initialize to "all" (top)
    all_syms = frozenset().union(*defs.values()) if defs else frozenset()
    md_out: dict[int, frozenset] = {nid: all_syms for nid in region}
    from collections import deque

    worklist = deque(region)
    queued = set(region)
    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.node(nid)
        region_preds = [p for p in node.preds if p in region]
        if nid in entries:
            md_in = frozenset()
        elif region_preds:
            md_in = md_out[region_preds[0]]
            for p in region_preds[1:]:
                md_in = md_in & md_out[p]
        else:
            md_in = frozenset()
        new_out = md_in | defs[nid]
        if new_out != md_out[nid]:
            md_out[nid] = new_out
            for succ in node.succs:
                if succ in region and succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)

    exits = [nid for nid in region if any(s not in region for s in cfg.node(nid).succs)]
    if not exits:
        return frozenset()
    result = md_out[exits[0]]
    for nid in exits[1:]:
        result = result & md_out[nid]
    return result


def _io_sort_key(shape: IOShape) -> tuple:
    order = {"param": 0, "local": 1, "global": 2}
    return (order.get(shape.symbol.kind, 3), shape.symbol.slot, shape.symbol.name)


def _analyze_segment(segment: Segment, analysis: ProgramAnalysis) -> None:
    fn_name = segment.func_name
    cfg = analysis.cfgs[fn_name]
    region = cfg.nodes_in_region(segment.region_root)
    if not region:
        segment.feasible = False
        segment.reject_reason = "empty region"
        return

    # escape / I/O checks -------------------------------------------------
    if segment.kind != "function" and _region_escapes(segment.region_root):
        segment.feasible = False
        segment.reject_reason = "break/continue/return escapes the region"
        return
    called = _calls_in(segment.region_root, analysis.index.function(fn_name))
    for name in called:
        if name in _IO_BUILTINS:
            segment.feasible = False
            segment.reject_reason = f"performs I/O ({name})"
            return
        if name.startswith("__reuse"):
            segment.feasible = False
            segment.reject_reason = "already transformed"
            return
        if name in analysis.io_functions:
            segment.feasible = False
            segment.reject_reason = f"calls I/O function {name}"
            return

    # inputs ------------------------------------------------------------------
    live = analysis.liveness[fn_name]
    input_syms = segment_inputs(cfg, region, live.use_defs, analysis.invariants)
    output_syms = set(live.region_outputs(region))

    # outputs not must-defined also become inputs (their entry value
    # affects their exit value)
    must = _must_defined_at_exit(cfg, region, live.use_defs)
    extra_inputs = {s for s in output_syms if s not in must}
    input_syms = frozenset(input_syms | extra_inputs)

    # Deduplicate: when a pointer input has a single pointee that is also
    # in the input set, hashing the contents through the pointer already
    # covers the pointee — drop the duplicate (quan's table/power2 case).
    for symbol in list(input_syms):
        if symbol.type.is_pointer:
            pointees = analysis.points_to.pointees(symbol)
            if len(pointees) == 1:
                input_syms = input_syms - pointees

    fn = analysis.program.function(fn_name)
    if segment.kind == "function" and fn.ret_type != VOID:
        segment.has_retval = True
        segment.retval_is_float = fn.ret_type == FLOAT

    shapes_in: list[IOShape] = []
    for symbol in sorted(input_syms, key=lambda s: (s.kind, s.slot, s.name)):
        shape = shape_of(symbol, analysis.points_to)
        if shape is None:
            segment.feasible = False
            segment.reject_reason = f"input {symbol.name} has unbounded shape"
            return
        shapes_in.append(shape)
    shapes_out: list[IOShape] = []
    for symbol in sorted(output_syms, key=lambda s: (s.kind, s.slot, s.name)):
        shape = shape_of(symbol, analysis.points_to)
        if shape is None:
            segment.feasible = False
            segment.reject_reason = f"output {symbol.name} has unbounded shape"
            return
        shapes_out.append(shape)

    shapes_in.sort(key=_io_sort_key)
    shapes_out.sort(key=_io_sort_key)
    segment.inputs = shapes_in
    segment.outputs = shapes_out

    if not segment.inputs:
        segment.feasible = False
        segment.reject_reason = "no inputs (nothing to key on)"
        return
    if not segment.outputs and not segment.has_retval:
        segment.feasible = False
        segment.reject_reason = "no outputs"
        return


def enumerate_segments(analysis: ProgramAnalysis) -> list[Segment]:
    """All candidate segments of the program, analyzed and feasibility
    checked.  Infeasible segments are kept (with reasons) for reporting —
    they are the "analyzed" population of Table 4."""
    segments: list[Segment] = []
    next_id = [0]

    def new_segment(kind: str, fn: ast.Function, region: ast.Block, control) -> None:
        segment = Segment(
            seg_id=next_id[0],
            kind=kind,
            func_name=fn.name,
            region_root=region,
            control=control,
        )
        next_id[0] += 1
        _analyze_segment(segment, analysis)
        segments.append(segment)

    for fn in analysis.program.functions:
        if fn.name == "main":
            # main's body runs once; the paper profiles routines and loops
            # *inside* the program, and memoizing main is meaningless.
            pass
        else:
            new_segment("function", fn, fn.body, fn)
        for node in analysis.index.function(fn.name).bucket("conds"):
            if isinstance(node, (ast.While, ast.DoWhile, ast.For)):
                new_segment("loop", fn, node.body, node)
            elif isinstance(node, ast.If):
                new_segment("if-branch", fn, node.then, node)
                if node.els is not None:
                    new_segment("if-branch", fn, node.els, node)
    return segments

"""Sub-segment candidates — the paper's future-work extension (§5).

"Most important of all, a candidate code segment can be a part of a loop
body, a function body, or an IF branch, instead of the entire body.  How
to identify the most cost-effective part remains our future work."

This module implements that extension: when a body is disqualified as a
whole (it performs I/O, or a ``break``/``continue``/``return`` escapes
it), we search its statement list for maximal *clean runs* — contiguous
statements that

* contain no escaping control flow and no I/O,
* declare no variable that is referenced after the run (wrapping the run
  in a block must not change scoping).

Each qualifying run is wrapped in a (semantically transparent) nested
block, which then goes through the standard segment machinery —
input/output analysis, cost estimates, profiling, cost-benefit test, and
the Figure 2(b) transformation — exactly like a first-class candidate.

Disabled by default (``PipelineConfig.enable_subsegments``); it is an
extension beyond the published scheme.
"""

from __future__ import annotations

from ..minic import astnodes as ast
from ..minic.index import FunctionIndex
from .hashing_cost import hashing_overhead
from .segments import (
    ProgramAnalysis,
    Segment,
    _analyze_segment,
    _calls_in,
    _region_escapes,
    _IO_BUILTINS,
)


def _stmt_is_clean(stmt: ast.Stmt, entry: FunctionIndex, analysis: ProgramAnalysis) -> bool:
    """No escaping control flow, no I/O, not already instrumented."""
    if _region_escapes(ast.Block(stmts=[stmt])):
        return False
    for name in _calls_in(stmt, entry):
        if name in _IO_BUILTINS or name.startswith("__reuse"):
            return False
        if name in analysis.io_functions:
            return False
    return True


def _declared_symbols(stmt: ast.Stmt) -> set:
    symbols = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.VarDecl) and node.symbol is not None:
            symbols.add(node.symbol)
    return symbols


def _symbols_read(stmts: list[ast.Stmt]) -> set:
    symbols = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.symbol is not None:
                symbols.add(node.symbol)
    return symbols


def _candidate_ranges(block: ast.Block, func_name: str, analysis: ProgramAnalysis):
    """Yield every (start, end) sub-range of clean statements whose
    declarations do not leak past the range (wrapping stays scope-safe).
    Proper sub-ranges only."""
    n = len(block.stmts)
    entry = analysis.index.function(func_name)
    clean = [_stmt_is_clean(s, entry, analysis) for s in block.stmts]
    for start in range(n):
        if not clean[start]:
            continue
        declared: set = set()
        for end in range(start, n):
            if not clean[end]:
                break
            if start == 0 and end == n - 1:
                continue  # the whole block is the existing candidate
            declared |= _declared_symbols(block.stmts[end])
            if declared & _symbols_read(block.stmts[end + 1 :]):
                continue  # a declaration would leak out of the wrapper
            yield (start, end)


def _substantial(stmts: list[ast.Stmt]) -> bool:
    """Worth considering: contains a loop, or several statements."""
    if len(stmts) >= 3:
        return True
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.While, ast.DoWhile)):
                return True
    return False


def _score_range(
    block: ast.Block,
    start: int,
    end: int,
    analysis: ProgramAnalysis,
    granularity,
    segment: Segment,
    scratch_id: int,
) -> tuple[float, Segment] | None:
    """Evaluate one candidate range without mutating the tree.

    A detached block referencing the in-tree statements is enough for the
    region analyses (membership is by statement identity).  The score is
    the static cost-effectiveness C/O — 'the most cost-effective part'."""
    stmts = block.stmts[start : end + 1]
    if not _substantial(stmts):
        return None
    probe_block = ast.Block(stmts=stmts, line=stmts[0].line)
    candidate = Segment(
        seg_id=scratch_id,
        kind="sub-block",
        func_name=segment.func_name,
        region_root=probe_block,
        control=segment.control,
    )
    _analyze_segment(candidate, analysis)
    if not candidate.feasible:
        return None
    # Accumulator rejection: a symbol that is both input and output of
    # the range carries state from one body iteration to the next unless
    # the statements *before* the range freshly (strongly) define it —
    # such carried state makes the hash key effectively unique and the
    # memo useless (e.g. `checksum += ...` inside the range).
    in_syms = {shape.symbol for shape in candidate.inputs}
    out_syms = {shape.symbol for shape in candidate.outputs}
    carried = in_syms & out_syms
    if carried:
        defined_before: set = set()
        for stmt in block.stmts[:start]:
            defined_before |= analysis.extractor.of_stmt(stmt).defs
        if carried - defined_before:
            return None
    c = granularity.region_cycles(probe_block)
    overhead = hashing_overhead(candidate)
    if overhead <= 0 or c / overhead <= 1.0:
        return None
    candidate.static_granularity = c
    candidate.overhead = overhead
    return (c / overhead, candidate)


def enumerate_subsegments(
    analysis: ProgramAnalysis,
    segments: list[Segment],
    next_id: int,
    granularity=None,
) -> list[Segment]:
    """Find sub-block candidates inside bodies that failed as a whole.

    ``segments`` is the list from :func:`enumerate_segments`; only bodies
    whose segment was rejected for escapes or I/O are searched.  For each
    such body, every clean scope-safe sub-range is scored by its static
    cost-effectiveness ``C/O`` and the best one becomes a candidate (the
    range is wrapped in a behaviour-neutral nested block).
    """
    if granularity is None:
        from .granularity import GranularityAnalysis

        granularity = GranularityAnalysis(analysis.program, index=analysis.index)
    new_segments: list[Segment] = []
    for segment in segments:
        if segment.feasible:
            continue
        reason = segment.reject_reason
        if "escape" not in reason and "I/O" not in reason:
            continue
        block = segment.region_root
        best: tuple[float, Segment, int, int] | None = None
        for start, end in _candidate_ranges(block, segment.func_name, analysis):
            scored = _score_range(
                block, start, end, analysis, granularity, segment, next_id
            )
            if scored is None:
                continue
            score, candidate = scored
            if best is None or score > best[0]:
                best = (score, candidate, start, end)
        if best is None:
            continue
        _, candidate, start, end = best
        wrapper = candidate.region_root
        block.stmts[start : end + 1] = [wrapper]
        candidate.seg_id = next_id
        next_id += 1
        new_segments.append(candidate)
    return new_segments

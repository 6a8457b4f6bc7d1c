"""The compile's one analysis index, and the refresh after specialization.

After ``quan`` is specialized, the pipeline resolves only the clone and
the rewritten call sites, re-indexes only those functions and rebuilds
only their CFGs; every other fact is recomputed over the kept index.
Every fact of that refreshed analysis must equal a from-scratch
``analyze`` + ``ProgramAnalysis`` of a deep copy of the specialized
program.  Facts are compared by function and symbol name, since the copy
has its own Symbol objects.

The structural tests pin the index's contract: building it walks each
function body exactly once, and the static stages walk no body except to
(re)index it or to rewrite a clone the specializer has just made.
"""

import copy

import pytest

from repro.minic import astnodes as ast
from repro.minic import index as index_module
from repro.minic.index import ProgramIndex
from repro.minic.parser import parse_program
from repro.minic.sema import analyze
from repro.obs import get_tracer
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.reuse.segments import ProgramAnalysis
from repro.workloads.registry import ALL_WORKLOADS, get_workload


def _key(symbol):
    return (symbol.kind, symbol.func_name, symbol.name, symbol.slot)


def _keys(symbols):
    return sorted(_key(s) for s in symbols)


def _symbols(program):
    """Every variable symbol, globals first, then each function's
    parameters and locals in declaration order."""
    found = [g.decl.symbol for g in program.globals]
    for fn in program.functions:
        found += [p.symbol for p in fn.params]
        found += [d.symbol for d in ast.walk(fn.body) if isinstance(d, ast.VarDecl)]
    return found


def facts(program, analysis):
    points_to = analysis.points_to
    record = {
        "pointees": {_key(s): _keys(points_to.pointees(s)) for s in _symbols(program)},
        "is_const": {g.decl.name: g.decl.symbol.is_const for g in program.globals},
        "invariants": _keys(analysis.invariants),
        "io_functions": sorted(analysis.io_functions),
        "callgraph": {name: sorted(e) for name, e in analysis.callgraph.edges.items()},
    }
    for fn in program.functions:
        calls = [n for n in ast.walk(fn.body) if isinstance(n, ast.Call)]
        mod, ref = analysis.modref.summary(fn.name)
        live = analysis.liveness[fn.name]
        cfg = analysis.cfgs[fn.name]
        regions = [fn.body]
        for node in ast.walk(fn.body):
            if isinstance(node, (ast.While, ast.DoWhile, ast.For)):
                regions.append(node.body)
            elif isinstance(node, ast.If):
                regions += [node.then] + ([node.els] if node.els is not None else [])
        record[fn.name] = {
            "call_targets": [sorted(points_to.call_targets(c)) for c in calls],
            "mod": _keys(mod),
            "ref": _keys(ref),
            "live_in": [_keys(live.live_in(n.nid)) for n in cfg],
            "live_out": [_keys(live.live_out(n.nid)) for n in cfg],
            "region_exits": [
                _keys(live.live_at_region_exit(cfg.nodes_in_region(r))) for r in regions
            ],
        }
    return record


def _specialized(name, opt):
    workload = get_workload(name)
    config = PipelineConfig(opt_level=opt, min_executions=workload.min_executions)
    program, analysis, _, _, records = ReusePipeline(workload.source, config)._analyze(
        get_tracer()
    )
    return program, analysis, records


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize("name", ["G721_encode", "G721_decode"])
def test_refresh_equals_rebuild(name, opt):
    program, analysis, records = _specialized(name, opt)
    assert [r.specialized for r in records] == ["quan__s0"]
    rebuilt = analyze(copy.deepcopy(program))
    assert facts(program, analysis) == facts(rebuilt, ProgramAnalysis(rebuilt))


def test_specialization_makes_the_bound_array_constant():
    # the rewritten call sites no longer pass power2, so it no longer
    # escapes: constness is re-derived, not carried over
    program, _, records = _specialized("G721_encode", "O0")
    bound = {b.global_name for r in records for b in r.bindings if b.kind == "global"}
    assert bound
    for name in bound:
        assert program.global_var(name).decl.symbol.is_const


def test_refresh_keeps_untouched_symbols():
    workload = get_workload("G721_encode")
    pipeline = ReusePipeline(workload.source, PipelineConfig())
    before = {}
    fresh_program = pipeline._fresh_program

    def spy():
        program, index = fresh_program()
        before.update((id(s), s) for s in _symbols(program))
        before.update((id(fn.symbol), fn.symbol) for fn in program.functions)
        return program, index

    pipeline._fresh_program = spy
    program, _, _, _, records = pipeline._analyze(get_tracer())
    clones = {r.specialized for r in records}
    for fn in program.functions:
        assert (id(fn.symbol) in before) == (fn.name not in clones)
    for g in program.globals:
        assert id(g.decl.symbol) in before


def _count_walks(monkeypatch):
    """Record every ``walk`` root, and whether an index build made it."""
    walks = []
    building = []
    walk = ast.walk

    def counting_walk(node):
        walks.append((node, bool(building)))
        return walk(node)

    init = index_module.FunctionIndex.__init__

    def counting_init(self, fn):
        building.append(fn)
        try:
            init(self, fn)
        finally:
            building.pop()

    monkeypatch.setattr(ast, "walk", counting_walk)
    monkeypatch.setattr(index_module.FunctionIndex, "__init__", counting_init)
    return walks


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_index_walks_each_body_once(monkeypatch, workload):
    program = parse_program(workload.source)
    walks = _count_walks(monkeypatch)
    ProgramIndex(program)
    assert [node for node, _ in walks] == [fn.body for fn in program.functions]


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_static_stages_walk_only_to_index(monkeypatch, workload):
    walks = _count_walks(monkeypatch)
    pipeline = ReusePipeline(
        workload.source, PipelineConfig(min_executions=workload.min_executions)
    )
    program, _, _, _, records = pipeline._analyze(get_tracer())
    # the specializer rewrites each clone's fresh body with one walk of
    # its own before indexing it; no other walk is made outside an index
    clones = {id(program.function(r.specialized).body) for r in records}
    assert walks and all(by_index or id(node) in clones for node, by_index in walks)
    bodies = {id(fn.body) for fn in program.functions}
    assert all(id(node) in bodies for node, _ in walks)
    # one walk per body, plus one per re-index of a body that a pass
    # rewrote (cleanup's hoists, specialization's call sites and clones),
    # plus the clones' substitution walks
    assert len(walks) <= 2 * len(program.functions) + 2 * len(records)

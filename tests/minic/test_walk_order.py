"""``walk`` and ``Node.children`` read per-class child slots.

They must yield exactly what a walker over ``dataclasses.fields`` yields,
in the same order, on every tree the pipeline builds: the analyzed
program, the program instrumented for value profiling, and the
transformed program.  The reference walker is kept here on purpose.
"""

import copy
import dataclasses

import pytest

from repro.minic import astnodes as ast
from repro.minic.parser import parse_program
from repro.minic.sema import analyze
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
from repro.runtime.governor import GovernorPolicy
from repro.workloads.registry import ALL_WORKLOADS


def reference_children(node):
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def reference_walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(reference_children(current))))


def _assert_same_walk(tree):
    got = list(ast.walk(tree))
    want = list(reference_walk(tree))
    assert len(got) == len(want) > 1
    assert all(a is b for a, b in zip(got, want))
    for node in want:
        kids = list(node.children())
        ref = list(reference_children(node))
        assert len(kids) == len(ref)
        assert all(a is b for a, b in zip(kids, ref))


def _pipeline_trees(monkeypatch, workload):
    instrumented = []
    profile_once = ReusePipeline._profiling_run

    def spy(self, program, inputs):
        instrumented.append(copy.deepcopy(program))
        return profile_once(self, program, inputs)

    monkeypatch.setattr(ReusePipeline, "_profiling_run", spy)
    config = PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
        governor=workload.governor or GovernorPolicy(),
    )
    result = ReusePipeline(workload.source, config).run(
        workload.default_inputs()[:1024]
    )
    return instrumented[0], result.program


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_walk_matches_dataclass_fields(monkeypatch, workload):
    _assert_same_walk(analyze(parse_program(workload.source)))
    instrumented, transformed = _pipeline_trees(monkeypatch, workload)
    _assert_same_walk(instrumented)
    _assert_same_walk(transformed)


def test_walk_reads_children_after_yield():
    tree = analyze(parse_program("int main(void) { int x = 1; return x; }"))
    seen = []
    for node in ast.walk(tree):
        seen.append(type(node).__name__)
        if isinstance(node, ast.Return):
            node.value = ast.IntLit(value=7)
    assert seen[-1] == "IntLit"
    assert tree.functions[0].body.stmts[-1].value.value == 7


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_node_class_is_a_dataclass():
    classes = set(_subclasses(ast.Node))
    assert len(classes) > 20
    for cls in classes:
        assert dataclasses.is_dataclass(cls), cls.__name__

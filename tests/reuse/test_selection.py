"""Tests for nesting-graph selection, specialization, merging, and the
end-to-end pipeline."""

import pytest

from repro.minic import format_program, frontend
from repro.reuse import (
    NestingGraph,
    PipelineConfig,
    ReusePipeline,
    Specializer,
    merge_groups,
)
from repro.reuse.segments import ProgramAnalysis, Segment, enumerate_segments
from repro.runtime import Machine, compile_program
from repro.runtime.hashtable import entry_words, table_bytes


def _make_segment(seg_id, kind, func, region, control, gain, execs):
    segment = Segment(
        seg_id=seg_id, kind=kind, func_name=func, region_root=region, control=control
    )
    segment.gain = gain
    segment.executions = execs
    return segment


class TestNestingGraph:
    SRC = """
    int inner(int x) {
        int r = 0;
        for (int i = 0; i < 10; i++)
            r += x * i;
        return r;
    }
    int outer(int y) {
        int s = 0;
        s += inner(y);
        s += inner(y + 1);
        return s;
    }
    int main(void) {
        int t = 0;
        while (__input_avail())
            t += outer(__input_int());
        return t;
    }
    """

    def _segments(self):
        program = frontend(self.SRC)
        analysis = ProgramAnalysis(program)
        segments = [s for s in enumerate_segments(analysis) if s.feasible]
        return segments, analysis

    def test_interprocedural_edge(self):
        segments, analysis = self._segments()
        outer = next(s for s in segments if s.func_name == "outer" and s.kind == "function")
        inner = next(s for s in segments if s.func_name == "inner" and s.kind == "function")
        outer.gain, outer.executions = 100.0, 10
        inner.gain, inner.executions = 10.0, 20
        graph = NestingGraph([outer, inner], analysis)
        assert inner.seg_id in graph.edges[outer.seg_id]
        assert outer.seg_id not in graph.edges[inner.seg_id]

    def test_outer_selected_when_gain_dominates(self):
        segments, analysis = self._segments()
        outer = next(s for s in segments if s.func_name == "outer" and s.kind == "function")
        inner = next(s for s in segments if s.func_name == "inner" and s.kind == "function")
        outer.gain, outer.executions = 100.0, 10
        inner.gain, inner.executions = 10.0, 20  # n = 2, n*g2 = 20 < 100
        selected = NestingGraph([outer, inner], analysis).select()
        assert [s.seg_id for s in selected] == [outer.seg_id]

    def test_inner_selected_when_scaled_gain_wins(self):
        segments, analysis = self._segments()
        outer = next(s for s in segments if s.func_name == "outer" and s.kind == "function")
        inner = next(s for s in segments if s.func_name == "inner" and s.kind == "function")
        outer.gain, outer.executions = 15.0, 10
        inner.gain, inner.executions = 10.0, 20  # n*g2 = 20 > 15
        selected = NestingGraph([outer, inner], analysis).select()
        assert [s.seg_id for s in selected] == [inner.seg_id]

    def test_figure_3_example(self):
        """The paper's Figure 3: CS1 contains CS2 and CS3; CS2 contains
        CS4; CS3 contains CS5 and CS6 (sequential).  We model it with
        gains chosen so CS1 should delegate to {CS4, CS5, CS6}."""
        src = """
        int cs4(int x) { int r = 0; for (int i = 0; i < 4; i++) r += x * i; return r; }
        int cs2(int x) { return cs4(x) + cs4(x + 1); }
        int cs5(int x) { int r = 0; for (int i = 0; i < 4; i++) r += x + i; return r; }
        int cs6(int x) { int r = 0; for (int i = 0; i < 4; i++) r -= x + i; return r; }
        int cs3(int x) { return cs5(x) + cs6(x); }
        int cs1(int x) { return cs2(x) + cs3(x); }
        int main(void) {
            int t = 0;
            while (__input_avail())
                t += cs1(__input_int());
            return t;
        }
        """
        program = frontend(src)
        analysis = ProgramAnalysis(program)
        segments = [
            s
            for s in enumerate_segments(analysis)
            if s.feasible and s.kind == "function"
        ]
        by_name = {s.func_name: s for s in segments}
        # executions per one cs1 call: cs2 x1, cs3 x1, cs4 x2, cs5 x1, cs6 x1
        by_name["cs1"].gain, by_name["cs1"].executions = 50.0, 10
        by_name["cs2"].gain, by_name["cs2"].executions = 10.0, 10
        by_name["cs3"].gain, by_name["cs3"].executions = 12.0, 10
        by_name["cs4"].gain, by_name["cs4"].executions = 20.0, 20
        by_name["cs5"].gain, by_name["cs5"].executions = 30.0, 10
        by_name["cs6"].gain, by_name["cs6"].executions = 25.0, 10
        # bottom-up: cs2 -> n*g(cs4)=40 > 10 -> delegate; cs3 -> 55 > 12 ->
        # delegate; cs1: inner total = 40 + 55 = 95 > 50 -> delegate.
        selected = NestingGraph(list(by_name.values()), analysis).select()
        names = {s.func_name for s in selected}
        assert names == {"cs4", "cs5", "cs6"}

    def test_recursive_scc_condensed(self):
        src = """
        int even(int n);
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int main(void) { return even(10); }
        """
        program = frontend(src)
        analysis = ProgramAnalysis(program)
        segments = [
            s for s in enumerate_segments(analysis) if s.feasible and s.kind == "function"
        ]
        for s in segments:
            s.executions = 10
        segments[0].gain = 5.0
        segments[1].gain = 9.0
        selected = NestingGraph(segments, analysis).select()
        # mutual recursion: one SCC; only its best-gain member survives
        assert len(selected) == 1
        assert selected[0].gain == 9.0


class TestSpecializer:
    SRC = """
    int table[8] = {1, 2, 4, 8, 16, 32, 64, 128};
    int look(int v, int *t, int n) {
        int i;
        for (i = 0; i < n; i++)
            if (v < t[i])
                break;
        return i;
    }
    int use_a(int v) { return look(v, table, 8); }
    int use_b(int v) { return look(v, table, 8); }
    """

    def _specialize(self, src=None):
        program = frontend(src or self.SRC)
        analysis = ProgramAnalysis(program)
        spec = Specializer(program, analysis.invariants)
        records = spec.specialize_function("look")
        return program, records

    def test_version_created_with_bindings(self):
        program, records = self._specialize()
        assert len(records) == 1
        record = records[0]
        assert record.original == "look"
        assert record.call_sites == 2
        kinds = {b.kind for b in record.bindings}
        assert kinds == {"const", "global"}

    def test_specialized_function_has_one_param(self):
        program, records = self._specialize()
        fn = program.function(records[0].specialized)
        assert [p.name for p in fn.params] == ["v"]

    def test_call_sites_rewritten(self):
        program, records = self._specialize()
        text = format_program(program)
        assert text.count("look__s0(v)") == 2

    def test_body_references_global_directly(self):
        program, records = self._specialize()
        from repro.minic.pretty import format_function

        fn = program.function(records[0].specialized)
        text = format_function(fn)
        assert "table[i]" in text
        assert "< 8" in text

    def test_semantics_preserved(self):
        from repro.minic.sema import analyze

        from tests.support import run_plain

        src = self.SRC + "\nint main(void) { return use_a(3) * 100 + use_b(40); }"
        before, _ = run_plain(src)
        program, _ = self._specialize(src)
        analyze(program)
        machine = Machine("O0")
        after = compile_program(program, machine).run("main")
        assert before == after

    def test_no_bindings_no_versions(self):
        src = """
        int f(int a, int b) { return a + b; }
        int main(void) { int x = __input_int(); return f(x, x); }
        """
        program = frontend(src)
        analysis = ProgramAnalysis(program)
        spec = Specializer(program, analysis.invariants)
        assert spec.specialize_function("f") == []

    def test_distinct_signatures_get_distinct_versions(self):
        src = """
        int f(int a, int n) { return a * n; }
        int main(void) { return f(__input_int(), 3) + f(__input_int(), 7); }
        """
        program = frontend(src)
        analysis = ProgramAnalysis(program)
        spec = Specializer(program, analysis.invariants)
        records = spec.specialize_function("f")
        assert len(records) == 2
        assert {r.specialized for r in records} == {"f__s0", "f__s1"}


class TestMerging:
    def _segments_with_inputs(self, program):
        analysis = ProgramAnalysis(program)
        return [s for s in enumerate_segments(analysis) if s.feasible], analysis

    def test_identical_inputs_merged(self):
        src = """
        int g1;
        int g2;
        void f(int a, int b) {
            if (a > b) { g1 = a * b + a; }
            if (a > b) { g2 = a * b - a; }
        }
        int main(void) { f(__input_int(), 1); return g1 + g2; }
        """
        program = frontend(src)
        segments, _ = self._segments_with_inputs(program)
        branches = [s for s in segments if s.kind == "if-branch"]
        assert len(branches) == 2
        groups = merge_groups(branches)
        if groups:  # inputs must be identical symbols
            (members,) = groups.values()
            assert len(members) == 2
            assert all(s.merged_group for s in members)

    def test_different_inputs_not_merged(self):
        s1 = Segment(seg_id=1, kind="loop", func_name="f", region_root=None, control=None)
        s2 = Segment(seg_id=2, kind="loop", func_name="f", region_root=None, control=None)
        from repro.analysis.arrays import IOShape
        from repro.minic.astnodes import Symbol
        from repro.minic.types import INT

        a, b = Symbol("a", INT, "local"), Symbol("b", INT, "local")
        s1.inputs = [IOShape(a, 1, False, False)]
        s2.inputs = [IOShape(b, 1, False, False)]
        assert merge_groups([s1, s2]) == {}

    def test_merged_smaller_than_unmerged(self):
        from repro.analysis.arrays import IOShape
        from repro.minic.astnodes import Symbol
        from repro.minic.types import INT

        syms = [Symbol(n, INT, "local") for n in "abcd"]
        shapes = [IOShape(s, 1, False, False) for s in syms]
        members = []
        for i in range(8):
            seg = Segment(seg_id=i, kind="loop", func_name="f", region_root=None, control=None)
            seg.inputs = list(shapes)
            seg.outputs = [IOShape(Symbol(f"o{i}", INT, "local"), 1, False, False)]
            members.append(seg)
        in_words, out_words = members[0].in_words, [m.out_words for m in members]
        merged = table_bytes(1024, entry_words(in_words, out_words, merged=True))
        unmerged = sum(table_bytes(1024, entry_words(in_words, [w])) for w in out_words)
        assert merged < unmerged
        # 8 tables of (4 in + 1 out) vs 1 table of (4 in + 1 bitvec + 8 out)
        assert unmerged / merged == pytest.approx(40 / 13, rel=0.01)


class TestPipelineEndToEnd:
    SRC = """
    int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
    static int quan(int val, int *table, int size) {
        int i;
        for (i = 0; i < size; i++)
            if (val < table[i])
                break;
        return (i);
    }
    int main(void) {
        int s = 0;
        while (__input_avail())
            s += quan(__input_int(), power2, 15);
        __output_int(s);
        return s;
    }
    """

    INPUTS = [5, 100, 3000, 5, 100, 3000, 12000, 5] * 40

    def _run(self, config=None):
        pipeline = ReusePipeline(self.SRC, config or PipelineConfig(min_executions=10))
        return pipeline.run(self.INPUTS)

    def test_counts_monotone(self):
        result = self._run()
        counts = result.counts
        assert counts["analyzed"] >= counts["profiled"] >= counts["transformed"]
        assert counts["transformed"] == 1

    def test_specialization_happened(self):
        result = self._run()
        assert result.specializations
        assert result.specializations[0].original == "quan"

    def test_transformed_program_equivalent_and_faster(self):
        result = self._run()
        machine_o = Machine("O0")
        machine_o.set_inputs(self.INPUTS)
        ro = compile_program(frontend(self.SRC), machine_o).run("main")
        machine_t = Machine("O0")
        machine_t.set_inputs(self.INPUTS)
        for seg_id, table in result.build_tables().items():
            machine_t.install_table(seg_id, table)
        rt = compile_program(result.program, machine_t).run("main")
        assert ro == rt
        assert machine_o.output_checksum == machine_t.output_checksum
        assert machine_t.cycles < machine_o.cycles

    def test_profile_statistics(self):
        result = self._run()
        seg = result.selected[0]
        assert seg.executions == len(self.INPUTS)
        assert seg.distinct_inputs == 4
        assert seg.reuse_rate == pytest.approx(1 - 4 / len(self.INPUTS))

    def test_cost_filter_ablation(self):
        relaxed = self._run(
            PipelineConfig(min_executions=10, enable_cost_filter=False)
        )
        strict = self._run()
        assert len(relaxed.profiled) >= len(strict.profiled)

    def test_capacity_override(self):
        result = self._run(
            PipelineConfig(min_executions=10, table_capacity_override=8)
        )
        assert all(spec.capacity == 8 for spec in result.table_specs)

    def test_stub_free_output(self):
        result = self._run()
        text = format_program(result.program)
        assert "__profile" not in text
        assert "__seg_enter" not in text

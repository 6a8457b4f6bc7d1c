"""Tests for liveness, upward-exposed reads, mod/ref, and the coverage
(invariance) analysis — exercised on the paper's quan example and
targeted snippets."""

from repro.minic import astnodes as ast
from repro.minic import frontend
from repro.ir.cfg import build_cfg
from repro.analysis.coverage import BetweenExecutions, invariant_globals
from repro.analysis.liveness import Liveness, function_exit_live
from repro.analysis.modref import analyze_modref
from repro.analysis.pointer import analyze_pointers
from repro.analysis.upward import segment_inputs, upward_exposed
from repro.analysis.usedef import UseDefExtractor


QUAN_SPECIALIZED = """
int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
"""


def build_all(src):
    prog = frontend(src)
    pt = analyze_pointers(prog)
    modref = analyze_modref(prog, pt)
    globals_ = {g.decl.symbol for g in prog.globals}
    extractor = UseDefExtractor(pt, modref=modref, global_symbols=globals_)
    return prog, pt, modref, extractor


def names(symbols):
    return {s.name for s in symbols}


class TestUpwardExposed:
    def test_quan_body_inputs(self):
        prog, pt, modref, ex = build_all(QUAN_SPECIALIZED)
        fn = prog.function("quan")
        cfg = build_cfg(fn)
        region = cfg.nodes_in_region(fn.body)
        exposed = upward_exposed(cfg, region, ex)
        # val and power2 are read before written; i is written first
        assert names(exposed) == {"val", "power2"}

    def test_invariants_excluded_from_inputs(self):
        prog, pt, modref, ex = build_all(QUAN_SPECIALIZED)
        fn = prog.function("quan")
        cfg = build_cfg(fn)
        region = cfg.nodes_in_region(fn.body)
        inv = invariant_globals(prog, modref)
        inputs = segment_inputs(cfg, region, ex, invariants=inv)
        assert names(inputs) == {"val"}

    def test_def_before_use_not_exposed(self):
        prog, pt, modref, ex = build_all(
            "int f(int a) { int x; x = a; return x; }"
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        region = cfg.nodes_in_region(fn.body)
        assert names(upward_exposed(cfg, region, ex)) == {"a"}

    def test_conditional_def_still_exposed(self):
        prog, pt, modref, ex = build_all(
            "int f(int a, int x) { if (a) x = 1; return x; }"
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        region = cfg.nodes_in_region(fn.body)
        # x read at the return may see the entry value
        assert "x" in names(upward_exposed(cfg, region, ex))

    def test_array_element_write_does_not_kill(self):
        prog, pt, modref, ex = build_all(
            """
            int f(int i) {
                int a[4];
                a[i] = 1;
                return a[0];
            }
            """
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        # region: just the two trailing statements (skip the declaration)
        block = ast.Block(stmts=fn.body.stmts[1:], line=0)
        region = cfg.nodes_in_region(block)
        assert "a" in names(upward_exposed(cfg, region, ex))

    def test_loop_body_region_inputs(self):
        prog, pt, modref, ex = build_all(QUAN_SPECIALIZED)
        fn = prog.function("quan")
        cfg = build_cfg(fn)
        loop = fn.body.stmts[1]
        region = cfg.nodes_in_region(loop.body)
        inv = invariant_globals(prog, modref)
        inputs = segment_inputs(cfg, region, ex, invariants=inv)
        # body reads val and i (loop counter flows in)
        assert names(inputs) == {"val", "i"}


class TestLiveness:
    def test_quan_outputs(self):
        prog, pt, modref, ex = build_all(QUAN_SPECIALIZED)
        fn = prog.function("quan")
        cfg = build_cfg(fn)
        exit_live = function_exit_live(fn, prog, pt)
        live = Liveness(cfg, ex, exit_live)
        region = cfg.nodes_in_region(fn.body)
        # i is dead at function exit (its value leaves via return, which
        # segment analysis models separately); no globals are written
        assert names(live.region_outputs(region)) == set()

    def test_global_write_is_an_output(self):
        prog, pt, modref, ex = build_all(
            """
            int acc;
            void f(int v) { acc = acc + v; }
            """
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        live = Liveness(cfg, ex, function_exit_live(fn, prog, pt))
        region = cfg.nodes_in_region(fn.body)
        assert names(live.region_outputs(region)) == {"acc"}

    def test_pointer_param_write_is_an_output(self):
        prog, pt, modref, ex = build_all(
            """
            int data[4];
            void fill(int *out) { out[0] = 7; }
            int main(void) { fill(data); return data[0]; }
            """
        )
        fn = prog.function("fill")
        cfg = build_cfg(fn)
        live = Liveness(cfg, ex, function_exit_live(fn, prog, pt))
        region = cfg.nodes_in_region(fn.body)
        assert "data" in names(live.region_outputs(region))

    def test_dead_local_not_output(self):
        prog, pt, modref, ex = build_all(
            "int f(int v) { int t = v * 2; return v; }"
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        live = Liveness(cfg, ex, function_exit_live(fn, prog, pt))
        region = cfg.nodes_in_region(fn.body)
        assert "t" not in names(live.region_outputs(region))

    def test_loop_region_output_live_after_loop(self):
        prog, pt, modref, ex = build_all(
            """
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    s += i;
                return s;
            }
            """
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        live = Liveness(cfg, ex, function_exit_live(fn, prog, pt))
        loop = fn.body.stmts[1]
        region = cfg.nodes_in_region(loop.body)
        outs = names(live.region_outputs(region))
        assert "s" in outs


class TestModRef:
    SRC = """
    int g1;
    int g2;
    int table[4];
    int reader(void) { return g1 + table[0]; }
    void writer(int v) { g2 = v; }
    void caller(int v) { writer(v + reader()); }
    """

    def test_direct_effects(self):
        prog, pt, modref, ex = build_all(self.SRC)
        assert names(modref.ref("reader")) >= {"g1", "table"}
        assert names(modref.mod("reader")) == set()
        assert names(modref.mod("writer")) == {"g2"}

    def test_transitive_effects(self):
        prog, pt, modref, ex = build_all(self.SRC)
        assert "g2" in names(modref.mod("caller"))
        assert "g1" in names(modref.ref("caller"))

    def test_locals_filtered(self):
        prog, pt, modref, ex = build_all(
            "int f(int v) { int x = v; x += 1; return x; }"
        )
        assert modref.mod("f") == frozenset()

    def test_pointer_param_write_visible(self):
        prog, pt, modref, ex = build_all(
            """
            int buf[4];
            void w(int *p) { p[0] = 1; }
            void top(void) { w(buf); }
            """
        )
        assert "buf" in names(modref.mod("w"))
        assert "buf" in names(modref.mod("top"))

    def test_recursive_function_terminates(self):
        prog, pt, modref, ex = build_all(
            """
            int g;
            int f(int n) { if (n) { g = n; return f(n - 1); } return 0; }
            """
        )
        assert "g" in names(modref.mod("f"))

    def test_invariant_globals_refinement(self):
        # table escapes syntactically (passed to a call) but the callee
        # only reads it: the mod/ref-based invariance must recover it.
        prog, pt, modref, ex = build_all(
            """
            int table[4];
            int look(int *t, int i) { return t[i]; }
            int main(void) { return look(table, 2); }
            """
        )
        inv = invariant_globals(prog, modref)
        assert "table" in names(inv)
        # and sema alone could not prove it
        assert not prog.global_var("table").decl.symbol.is_const


class TestCoverage:
    def test_between_executions_detects_modification(self):
        prog, pt, modref, ex = build_all(
            """
            int k;
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    s += k;
                    k = k + 1;
                }
                return s;
            }
            """
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        loop = fn.body.stmts[1]
        # region: just the first statement of the body (s += k)
        first = loop.body.stmts[0]
        region = cfg.nodes_in_region(first)
        be = BetweenExecutions(cfg, region, ex)
        k = prog.global_var("k").decl.symbol
        assert be.modifies(k)

    def test_between_executions_invariant(self):
        prog, pt, modref, ex = build_all(
            """
            int k;
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    s += k;
                }
                return s;
            }
            """
        )
        fn = prog.function("f")
        cfg = build_cfg(fn)
        loop = fn.body.stmts[1]
        region = cfg.nodes_in_region(loop.body)
        be = BetweenExecutions(cfg, region, ex)
        k = prog.global_var("k").decl.symbol
        assert not be.modifies(k)

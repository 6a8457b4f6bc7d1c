"""Tests for candidate segment identification and feasibility analysis."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.minic import frontend
from repro.reuse.granularity import GranularityAnalysis
from repro.reuse.hashing_cost import annotate_costs, hashing_overhead
from repro.reuse.segments import ProgramAnalysis, enumerate_segments


def segments_for(src):
    program = frontend(src)
    analysis = ProgramAnalysis(program)
    return enumerate_segments(analysis), analysis, program


def by_kind(segments, kind):
    return [s for s in segments if s.kind == kind]


QUAN_SPECIALIZED = """
int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) { return quan(7); }
"""


class TestEnumeration:
    def test_kinds_enumerated(self):
        segments, _, _ = segments_for(QUAN_SPECIALIZED)
        assert len(by_kind(segments, "function")) == 1  # main excluded
        assert len(by_kind(segments, "loop")) == 1
        assert len(by_kind(segments, "if-branch")) == 1

    def test_main_body_not_a_candidate(self):
        segments, _, _ = segments_for("int main(void) { return 1; }")
        assert not by_kind(segments, "function")

    def test_else_branch_enumerated(self):
        segments, _, _ = segments_for(
            "int f(int x) { int r; if (x) { r = 1; } else { r = 2; } return r; }"
        )
        assert len(by_kind(segments, "if-branch")) == 2


class TestQuanSegment:
    def test_function_segment_io(self):
        segments, _, _ = segments_for(QUAN_SPECIALIZED)
        seg = by_kind(segments, "function")[0]
        assert seg.feasible
        assert [s.symbol.name for s in seg.inputs] == ["val"]
        assert seg.outputs == []  # i leaves via the return value
        assert seg.has_retval
        assert seg.in_words == 1
        assert seg.out_words == 1

    def test_loop_rejected_for_break(self):
        segments, _, _ = segments_for(QUAN_SPECIALIZED)
        seg = by_kind(segments, "loop")[0]
        assert not seg.feasible
        assert "escapes" in seg.reject_reason


class TestFeasibility:
    def test_io_segment_rejected(self):
        segments, _, _ = segments_for(
            "int f(int x) { __output_int(x); return x; }\nint main(void) { return f(1); }"
        )
        seg = by_kind(segments, "function")[0]
        assert not seg.feasible
        assert "I/O" in seg.reject_reason

    def test_transitive_io_rejected(self):
        src = """
        void log_(int x) { __print_int(x); }
        int f(int x) { log_(x); return x * 2; }
        int main(void) { return f(3); }
        """
        segments, _, _ = segments_for(src)
        f_seg = next(s for s in by_kind(segments, "function") if s.func_name == "f")
        assert not f_seg.feasible

    def test_return_in_loop_body_rejected(self):
        src = """
        int f(int n) {
            for (int i = 0; i < n; i++)
                if (i == 3) return i;
            return 0;
        }
        """
        segments, _, _ = segments_for(src)
        loop = by_kind(segments, "loop")[0]
        assert not loop.feasible

    def test_inner_loop_break_does_not_reject_outer_body(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == i) break;
                    s++;
                }
            }
            return s;
        }
        """
        segments, _, _ = segments_for(src)
        loops = by_kind(segments, "loop")
        outer = next(s for s in loops if len(list(_walk_loops(s.region_root))) > 0)
        assert outer.feasible  # break binds to the inner loop

    def test_no_inputs_rejected(self):
        segments, _, _ = segments_for(
            "int f(void) { return 42; }\nint main(void) { return f(); }"
        )
        seg = by_kind(segments, "function")[0]
        assert not seg.feasible
        assert "no inputs" in seg.reject_reason

    def test_unbounded_pointer_rejected(self):
        # p has no known pointee (no call site binds it)
        src = "int f(int *p) { return p[0] + p[1]; }"
        segments, _, _ = segments_for(src)
        seg = by_kind(segments, "function")[0]
        assert not seg.feasible
        assert "unbounded" in seg.reject_reason

    def test_weakly_defined_output_becomes_input(self):
        src = """
        int g;
        void f(int x) { if (x > 0) g = x; }
        int main(void) { f(3); return g; }
        """
        segments, _, _ = segments_for(src)
        seg = next(s for s in by_kind(segments, "function") if s.func_name == "f")
        assert seg.feasible
        names = [s.symbol.name for s in seg.inputs]
        assert "g" in names  # conditional write: entry value matters
        assert "x" in names

    def test_float_io_shapes(self):
        src = """
        float acc;
        float f(float x) { acc = acc + x; return acc * 2.0; }
        int main(void) { f(1.5); return 0; }
        """
        segments, _, _ = segments_for(src)
        seg = by_kind(segments, "function")[0]
        assert seg.feasible
        assert seg.retval_is_float
        out_names = {s.symbol.name for s in seg.outputs}
        assert out_names == {"acc"}
        assert all(s.is_float for s in seg.outputs)

    def test_array_input_shape(self):
        src = """
        int block[8];
        int f(int *b) {
            int s = 0;
            for (int i = 0; i < 8; i++)
                s += b[i];
            return s;
        }
        int main(void) { block[0] = 1; return f(block); }
        """
        segments, _, _ = segments_for(src)
        seg = next(s for s in by_kind(segments, "function") if s.func_name == "f")
        assert seg.feasible
        assert seg.in_words == 8
        assert seg.out_words == 1


def _walk_loops(block):
    from repro.minic import astnodes as ast

    for node in ast.walk(block):
        if isinstance(node, (ast.For, ast.While, ast.DoWhile)):
            yield node


class TestCosts:
    def test_quan_costs(self):
        segments, _, program = segments_for(QUAN_SPECIALIZED)
        gran = GranularityAnalysis(program)
        annotate_costs(segments, gran)
        seg = by_kind(segments, "function")[0]
        # the constant-trip loop makes C comfortably exceed O
        assert seg.static_granularity > seg.overhead
        assert seg.overhead > 0

    def test_overhead_scales_with_io_words(self):
        wide_src = """
        int blk[64];
        int f(int *b) { int s = 0; for (int i = 0; i < 64; i++) s += b[i]; return s; }
        int main(void) { return f(blk); }
        """
        narrow_src = QUAN_SPECIALIZED
        wide_segments, _, _ = segments_for(wide_src)
        narrow_segments, _, _ = segments_for(narrow_src)
        wide = next(s for s in wide_segments if s.kind == "function" and s.feasible)
        narrow = next(s for s in narrow_segments if s.kind == "function" and s.feasible)
        assert hashing_overhead(wide) > hashing_overhead(narrow)

    def test_o3_overhead_below_o0(self):
        from repro.runtime import costs

        segments, _, _ = segments_for(QUAN_SPECIALIZED)
        seg = by_kind(segments, "function")[0]
        assert hashing_overhead(seg, costs.O3) < hashing_overhead(seg, costs.O0)


# a loop calling three I/O builtins: set iteration order would pick any of
# them as "the" reason, depending on PYTHONHASHSEED
MIXED_IO = """
int main(void) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 64; i++) {
        s = s + __input_int();
        __output_float(s * 0.5);
        __output_int(s);
    }
    return s;
}
"""

_LEDGER_SCRIPT = """
import json, sys
from repro.reuse.pipeline import PipelineConfig, ReusePipeline
result = ReusePipeline(sys.argv[1], PipelineConfig()).run(list(range(64)))
print(json.dumps(result.ledger.to_json(), sort_keys=True))
"""


def _ledger_under_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LEDGER_SCRIPT, MIXED_IO],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


class TestDeterministicReasons:
    def test_io_reason_is_first_call_in_source_order(self):
        segments, _, _ = segments_for(MIXED_IO)
        loop = by_kind(segments, "loop")[0]
        assert loop.reject_reason == "performs I/O (__input_int)"

    def test_ledger_independent_of_hash_seed(self):
        # seeds 0 and 3 named different builtins when the calls were a set
        first = _ledger_under_hash_seed("0")
        assert first == _ledger_under_hash_seed("3")
        assert "performs I/O (__input_int)" in json.dumps(first)

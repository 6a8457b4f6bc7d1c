"""End-to-end interpreter tests: mini-C semantics under the cost model."""

import pytest

from repro.errors import InterpError
from repro.minic import frontend
from repro.profiling import ValueSetProfiler
from repro.runtime import Machine, ReuseTable, compile_program

from tests.support import run_plain


def run(src, entry="main", opt="O0", inputs=()):
    result, _ = run_plain(src, entry=entry, opt_level=opt, inputs=inputs)
    return result


class TestArithmetic:
    def test_basic_int_math(self):
        assert run("int main(void) { return 2 + 3 * 4; }") == 14

    def test_division_truncates_toward_zero(self):
        assert run("int main(void) { return -7 / 2; }") == -3
        assert run("int main(void) { return -7 % 2; }") == -1

    def test_int_overflow_wraps(self):
        assert run("int main(void) { int x = 2147483647; return x + 1; }") == -(2**31)

    def test_shifts_and_bitwise(self):
        assert run("int main(void) { return (1 << 4) | 3; }") == 19
        assert run("int main(void) { return (0xF0 >> 4) & 0x3; }") == 3
        assert run("int main(void) { return ~0; }") == -1

    def test_float_math(self):
        src = "float main(void) { float x = 1.5; return x * 2.0 + 0.25; }"
        assert run(src) == pytest.approx(3.25)

    def test_mixed_int_float_promotion(self):
        assert run("float main(void) { int a = 3; return a / 2.0; }") == pytest.approx(1.5)

    def test_casts(self):
        assert run("int main(void) { return (int) 3.9; }") == 3
        assert run("int main(void) { return (int) -3.9; }") == -3
        assert run("float main(void) { return (float) 7 / 2; }") == pytest.approx(3.5)

    def test_comparisons_return_01(self):
        assert run("int main(void) { return (3 < 5) + (5 < 3); }") == 1

    def test_logical_short_circuit(self):
        src = """
        int count = 0;
        int bump(void) { count = count + 1; return 1; }
        int main(void) {
            int r = 0 && bump();
            int s = 1 || bump();
            return count * 10 + r + s;
        }
        """
        assert run(src) == 1

    def test_ternary(self):
        assert run("int main(void) { return 1 ? 10 : 20; }") == 10

    def test_unary_not(self):
        assert run("int main(void) { return !0 + !5; }") == 1


class TestControlFlow:
    def test_while_loop(self):
        src = "int main(void) { int i = 0; int s = 0; while (i < 10) { s += i; i++; } return s; }"
        assert run(src) == 45

    def test_for_loop_with_break_continue(self):
        src = """
        int main(void) {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                s += i;
            }
            return s;
        }
        """
        assert run(src) == 1 + 3 + 5 + 7 + 9

    def test_continue_in_for_executes_step(self):
        src = """
        int main(void) {
            int n = 0;
            for (int i = 0; i < 5; i++) {
                continue;
            }
            return 7;
        }
        """
        assert run(src) == 7  # would loop forever if step were skipped

    def test_do_while_runs_at_least_once(self):
        src = "int main(void) { int i = 100; int n = 0; do { n++; } while (i < 0); return n; }"
        assert run(src) == 1

    def test_nested_loops_break_inner_only(self):
        src = """
        int main(void) {
            int n = 0;
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 10; j++) {
                    if (j == 2) break;
                    n++;
                }
            return n;
        }
        """
        assert run(src) == 6

    def test_early_return_from_loop(self):
        src = """
        int main(void) {
            for (int i = 0; i < 10; i++)
                if (i == 4) return i * 100;
            return -1;
        }
        """
        assert run(src) == 400

    def test_dangling_else(self):
        src = """
        int f(int a, int b) {
            if (a) { if (b) return 1; else return 2; }
            return 3;
        }
        int main(void) { return f(1, 0) * 10 + f(0, 1); }
        """
        assert run(src) == 23


class TestFunctions:
    def test_call_and_return(self):
        src = "int sq(int x) { return x * x; } int main(void) { return sq(7); }"
        assert run(src) == 49

    def test_recursion(self):
        src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(12); }"
        assert run(src) == 144

    def test_void_function_and_globals(self):
        src = """
        int acc = 0;
        void add(int v) { acc += v; }
        int main(void) { add(3); add(4); return acc; }
        """
        assert run(src) == 7

    def test_function_pointer_call(self):
        src = """
        int double_(int x) { return 2 * x; }
        int triple(int x) { return 3 * x; }
        int apply(int f(int), int v) { return f(v); }
        int main(void) { return apply(double_, 10) + apply(triple, 10); }
        """
        assert run(src) == 50

    def test_fall_off_end_returns_zero(self):
        assert run("int main(void) { int x = 5; x += 1; }") == 0


class TestArraysAndPointers:
    def test_local_array_zero_initialized(self):
        src = "int main(void) { int a[4]; return a[0] + a[3]; }"
        assert run(src) == 0

    def test_global_array_initializer(self):
        src = """
        int t[5] = {10, 20, 30};
        int main(void) { return t[0] + t[2] + t[4]; }
        """
        assert run(src) == 40

    def test_2d_array(self):
        src = """
        int m[2][3];
        int main(void) {
            for (int i = 0; i < 2; i++)
                for (int j = 0; j < 3; j++)
                    m[i][j] = i * 3 + j;
            return m[1][2];
        }
        """
        assert run(src) == 5

    def test_array_param_aliases_caller(self):
        src = """
        void fill(int *a, int n) { for (int i = 0; i < n; i++) a[i] = i + 1; }
        int main(void) { int buf[4]; fill(buf, 4); return buf[3]; }
        """
        assert run(src) == 4

    def test_pointer_walk(self):
        src = """
        int sum(int *p, int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += *p++;
            return s;
        }
        int data[4] = {1, 2, 3, 4};
        int main(void) { return sum(data, 4); }
        """
        assert run(src) == 10

    def test_address_of_scalar(self):
        src = """
        void bump(int *p) { *p += 10; }
        int main(void) { int x = 5; bump(&x); return x; }
        """
        assert run(src) == 15

    def test_address_of_array_element(self):
        src = """
        int main(void) {
            int a[4] = {0, 0, 0, 0};
            int *p = &a[2];
            *p = 9;
            p[1] = 7;
            return a[2] * 10 + a[3];
        }
        """
        assert run(src) == 97

    def test_pointer_difference(self):
        src = """
        int a[10];
        int main(void) {
            int *p = &a[7];
            int *q = &a[2];
            return p - q;
        }
        """
        assert run(src) == 5

    def test_2d_array_as_pointer_param(self):
        src = """
        int total(int m[][3], int rows) {
            int s = 0;
            for (int i = 0; i < rows; i++)
                for (int j = 0; j < 3; j++)
                    s += m[i][j];
            return s;
        }
        int g[2][3] = {{1, 2, 3}, {4, 5, 6}};
        int main(void) { return total(g, 2); }
        """
        assert run(src) == 21

    def test_local_array_fresh_per_invocation(self):
        src = """
        int f(void) {
            int a[2];
            a[0] += 1;
            return a[0];
        }
        int main(void) { f(); return f(); }
        """
        assert run(src) == 1


class TestIO:
    def test_input_stream(self):
        src = """
        int main(void) {
            int s = 0;
            while (__input_avail())
                s += __input_int();
            return s;
        }
        """
        assert run(src, inputs=[1, 2, 3, 4]) == 10

    def test_input_exhaustion_raises(self):
        with pytest.raises(InterpError):
            run("int main(void) { return __input_int(); }")

    def test_output_checksum_deterministic(self):
        src = """
        int main(void) {
            for (int i = 0; i < 5; i++)
                __output_int(i * i);
            return 0;
        }
        """
        _, m1 = run_plain(src)
        _, m2 = run_plain(src)
        assert m1.output_checksum == m2.output_checksum
        assert m1.output_count == 5

    def test_output_checksum_order_sensitive(self):
        a = "int main(void) { __output_int(1); __output_int(2); return 0; }"
        b = "int main(void) { __output_int(2); __output_int(1); return 0; }"
        _, ma = run_plain(a)
        _, mb = run_plain(b)
        assert ma.output_checksum != mb.output_checksum


class TestCostModel:
    def test_cycles_positive_and_scale_with_work(self):
        small = "int main(void) { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }"
        big = "int main(void) { int s = 0; for (int i = 0; i < 1000; i++) s += i; return s; }"
        _, ms = run_plain(small)
        _, mb = run_plain(big)
        assert 0 < ms.cycles < mb.cycles
        assert mb.cycles > 50 * ms.cycles

    def test_o3_cheaper_than_o0(self):
        src = "int main(void) { int s = 0; for (int i = 0; i < 100; i++) s += i * 3; return s; }"
        _, m0 = run_plain(src, opt_level="O0")
        _, m3 = run_plain(src, opt_level="O3")
        assert m3.cycles < m0.cycles

    def test_float_ops_cost_more_than_int(self):
        fsrc = "float main(void) { float s = 0.0; for (int i = 0; i < 100; i++) s = s * 1.5; return s; }"
        isrc = "int main(void) { int s = 0; for (int i = 0; i < 100; i++) s = s * 3; return s; }"
        _, mf = run_plain(fsrc)
        _, mi = run_plain(isrc)
        assert mf.cycles > mi.cycles

    def test_energy_positive_and_tracks_time(self):
        src = "int main(void) { int s = 0; for (int i = 0; i < 500; i++) s += i; return s; }"
        _, m = run_plain(src)
        assert m.energy_joules > 0
        # base power dominates: energy/seconds should be within sane wattage
        watts = m.energy_joules / m.seconds
        assert 1.5 < watts < 5.0

    def test_metrics_counts_sum(self):
        src = "int main(void) { return 1 + 2; }"
        _, m = run_plain(src)
        assert m.counts["alu"] >= 1
        assert m.counts["ret"] == 1


class TestReuseIntrinsics:
    def test_probe_commit_roundtrip_via_program(self):
        src = """
        int compute(int x) {
            int r;
            if (__reuse_probe(7, x) == 0) {
                r = x * x + 1;
                __reuse_commit(7, r);
            }
            else {
                r = __reuse_out_i(7, 0);
                __reuse_end(7);
            }
            return r;
        }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 10; i++)
                s += compute(i % 3);
            return s;
        }
        """
        program = frontend(src)
        machine = Machine("O0")
        machine.install_table(7, ReuseTable("seg7", capacity=64, in_words=1, out_words=1))
        compiled = compile_program(program, machine)
        result = compiled.run("main")
        # i%3 cycles 0,1,2 -> values 1,2,5; 10 iters: 4x0, 3x1, 3x2
        assert result == 4 * 1 + 3 * 2 + 3 * 5
        table = machine.reuse_tables[7]
        assert table.stats.probes == 10
        assert table.stats.hits == 7
        assert table.stats.misses == 3

    def test_probe_without_table_raises(self):
        src = """
        int main(void) { return __reuse_probe(1, 5); }
        """
        program = frontend(src)
        machine = Machine("O0")
        compiled = compile_program(program, machine)
        with pytest.raises(InterpError):
            compiled.run("main")

    def test_hash_costs_charged(self):
        src = """
        int main(void) {
            if (__reuse_probe(1, 5) == 0)
                __reuse_commit(1, 9);
            else
                __reuse_end(1);
            return 0;
        }
        """
        program = frontend(src)
        machine = Machine("O0")
        machine.install_table(1, ReuseTable("s", 8, 1, 1))
        compiled = compile_program(program, machine)
        compiled.run("main")
        m = machine.metrics()
        assert m.counts["hash_fixed"] == 1
        assert m.counts["hash_word"] == 2  # 1 key word + 1 output word

    def test_profile_stub_is_zero_cost_and_records(self):
        src = """
        int main(void) {
            for (int i = 0; i < 4; i++)
                __profile(3, i % 2);
            return 0;
        }
        """

        program = frontend(src)
        machine_with = Machine("O0")
        profiler = ValueSetProfiler(machine_with)
        machine_with.profiler = profiler
        compiled = compile_program(program, machine_with)
        compiled.run("main")
        cycles_with = machine_with.cycles

        machine_without = Machine("O0")
        compiled2 = compile_program(program, machine_without)
        compiled2.run("main")

        profile = profiler.profile(3)
        keys = list(profile._key_ids)
        assert [keys[key_id] for key_id in profile.key_stream] == [(0,), (1,), (0,), (1,)]
        assert cycles_with == machine_without.cycles

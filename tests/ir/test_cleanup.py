"""Tests for the clean-up pass (call splitting)."""

from repro.minic import astnodes as ast
from repro.minic import frontend, format_program
from repro.ir.cleanup import CleanupPass, cleanup
from tests.support import run_plain


def cleaned(src):
    prog = cleanup(frontend(src))
    return prog, format_program(prog)


def test_call_in_binary_expression_is_split():
    prog, text = cleaned(
        """
        int f(int x) { return x + 1; }
        int main(void) { return f(1) + f(2); }
        """
    )
    main = prog.function("main")
    # two hoisted declarations before the return
    decls = [s for s in main.body.stmts if isinstance(s, ast.DeclStmt)]
    assert len(decls) == 2
    assert "__cu0" in text and "__cu1" in text


def test_direct_call_statement_not_split():
    prog, text = cleaned(
        """
        void g(void) { }
        void main(void) { g(); }
        """
    )
    assert "__cu" not in text


def test_direct_assignment_rhs_not_split():
    prog, text = cleaned(
        """
        int f(void) { return 1; }
        int main(void) { int x; x = f(); return x; }
        """
    )
    assert "__cu" not in text


def test_nested_call_args_split_inner_first():
    prog, text = cleaned(
        """
        int f(int x) { return x + 1; }
        int main(void) { return 1 + f(f(2)); }
        """
    )
    # inner f(2) stays as the initializer of the first temp; outer call
    # references it
    assert text.index("__cu0") < text.index("__cu1")


def test_if_condition_call_hoisted_before_if():
    prog, text = cleaned(
        """
        int f(void) { return 1; }
        int main(void) { if (f() > 0) return 1; return 0; }
        """
    )
    main = prog.function("main")
    assert isinstance(main.body.stmts[0], ast.DeclStmt)
    assert isinstance(main.body.stmts[1], ast.If)


def test_loop_condition_call_not_hoisted():
    prog, text = cleaned(
        """
        int f(void) { return 0; }
        int main(void) { while (f()) { } return 0; }
        """
    )
    assert "__cu" not in text


def test_short_circuit_rhs_not_hoisted():
    prog, text = cleaned(
        """
        int f(void) { return 1; }
        int main(void) { return 1 && f(); }
        """
    )
    assert "__cu" not in text


def test_builtin_calls_not_split():
    prog, text = cleaned("int main(void) { return __abs(-3) + __abs(4); }")
    assert "__cu" not in text


def test_semantics_preserved():
    src = """
    int calls = 0;
    int f(int x) { calls++; return x * 10; }
    int main(void) { return f(1) + f(2) * f(3) + calls; }
    """
    before, _ = run_plain(src)
    prog = cleanup(frontend(src))
    from repro.minic.pretty import format_program as fp
    after, _ = run_plain(fp(prog))
    assert before == after


def test_cleanup_inside_nested_blocks_and_loops():
    prog, text = cleaned(
        """
        int f(int x) { return x; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 3; i++) {
                s += f(i) * 2;
            }
            return s;
        }
        """
    )
    # hoisted inside the loop body, before the += statement
    loop = prog.function("main").body.stmts[1]
    assert isinstance(loop.body.stmts[0], ast.DeclStmt)
    assert loop.body.stmts[0].decls[0].name.startswith("__cu")


def test_hoist_counter_reported():
    from repro.ir.cleanup import CleanupPass

    prog = frontend(
        """
        int f(int x) { return x; }
        int main(void) { return f(1) * f(2); }
        """
    )
    cp = CleanupPass(prog)
    cp.run()
    assert cp.hoisted == 2


def _symbols_by_function(prog):
    return {
        fn.name: [n.symbol for n in ast.walk(fn.body) if isinstance(n, ast.Name)]
        for fn in prog.functions
    }


def test_only_functions_that_hoisted_are_re_resolved():
    prog = frontend(
        """
        int g;
        int f(int x) { g = x; return x; }
        int main(void) { int y = f(1) * f(2); return y + g; }
        """
    )
    before = _symbols_by_function(prog)
    global_symbol = prog.globals[0].decl.symbol
    cleanup(prog)
    after = _symbols_by_function(prog)
    assert all(a is b for a, b in zip(after["f"], before["f"]))
    assert prog.globals[0].decl.symbol is global_symbol
    # main's hoisted temporaries resolve to new locals; its global stays
    names = [n for n in ast.walk(prog.function("main").body) if isinstance(n, ast.Name)]
    assert any(n.name.startswith("__cu") and n.symbol is not None for n in names)
    assert all(n.symbol is global_symbol for n in names if n.name == "g")


def test_nothing_to_hoist_keeps_every_symbol():
    prog = frontend(
        """
        int f(int x) { return x + 1; }
        int main(void) { int y = f(3); return y; }
        """
    )
    before = _symbols_by_function(prog)
    cp = CleanupPass(prog)
    cp.run()
    assert cp.hoisted == 0
    after = _symbols_by_function(prog)
    assert all(
        a is b for name in before for a, b in zip(after[name], before[name], strict=True)
    )

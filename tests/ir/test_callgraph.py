"""Tests for call-graph construction (direct, indirect, recursive)."""

from repro.minic import frontend
from repro.ir.callgraph import build_callgraph


def cg_for(src):
    return build_callgraph(frontend(src))


def test_direct_edges():
    cg = cg_for(
        """
        int b(int x) { return x; }
        int a(int x) { return b(x) + b(x + 1); }
        int main(void) { return a(1); }
        """
    )
    assert cg.callees("main") == {"a"}
    assert cg.callees("a") == {"b"}
    assert cg.callers("b") == {"a"}


def test_call_sites_recorded():
    cg = cg_for(
        """
        int b(int x) { return x; }
        int a(int x) { return b(x) + b(x + 1); }
        int main(void) { return a(1); }
        """
    )
    sites = [site for site in cg.call_sites if "b" in site.callees]
    assert len(sites) == 2
    assert all(site.caller == "a" for site in sites)


def test_indirect_calls_via_function_pointer():
    cg = cg_for(
        """
        int dbl(int x) { return 2 * x; }
        int tpl(int x) { return 3 * x; }
        int apply(int f(int), int v) { return f(v); }
        int main(void) { return apply(dbl, 1) + apply(tpl, 2); }
        """
    )
    assert cg.callees("apply") == {"dbl", "tpl"}


def test_self_recursion_detected():
    cg = cg_for("int f(int n) { if (n) return f(n - 1); return 0; }")
    assert cg.callees("f") == {"f"}


def test_mutual_recursion_scc():
    cg = cg_for(
        """
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int main(void) { return even(4); }
        """
    )
    sccs = [set(c) for c in cg.sccs()]
    assert {"even", "odd"} in sccs


def test_non_recursive_not_flagged():
    cg = cg_for(
        """
        int b(void) { return 1; }
        int a(void) { return b(); }
        int main(void) { return a(); }
        """
    )
    assert all(len(c) == 1 for c in cg.sccs())
    assert all(name not in cg.callees(name) for name in ("a", "b", "main"))


def test_reachability():
    cg = cg_for(
        """
        int c(void) { return 1; }
        int b(void) { return c(); }
        int a(void) { return 2; }
        int main(void) { return b() + a(); }
        """
    )
    assert cg.reachable_from("main") == {"main", "a", "b", "c"}
    assert cg.reachable_from("b") == {"b", "c"}


def test_builtin_calls_not_edges():
    cg = cg_for("int main(void) { return __abs(-1); }")
    assert cg.callees("main") == set()


def test_condensation_dag():
    cg = cg_for(
        """
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int main(void) { return even(4); }
        """
    )
    component_of, members, dag = cg.condensation()
    assert component_of["even"] == component_of["odd"]
    assert component_of["main"] != component_of["even"]

"""Unit tests for the generic dataflow solver on hand-built CFGs."""

from repro.minic import frontend
from repro.ir.cfg import build_cfg
from repro.analysis.dataflow import solve_backward


def diamond_cfg():
    """entry -> a; a -> b|c; b,c -> d -> exit, built from real source."""
    src = """
    int f(int p) {
        int x = 1;
        if (p) { x = 2; } else { x = 3; }
        return x;
    }
    """
    return build_cfg(frontend(src).functions[0])


def loop_cfg():
    src = """
    int f(int n) {
        int s = 0;
        while (n > 0) { s = s + n; n = n - 1; }
        return s;
    }
    """
    return build_cfg(frontend(src).functions[0])


def gen_kill_transfer(gen, kill):
    """The classic transfer ``f(x) = gen U (x - kill)``."""

    def transfer(nid, x):
        return gen.get(nid, frozenset()) | (x - kill.get(nid, frozenset()))

    return transfer


class TestBackward:
    def test_exit_value_propagates_to_entry(self):
        cfg = diamond_cfg()
        result = solve_backward(
            cfg, gen_kill_transfer({}, {}), exit_value=frozenset({"L"})
        )
        assert "L" in result.out_sets[cfg.entry]

    def test_gen_flows_upward(self):
        cfg = loop_cfg()
        ret = next(
            n.nid
            for n in cfg
            if n.kind == "stmt" and n.ast_node is not None and cfg.exit in n.succs
        )
        gen = {ret: frozenset({"use"})}
        result = solve_backward(cfg, gen_kill_transfer(gen, {}))
        assert "use" in result.out_sets[cfg.entry]

    def test_kill_stops_upward_flow(self):
        cfg = diamond_cfg()
        kill = {
            n.nid: frozenset({"L"})
            for n in cfg
            if n.ast_node is not None
        }
        result = solve_backward(
            cfg, gen_kill_transfer({}, kill), exit_value=frozenset({"L"})
        )
        assert "L" not in result.out_sets[cfg.entry]

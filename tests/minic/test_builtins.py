"""Tests for the builtin registry."""

from repro.minic.builtins import BUILTINS


def test_core_builtins_present():
    for name in (
        "__abs", "__cos", "__sqrt", "__input_int", "__output_int",
        "__cast_int", "__cast_float",
        "__reuse_probe", "__reuse_commit", "__reuse_end",
        "__reuse_out_i", "__reuse_out_f", "__reuse_out_arr",
        "__profile", "__seg_enter", "__seg_exit",
    ):
        assert name in BUILTINS, name


def test_compiler_only_flags():
    assert BUILTINS["__reuse_probe"].compiler_only
    assert BUILTINS["__profile"].compiler_only
    assert not BUILTINS["__abs"].compiler_only


def test_zero_cost_flags():
    for name in ("__profile", "__seg_enter", "__seg_exit"):
        assert BUILTINS[name].zero_cost, name
    assert not BUILTINS["__reuse_probe"].zero_cost


def test_variadic_signatures():
    assert BUILTINS["__reuse_probe"].variadic
    assert BUILTINS["__reuse_commit"].variadic
    assert not BUILTINS["__reuse_end"].variadic


def test_unknown_name():
    assert "__nope" not in BUILTINS
    assert "main" not in BUILTINS

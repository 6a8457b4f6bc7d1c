"""Tests for the mini-C type model."""

from repro.minic.types import (
    FLOAT,
    INT,
    VOID,
    ArrayType,
    FuncType,
    PointerType,
    common_arith_type,
    decay,
    is_float,
)


def test_scalar_sizes():
    assert INT.size_words() == 1
    assert FLOAT.size_words() == 1
    assert VOID.size_words() == 0


def test_array_sizes_nested():
    a = ArrayType(INT, 8)
    assert a.size_words() == 8
    m = ArrayType(ArrayType(FLOAT, 8), 8)
    assert m.size_words() == 64
    assert m.base_elem == FLOAT


def test_pointer_is_one_word():
    assert PointerType(ArrayType(INT, 100)).size_words() == 1


def test_structural_equality():
    assert ArrayType(INT, 4) == ArrayType(INT, 4)
    assert ArrayType(INT, 4) != ArrayType(INT, 5)
    assert PointerType(INT) == PointerType(INT)
    assert FuncType(INT, (INT,)) == FuncType(INT, (INT,))


def test_predicates():
    assert INT.is_scalar and FLOAT.is_scalar
    assert not INT.is_pointer and not INT.is_array
    assert PointerType(INT).is_pointer
    assert ArrayType(INT, 2).is_array
    assert is_float(FLOAT) and not is_float(INT)


def test_decay():
    assert decay(ArrayType(INT, 4)) == PointerType(INT)
    assert decay(ArrayType(ArrayType(INT, 3), 2)) == PointerType(ArrayType(INT, 3))
    assert decay(INT) == INT
    assert decay(PointerType(FLOAT)) == PointerType(FLOAT)


def test_common_arith_type():
    assert common_arith_type(INT, INT) == INT
    assert common_arith_type(INT, FLOAT) == FLOAT
    assert common_arith_type(FLOAT, FLOAT) == FLOAT


def test_str_forms():
    assert str(INT) == "int"
    assert str(PointerType(INT)) == "int*"
    assert str(ArrayType(INT, 4)) == "int[4]"
    assert str(FuncType(INT, (INT, FLOAT))) == "int(int, float)"

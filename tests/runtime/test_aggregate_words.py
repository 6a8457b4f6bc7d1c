"""The VM's array key flattening: a flat int list takes a one-pass fast
path, which must equal the element-by-element ``_flatten_aggregate`` on
every array shape a key operand can have, and raise the same error on
a non-array."""

import pytest

from repro.errors import InterpError
from repro.runtime.intrinsics import _flatten_aggregate
from repro.runtime.vm.vm import _aggregate_words


def reference(value):
    words = []
    _flatten_aggregate(words, value)
    return words


BACKING = [7, -1, 2**31, -(2**31), 0, 123456789]

CASES = {
    "ints": [1, -2, 3, 2**32 + 5, -(2**40)],
    "empty": [],
    "floats": [1.5, -0.0, 3.25],
    "mixed": [1, 2.5, -3],
    "nested": [[1, -2], [3.0, 4], []],
    "deep": [[[1], [2, [3.5]]], 4],
    "bools": [True, False],
    "pointer-offset": (BACKING, 2),
    "pointer-start": (BACKING, 0),
    "pointer-nested": ([[1, 2], [3.5, -4]], 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_equals_reference(name):
    value = CASES[name]
    assert _aggregate_words(value) == reference(value)


def test_flat_int_words_are_unsigned_32_bit():
    assert _aggregate_words([-1, 2**32, 5]) == [4294967295, 0, 5]


@pytest.mark.parametrize("value", [5, 2.5, None])
def test_non_array_raises_the_same_error(value):
    with pytest.raises(InterpError) as want:
        reference(value)
    with pytest.raises(InterpError) as got:
        _aggregate_words(value)
    assert str(got.value) == str(want.value)

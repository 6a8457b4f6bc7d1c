"""Type representations for mini-C.

Types are interned where convenient (INT/FLOAT/VOID singletons) and
compared structurally.  Sizes are in 32-bit *words*, the unit the paper's
hashing-overhead analysis reasons in (input/output size drives the cost
of probing and copying the reuse table).
"""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class for mini-C types."""

    def size_words(self) -> int:
        """Size of a value of this type in 32-bit words."""
        raise NotImplementedError

    @property
    def is_scalar(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class ScalarType(Type):
    """``int`` or ``float``; both occupy one word in our model."""

    name: str  # "int" or "float"

    def size_words(self) -> int:
        return 1

    @property
    def is_scalar(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VoidType(Type):
    name: str = "void"

    def size_words(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to an element type (arrays decay to these at call sites)."""

    elem: Type

    def size_words(self) -> int:
        return 1

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.elem}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """Fixed-size one-dimensional array.

    Multi-dimensional arrays are arrays of arrays: ``int a[8][8]`` has
    type ``ArrayType(ArrayType(INT, 8), 8)``.
    """

    elem: Type
    length: int

    def size_words(self) -> int:
        return self.elem.size_words() * self.length

    @property
    def is_array(self) -> bool:
        return True

    @property
    def base_elem(self) -> Type:
        """The ultimate scalar element type of a (possibly nested) array."""
        t: Type = self
        while isinstance(t, ArrayType):
            t = t.elem
        return t

    def __str__(self) -> str:
        return f"{self.elem}[{self.length}]"


@dataclass(frozen=True)
class FuncType(Type):
    ret: Type
    params: tuple[Type, ...]

    def size_words(self) -> int:
        return 1  # a function pointer

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({params})"


INT = ScalarType("int")
FLOAT = ScalarType("float")
VOID = VoidType()


def decay(t: Type) -> Type:
    """Array-to-pointer decay, as applied to call arguments and most
    expression contexts in C."""
    if isinstance(t, ArrayType):
        return PointerType(t.elem)
    return t


def is_float(t: Type) -> bool:
    return t == FLOAT


def common_arith_type(a: Type, b: Type) -> Type:
    """Usual arithmetic conversions restricted to int/float."""
    if FLOAT in (a, b):
        return FLOAT
    return INT

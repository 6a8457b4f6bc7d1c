"""Built-in (intrinsic) functions available to mini-C programs.

Built-ins fall into three groups:

* math/IO helpers programs may call directly (``__cos``, ``__abs``, ...);
* cast operators the parser desugars ``(int) e`` into (``__cast_int``);
* reuse/profiling intrinsics that only compiler passes emit
  (``__reuse_probe`` and friends) — these are the runtime interface of the
  computation-reuse transformation (Figure 2(b) of the paper).

The registry here is shared between semantic analysis (typing) and the
runtime (implementations live in :mod:`repro.runtime.intrinsics`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import FLOAT, INT, VOID, Type


@dataclass(frozen=True)
class BuiltinSig:
    """Signature of a built-in function.

    ``variadic`` built-ins accept any argument count >= ``min_args``;
    argument types are checked loosely (scalars/pointers as needed).
    """

    name: str
    ret: Type
    min_args: int
    variadic: bool = False
    # True for intrinsics that only compiler-inserted code may reference.
    compiler_only: bool = False
    # True for profiling stubs that must not perturb the cost model.
    zero_cost: bool = False


_BUILTINS = [
    # User-callable helpers -------------------------------------------------
    BuiltinSig("__abs", INT, 1),
    BuiltinSig("__fabs", FLOAT, 1),
    BuiltinSig("__cos", FLOAT, 1),
    BuiltinSig("__sin", FLOAT, 1),
    BuiltinSig("__sqrt", FLOAT, 1),
    BuiltinSig("__floor", FLOAT, 1),
    BuiltinSig("__min", INT, 2),
    BuiltinSig("__max", INT, 2),
    BuiltinSig("__print_int", VOID, 1),
    BuiltinSig("__assert", VOID, 1),
    # Input streams: workloads read pre-generated data through these.
    BuiltinSig("__input_int", INT, 0),
    BuiltinSig("__input_float", FLOAT, 0),
    BuiltinSig("__input_avail", INT, 0),
    # Output sink: workloads emit results for checksumming.
    BuiltinSig("__output_int", VOID, 1),
    BuiltinSig("__output_float", VOID, 1),
    # Casts (emitted by the parser for `(int) e` / `(float) e`) ------------
    BuiltinSig("__cast_int", INT, 1),
    BuiltinSig("__cast_float", FLOAT, 1),
    # Computation-reuse runtime interface (compiler-emitted) ----------------
    BuiltinSig("__reuse_probe", INT, 1, variadic=True, compiler_only=True),
    BuiltinSig("__reuse_out_i", INT, 2, compiler_only=True),
    BuiltinSig("__reuse_out_f", FLOAT, 2, compiler_only=True),
    BuiltinSig("__reuse_out_arr", VOID, 3, compiler_only=True),
    BuiltinSig("__reuse_commit", VOID, 1, variadic=True, compiler_only=True),
    BuiltinSig("__reuse_end", VOID, 1, compiler_only=True),
    # Value-set profiling stubs (compiler-emitted, zero cost) ---------------
    BuiltinSig("__profile", VOID, 1, variadic=True, compiler_only=True, zero_cost=True),
    BuiltinSig("__seg_enter", VOID, 1, compiler_only=True, zero_cost=True),
    BuiltinSig("__seg_exit", VOID, 1, compiler_only=True, zero_cost=True),
]

BUILTINS: dict[str, BuiltinSig] = {b.name: b for b in _BUILTINS}

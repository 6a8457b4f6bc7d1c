"""Implementations of mini-C built-in (intrinsic) functions.

Each intrinsic is compiled into a closure, like every other expression.
The computation-reuse intrinsics (``__reuse_*``) implement the runtime
half of the paper's transformation: probing, reading, and committing the
per-segment hash tables installed on the machine.  Their cost accounting
follows section 2.1 of the paper — work proportional to the input size on
a probe, proportional to the output size on a hit copy or a miss commit,
plus a fixed per-probe overhead.  A hit and a miss therefore charge the
same number of extra operations, as the paper notes.
"""

from __future__ import annotations

import math

from ..errors import InterpError
from ..minic import astnodes as ast
from ..minic.types import FLOAT, PointerType, decay
from .costs import ALU, FALU, HASH_FIXED, HASH_WORD, IO, MATH
from .values import copy_into, float_bits, to_u32, wrap32

_KIND_INT = 0
_KIND_FLOAT = 1
_KIND_AGGREGATE = 2


def _segment_id(args: list[ast.Expr], name: str) -> int:
    if not args or not isinstance(args[0], ast.IntLit):
        raise InterpError(f"{name}: first argument must be a literal segment id")
    return args[0].value


def _value_kind(fc, expr: ast.Expr) -> int:
    t = decay(fc.typer.type_of(expr))
    if isinstance(t, PointerType):
        return _KIND_AGGREGATE
    if t == FLOAT:
        return _KIND_FLOAT
    return _KIND_INT


def _append_words(words: list[int], value, kind: int) -> None:
    if kind == _KIND_INT:
        words.append(to_u32(value))
    elif kind == _KIND_FLOAT:
        words.append(float_bits(value))
    else:
        _flatten_aggregate(words, value)


def _flatten_aggregate(words: list[int], value) -> None:
    if type(value) is tuple:
        backing, offset = value
        value = backing[offset:]
    if not isinstance(value, list):
        raise InterpError("aggregate key input is not an array")
    for item in value:
        if isinstance(item, list):
            _flatten_aggregate(words, item)
        elif isinstance(item, float):
            words.append(float_bits(item))
        else:
            words.append(to_u32(item))


def _resolve_aggregate(value) -> list:
    if type(value) is tuple:
        backing, offset = value
        if offset == 0:
            return backing
        return backing[offset:]
    if isinstance(value, list):
        return value
    raise InterpError("expected an array value")


def _count_words(value) -> int:
    if isinstance(value, list):
        return sum(_count_words(v) for v in value)
    return 1


def compile_builtin(name: str, args: list[ast.Expr], fc):
    """Compile a call to builtin ``name``; ``fc`` is the function compiler."""
    machine = fc.machine
    ctr = fc.ctr

    # -- computation-reuse runtime ------------------------------------------
    if name == "__reuse_probe":
        seg = _segment_id(args, name)
        fc.record_site(seg, "probe_line")
        builders = [
            (fc.compile_expr(a), _value_kind(fc, a)) for a in args[1:]
        ]

        def run_probe(fr, seg=seg, builders=builders, machine=machine, ctr=ctr):
            table = machine.table_for(seg)
            # adaptive deactivation: a bypassed probe costs one flag test
            if table.bypassed:
                ctr[ALU] += 1
                table.push_bypass()
                return 0
            words: list[int] = []
            for closure, kind in builders:
                _append_words(words, closure(fr), kind)
            ctr[HASH_FIXED] += 1
            ctr[HASH_WORD] += len(words)
            return 1 if table.probe(tuple(words)) else 0

        cycle_profiler = machine.cycle_profiler
        if cycle_profiler is not None:
            # Attribution wrapper (compiled in only when profiling): the
            # probe opens the segment's attribution frame; its own cost —
            # key construction, hashing, or the bypassed flag test — is
            # overhead.  A bypassed probe returns 0 like a miss; it is
            # told apart by the _BYPASSED sentinel the bypass branch
            # pushed (a static table's pending_bypassed is always False).
            def run_probe_profiled(
                fr, seg=seg, run_probe=run_probe, machine=machine,
                prof=cycle_profiler,
            ):
                prof.probe_begin(seg)
                r = run_probe(fr)
                prof.probe_end(
                    seg,
                    hit=r == 1,
                    bypassed=machine.table_for(seg).pending_bypassed(),
                )
                return r

            run_probe = run_probe_profiled

        return run_probe

    if name in ("__reuse_out_i", "__reuse_out_f"):
        seg = _segment_id(args, name)
        if not isinstance(args[1], ast.IntLit):
            raise InterpError(f"{name}: output position must be a literal")
        pos = args[1].value

        def run_out(fr, seg=seg, pos=pos, machine=machine, ctr=ctr):
            ctr[HASH_WORD] += 1
            return machine.table_for(seg).output(pos)

        return run_out

    if name == "__reuse_out_arr":
        seg = _segment_id(args, name)
        if not isinstance(args[1], ast.IntLit):
            raise InterpError(f"{name}: output position must be a literal")
        pos = args[1].value
        dest = fc.compile_expr(args[2])

        def run_out_arr(fr, seg=seg, pos=pos, dest=dest, machine=machine, ctr=ctr):
            stored = machine.table_for(seg).output(pos)
            ctr[HASH_WORD] += _count_words(stored)
            target = dest(fr)
            if type(target) is tuple:
                backing, offset = target
                for i, item in enumerate(stored):
                    backing[offset + i] = item
            else:
                copy_into(target, list(stored) if isinstance(stored, tuple) else stored)
            return 0

        return run_out_arr

    if name == "__reuse_commit":
        seg = _segment_id(args, name)
        fc.record_site(seg, "commit_line")
        outs = [
            (fc.compile_expr(a), _value_kind(fc, a)) for a in args[1:]
        ]

        def run_commit(fr, seg=seg, outs=outs, machine=machine, ctr=ctr):
            table = machine.table_for(seg)
            if table.pending_bypassed():
                ctr[ALU] += 1
                table.commit(())
                return 0
            values = []
            n_words = 0
            for closure, kind in outs:
                v = closure(fr)
                if kind == _KIND_AGGREGATE:
                    v = _resolve_aggregate(v)
                    n_words += _count_words(v)
                else:
                    n_words += 1
                values.append(v)
            ctr[HASH_WORD] += n_words
            machine.table_for(seg).commit(tuple(values))
            return 0

        cycle_profiler = machine.cycle_profiler
        if cycle_profiler is None:
            return run_commit

        # The commit ends the executed body and is itself overhead
        # (output serialization + table write); it closes the frame the
        # probe opened.
        def run_commit_profiled(
            fr, seg=seg, run_commit=run_commit, prof=cycle_profiler
        ):
            prof.commit_begin(seg)
            r = run_commit(fr)
            prof.segment_exit(seg)
            return r

        return run_commit_profiled

    if name == "__reuse_end":
        seg = _segment_id(args, name)
        fc.record_site(seg, "end_line")

        def run_end(fr, seg=seg, machine=machine):
            machine.table_for(seg).finish()
            return 0

        cycle_profiler = machine.cycle_profiler
        if cycle_profiler is None:
            return run_end

        # Hit path: the output restores ran in the overhead phase the
        # probe left open; __reuse_end closes the frame.
        def run_end_profiled(fr, seg=seg, run_end=run_end, prof=cycle_profiler):
            r = run_end(fr)
            prof.segment_exit(seg)
            return r

        return run_end_profiled

    # -- profiling stubs (zero cost) -------------------------------------------
    if name == "__profile":
        seg = _segment_id(args, name)
        builders = [
            (fc.compile_expr(a), _value_kind(fc, a)) for a in args[1:]
        ]
        # Profiling stubs must not perturb the tally: snapshot-and-restore
        # the counters around argument evaluation.
        def run_profile(fr, seg=seg, builders=builders, machine=machine, ctr=ctr):
            profiler = machine.profiler
            if profiler is None:
                return 0
            saved = list(ctr)
            words: list[int] = []
            for closure, kind in builders:
                _append_words(words, closure(fr), kind)
            ctr[:] = saved
            profiler.record(seg, tuple(words))
            return 0

        return run_profile

    if name == "__seg_enter":
        seg = _segment_id(args, name)

        def run_seg_enter(fr, seg=seg, machine=machine):
            profiler = machine.profiler
            if profiler is not None:
                profiler.segment_enter(seg)
            return 0

        return run_seg_enter

    if name == "__seg_exit":
        seg = _segment_id(args, name)

        def run_seg_exit(fr, seg=seg, machine=machine):
            profiler = machine.profiler
            if profiler is not None:
                profiler.segment_exit(seg)
            return 0

        return run_seg_exit

    # -- I/O streams --------------------------------------------------------------
    if name == "__input_int":

        def run_in_i(fr, machine=machine, ctr=ctr):
            ctr[IO] += 1
            return wrap32(int(machine.next_input()))

        return run_in_i

    if name == "__input_float":

        def run_in_f(fr, machine=machine, ctr=ctr):
            ctr[IO] += 1
            return float(machine.next_input())

        return run_in_f

    if name == "__input_avail":
        return lambda fr, machine=machine: machine.input_available()

    if name in ("__output_int", "__output_float"):
        value = fc.compile_expr(args[0])

        def run_out_v(fr, value=value, machine=machine, ctr=ctr):
            ctr[IO] += 1
            machine.emit(value(fr))
            return 0

        return run_out_v

    if name == "__print_int":
        value = fc.compile_expr(args[0])

        def run_print(fr, value=value, machine=machine):
            machine.debug_log.append(value(fr))
            return 0

        return run_print

    if name == "__assert":
        value = fc.compile_expr(args[0])

        def run_assert(fr, value=value):
            if not value(fr):
                raise InterpError("__assert failed")
            return 0

        return run_assert

    # -- casts ---------------------------------------------------------------------
    if name == "__cast_int":
        value = fc.compile_expr(args[0])
        from_float = _value_kind(fc, args[0]) == _KIND_FLOAT
        cls = FALU if from_float else ALU

        def run_cast_i(fr, value=value, ctr=ctr, cls=cls):
            ctr[cls] += 1
            return wrap32(int(value(fr)))

        return run_cast_i

    if name == "__cast_float":
        value = fc.compile_expr(args[0])

        def run_cast_f(fr, value=value, ctr=ctr):
            ctr[FALU] += 1
            return float(value(fr))

        return run_cast_f

    # -- math helpers ---------------------------------------------------------------
    if name == "__abs":
        value = fc.compile_expr(args[0])

        def run_abs(fr, value=value, ctr=ctr):
            ctr[ALU] += 1
            return wrap32(abs(value(fr)))

        return run_abs

    if name == "__fabs":
        value = fc.compile_expr(args[0])

        def run_fabs(fr, value=value, ctr=ctr):
            ctr[FALU] += 1
            return abs(float(value(fr)))

        return run_fabs

    if name in ("__min", "__max"):
        a = fc.compile_expr(args[0])
        b = fc.compile_expr(args[1])
        fn = min if name == "__min" else max

        def run_minmax(fr, a=a, b=b, fn=fn, ctr=ctr):
            ctr[ALU] += 1
            return fn(a(fr), b(fr))

        return run_minmax

    if name in ("__cos", "__sin", "__sqrt", "__floor"):
        value = fc.compile_expr(args[0])
        impl = {
            "__cos": math.cos,
            "__sin": math.sin,
            "__sqrt": _checked_sqrt,
            "__floor": math.floor,
        }[name]

        def run_math(fr, value=value, impl=impl, ctr=ctr):
            ctr[MATH] += 1
            return float(impl(float(value(fr))))

        return run_math

    raise InterpError(f"builtin {name!r} has no implementation")


def _checked_sqrt(x: float) -> float:
    if x < 0:
        raise InterpError("__sqrt of negative value")
    return math.sqrt(x)

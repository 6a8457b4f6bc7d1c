"""Interpreter throughput benchmark: the unfused closure oracle vs the VM.

Measures raw interpreter speed (dynamic mini-C operations per second and
wall-clock seconds) over seven workloads at O0 and O3, in two
configurations *in the same run* — the closure backend (the unfused
reference oracle) and the register-bytecode VM (the default engine) —
and writes ``BENCH_interp.json`` at the repo root so the perf trajectory
is tracked from PR to PR:

    {"engine": "vm", "ops_per_sec": <vm>, "suite_seconds": <vm>,
     "unfused_ops_per_sec": ..., "unfused_suite_seconds": ...,
     "speedup": <unfused seconds / vm seconds>,
     "per_workload": {...},
     "tracer": {"disabled_ns_per_span": ..., "enabled_ns_per_span": ...},
     "event_log": {"disabled_ns_per_site": ..., "enabled_ns_per_emit": ...},
     "source_map": {"compile_seconds_off": ..., "compile_seconds_on": ...,
                    "compile_overhead_pct": ..., "run_seconds_off": ...,
                    "run_seconds_on": ..., "run_overhead_pct": ...}}

Both configurations execute the identical dynamic op stream (the run
asserts it), so the throughput ratio is a pure execution-engine
comparison.  The ``tracer`` section is the observability overhead
floor: what one ``tracer.span(...)`` costs with tracing off (the price
every untraced run pays per instrumentation point) and with tracing on.

Run directly (``python benchmarks/bench_interp.py``) or via pytest
(``pytest benchmarks/bench_interp.py``).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.minic.parser import parse_program
from repro.minic.sema import analyze
from repro.obs import Tracer
from repro.opt.pipeline import optimize
from repro.runtime.compiler import compile_program
from repro.runtime.machine import Machine
from repro.workloads.registry import get_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_interp.json"

BENCH_WORKLOADS = (
    "G721_encode",
    "G721_decode",
    "MPEG2_encode",
    "MPEG2_decode",
    "RASTA",
    "UNEPIC",
    "GNUGO",
)
OPT_LEVELS = ("O0", "O3")
# (column label, backend); ops must agree across both.  The backends are
# pinned so the comparison survives any REPRO_BACKEND setting.
CONFIGS = (("unfused", "closures"), ("vm", "vm"))
TRACER_SPANS = 50_000
LOG_EMITS = 50_000
SRCMAP_WORKLOADS = ("UNEPIC", "G721_encode")
SRCMAP_REPEATS = 3


def _measure_one(workload, opt_level: str, backend: str) -> tuple[int, float]:
    """One measured execution; returns (dynamic ops, wall seconds)."""
    program = analyze(parse_program(workload.source))
    optimize(program, opt_level)
    machine = Machine(opt_level, backend=backend)
    machine.set_inputs(workload.default_inputs())
    compiled = compile_program(program, machine)
    start = time.perf_counter()
    compiled.run("main")
    elapsed = time.perf_counter() - start
    return sum(machine.counters), elapsed


def _ns_per_span(tracer: Tracer, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("bench", category="bench"):
            pass
    return (time.perf_counter() - start) / n * 1e9


def run_tracer_benchmark() -> dict:
    """Cost of one span, tracing off vs on.

    The disabled path is the one every untraced run pays at each
    instrumentation point (one ``if``, then the shared null context
    manager), so it is the number that keeps observability honest.
    """
    disabled = Tracer(enabled=False)
    enabled = Tracer(enabled=True)
    _ns_per_span(disabled, 1000)  # warm both paths off the books
    _ns_per_span(enabled, 1000)
    enabled.clear()
    disabled_ns = _ns_per_span(disabled, TRACER_SPANS)
    enabled_ns = _ns_per_span(enabled, TRACER_SPANS)
    enabled.clear()
    return {
        "spans_measured": TRACER_SPANS,
        "disabled_ns_per_span": round(disabled_ns, 1),
        "enabled_ns_per_span": round(enabled_ns, 1),
    }


def run_event_log_benchmark() -> dict:
    """Cost of one structured-log site, logging off vs on.

    Emitters guard with ``log = get_event_log(); if log is not None``,
    so the disabled column is the per-site price every un-observed run
    pays (one function call returning None and one ``is not None``).
    The enabled column is a real :meth:`EventLog.emit` — ring append,
    token-bucket admission, condition notify — with the rate limiter
    configured off so suppression doesn't flatter the number.
    """
    from repro.obs.log import EventLog, get_event_log

    def _guard_ns(n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            log = get_event_log()
            if log is not None:  # pragma: no cover - off in this bench
                log.emit("bench")
        return (time.perf_counter() - start) / n * 1e9

    def _emit_ns(log: EventLog, n: int) -> float:
        start = time.perf_counter()
        for i in range(n):
            log.emit("bench", level="debug", value=i)
        return (time.perf_counter() - start) / n * 1e9

    assert get_event_log() is None, "benchmark expects logging off by default"
    enabled = EventLog(capacity=1024, rate_limit_per_sec=0.0)
    _guard_ns(1000)  # warm both paths off the books
    _emit_ns(enabled, 1000)
    disabled_ns = _guard_ns(LOG_EMITS)
    enabled_ns = _emit_ns(enabled, LOG_EMITS)
    return {
        "emits_measured": LOG_EMITS,
        "disabled_ns_per_site": round(disabled_ns, 1),
        "enabled_ns_per_emit": round(enabled_ns, 1),
    }


def run_srcmap_benchmark() -> dict:
    """Compile and run cost of :class:`SourceMap` recording, off vs on.

    The source map is the pure side table behind ``repro annotate`` and
    ``repro disasm``: the VM compiler records ``(pc, line)`` and reuse
    sites while emitting, and the emitted bytecode is proven identical
    either way — so the *run* columns should be indistinguishable and
    only compilation pays a (small) recording tax.  Best-of-N wall
    clock, summed over the measured workloads at O0.
    """
    from repro.runtime.srcmap import SourceMap

    compile_s = {"off": 0.0, "on": 0.0}
    run_s = {"off": 0.0, "on": 0.0}
    for name in SRCMAP_WORKLOADS:
        workload = get_workload(name)
        for mode in ("off", "on"):
            best_compile = best_run = float("inf")
            for _ in range(SRCMAP_REPEATS):
                program = analyze(parse_program(workload.source))
                optimize(program, "O0")
                machine = Machine("O0", backend="vm")
                if mode == "on":
                    machine.source_map = SourceMap()
                machine.set_inputs(workload.default_inputs())
                t0 = time.perf_counter()
                compiled = compile_program(program, machine)
                t1 = time.perf_counter()
                compiled.run("main")
                t2 = time.perf_counter()
                best_compile = min(best_compile, t1 - t0)
                best_run = min(best_run, t2 - t1)
            compile_s[mode] += best_compile
            run_s[mode] += best_run

    def _pct(off: float, on: float) -> float:
        return round((on - off) / off * 100, 1) if off else 0.0

    return {
        "workloads": list(SRCMAP_WORKLOADS),
        "repeats": SRCMAP_REPEATS,
        "compile_seconds_off": round(compile_s["off"], 4),
        "compile_seconds_on": round(compile_s["on"], 4),
        "compile_overhead_pct": _pct(compile_s["off"], compile_s["on"]),
        "run_seconds_off": round(run_s["off"], 4),
        "run_seconds_on": round(run_s["on"], 4),
        "run_overhead_pct": _pct(run_s["off"], run_s["on"]),
    }


def run_benchmark() -> dict:
    per_workload: dict[str, dict] = {}
    totals = {label: [0, 0.0] for label, _ in CONFIGS}  # label -> [ops, seconds]
    for name in BENCH_WORKLOADS:
        workload = get_workload(name)
        entry: dict[str, float] = {}
        for opt_level in OPT_LEVELS:
            ops_seen: dict[str, int] = {}
            for label, backend in CONFIGS:
                ops, seconds = _measure_one(workload, opt_level, backend)
                totals[label][0] += ops
                totals[label][1] += seconds
                entry[f"{opt_level}_{label}_ops_per_sec"] = round(ops / seconds)
                ops_seen[label] = ops
            assert len(set(ops_seen.values())) == 1, (
                f"dynamic op count diverged for {name}@{opt_level}: {ops_seen}"
            )
        per_workload[name] = entry
    unfused_ops, unfused_seconds = totals["unfused"]
    vm_ops, vm_seconds = totals["vm"]
    return {
        "engine": "vm",
        "ops_per_sec": round(vm_ops / vm_seconds),
        "suite_seconds": round(vm_seconds, 3),
        "unfused_ops_per_sec": round(unfused_ops / unfused_seconds),
        "unfused_suite_seconds": round(unfused_seconds, 3),
        "speedup": round(unfused_seconds / vm_seconds, 2),
        "workloads": list(BENCH_WORKLOADS),
        "opt_levels": list(OPT_LEVELS),
        "per_workload": per_workload,
        "tracer": run_tracer_benchmark(),
        "event_log": run_event_log_benchmark(),
        "source_map": run_srcmap_benchmark(),
    }


def write_result(result: dict, path: pathlib.Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def test_bench_interp():
    result = run_benchmark()
    write_result(result)
    assert result["ops_per_sec"] >= 2 * result["unfused_ops_per_sec"], result


def test_bench_srcmap_overhead():
    result = run_srcmap_benchmark()
    # recording is compile-time only; both columns must be populated and
    # the recording tax stays within the same order of magnitude
    assert result["compile_seconds_on"] > 0 and result["run_seconds_on"] > 0
    assert result["compile_overhead_pct"] < 100, result


def test_bench_event_log_overhead():
    result = run_event_log_benchmark()
    assert result["disabled_ns_per_site"] < result["enabled_ns_per_emit"], result
    # a disabled site is one process-local read and one None check —
    # generous bound for noisy CI machines
    assert result["disabled_ns_per_site"] < 1_000, result


def test_bench_tracer_overhead():
    result = run_tracer_benchmark()
    assert result["disabled_ns_per_span"] < result["enabled_ns_per_span"], result
    # a disabled span is one attribute load, one `if`, and the shared
    # null context manager — generous bound for noisy CI machines
    assert result["disabled_ns_per_span"] < 2_000, result


if __name__ == "__main__":
    bench = run_benchmark()
    write_result(bench)
    print(json.dumps(bench, indent=1, sort_keys=True))

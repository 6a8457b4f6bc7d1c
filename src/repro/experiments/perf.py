"""Measurement harness behind ``repro perf record|report|check``.

:mod:`repro.obs.perfdb` is pure storage and comparison; this module does
the measuring: it runs a registered workload through the facade with the
cycle-attribution profiler attached and condenses the outcome into one
perf-store row.  A row carries everything needed to explain a regression
after the fact — cycles, checksum, per-segment attribution summary, hit
ratios, governor transition counts — keyed by (workload, opt, variant,
code version, git revision).

The gate (:func:`check_workloads`) measures the configurations named by
a committed baseline (optionally restricted to a workload subset) and
compares cycles and checksums; the simulator is deterministic, so the
default tolerance is zero and any drift is a real behavior change.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import api
from ..obs.perfdb import PerfDB, Regression, check_rows, git_revision, load_baseline
from ..obs.profiler import CycleProfile
from ..workloads import get_workload
from .adaptive import workload_config
from .cache import CODE_VERSION

# "static"/"governed" run the closure backend (the unfused reference
# oracle, pinned explicitly now that the VM is the default); "vm" is
# static tables on the register-bytecode backend — same cycles and
# checksum by the VM differential, so the gate catches either backend
# drifting.
VARIANTS = ("static", "governed", "vm")


def measure_workload(
    name: str, opt: str = "O0", variant: str = "static", metrics=None
) -> tuple[dict, api.RunResult]:
    """One profiled measured run of a registered workload.

    Returns ``(perf row, RunResult)``; the result's
    :meth:`~repro.api.RunResult.profile` holds the full attribution tree
    for reports, the row its condensed summary for the store.  Pass a
    :class:`~repro.obs.metrics.MetricsRegistry` as ``metrics`` to
    aggregate runtime counters across measurements (the dashboard does).
    """
    if variant not in VARIANTS:
        raise api.ConfigError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    workload = get_workload(name)
    program = api.compile(
        workload.source,
        api.CompileOptions(
            opt=opt,
            config=workload_config(workload),
            governed=variant == "governed",
            profile=True,
            backend="vm" if variant == "vm" else "closures",
        ),
        metrics=metrics,
    )
    inputs = workload.default_inputs()
    program.profile(inputs)
    result = program.run(inputs)
    return _build_row(name, opt, variant, result), result


def _build_row(name: str, opt: str, variant: str, result: api.RunResult) -> dict:
    metrics = result.metrics
    profile = result.profile()
    segments = profile.segments()
    return {
        "workload": name,
        "opt": opt,
        "variant": variant,
        "code_version": CODE_VERSION,
        "git": git_revision(),
        "cycles": metrics.cycles,
        "seconds": metrics.seconds,
        "energy_joules": metrics.energy_joules,
        "output_checksum": metrics.output_checksum,
        "output_count": metrics.output_count,
        "hit_ratios": {
            str(seg_id): stats.hit_ratio
            for seg_id, stats in sorted(metrics.table_stats.items())
        },
        "governor_transitions": {
            str(seg_id): len(snap["transitions"])
            for seg_id, snap in sorted(metrics.governor.items())
        },
        "segments": {
            str(seg_id): {
                "executions": att.executions,
                "hits": att.hits,
                "misses": att.misses,
                "bypassed": att.bypassed,
                "body_cycles": att.body_cycles,
                "overhead_cycles": att.overhead_cycles,
                "measured_gain": att.measured_gain,
            }
            for seg_id, att in sorted(segments.items())
        },
    }


def record_workloads(
    names: Sequence[str],
    opts: Sequence[str] = ("O0",),
    variants: Sequence[str] = ("static",),
    db: Optional[PerfDB] = None,
) -> list[dict]:
    """Measure every (workload, opt, variant) combination and append the
    rows to the store (when one is given).  Returns the rows."""
    rows = []
    for name in names:
        for opt in opts:
            for variant in variants:
                row, _ = measure_workload(name, opt, variant)
                if db is not None:
                    row = db.append(row)
                rows.append(row)
    return rows


def check_workloads(
    baseline_path: str,
    workloads: Optional[Sequence[str]] = None,
    db: Optional[PerfDB] = None,
) -> tuple[list[Regression], list[dict]]:
    """Measure the baseline's configurations and compare.

    ``workloads`` restricts the gate to a subset (CI measures two
    representative ones); unmeasured baseline rows are skipped, not
    failed.  Returns ``(regressions, measured rows)``.
    """
    baseline = load_baseline(baseline_path)
    rows = []
    for key in sorted(baseline.get("rows", {})):
        name, opt, variant = key.split("@")
        if workloads is not None and name not in workloads:
            continue
        row, _ = measure_workload(name, opt, variant)
        if db is not None:
            row = db.append(row)
        rows.append(row)
    return check_rows(rows, baseline, require_all=workloads is None), rows


def profile_for(name: str, opt: str = "O0", variant: str = "static") -> CycleProfile:
    """Convenience: just the attribution profile of one workload run."""
    _, result = measure_workload(name, opt, variant)
    return result.profile()

"""Execution-frequency profiling (the gprof/gcov stand-in).

The paper's first step confines value-set profiling "to those frequently
executed routines and loops", using standard frequency tools.  Here the
same information comes from the execution counts of the pipeline's one
:class:`ValueSetProfiler` run; this module adds the selection helper that
applies the frequency cut to them.
"""

from __future__ import annotations

from .valueset import ValueSetProfiler


def frequent_segments(
    profiler: ValueSetProfiler,
    min_executions: int,
) -> set[int]:
    """Segment ids executed at least ``min_executions`` times."""
    return {
        seg_id
        for seg_id, profile in profiler.profiles.items()
        if profile.executions >= min_executions
    }


def frequency_report(profiler: ValueSetProfiler) -> list[tuple[int, int]]:
    """(segment id, execution count), most frequent first."""
    return sorted(
        ((seg, p.executions) for seg, p in profiler.profiles.items()),
        key=lambda item: -item[1],
    )

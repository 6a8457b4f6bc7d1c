"""Builders for the paper's data figures.

* Figures 5/6 — histograms of quan input values (G721 encode/decode);
* Figures 7/8 — histograms of accessed hash-table entries (G721);
* Figure 11 — access counts of RASTA's distinct input patterns;
* Figure 12 — histogram of UNEPIC input values;
* Figure 13 — histogram of GNU Go input patterns;
* Figures 14/15 — speedup vs hash-table size at O0 / O3.

Histogram data comes straight from the value-set profiles; the
"accessed entry" figures map each distinct key through the same Jenkins
hash + modulo the deployed table uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.jenkins import hash_key_batch
from ..runtime.values import wrap32
from ..workloads.base import Workload
from ..workloads.registry import PRIMARY_WORKLOADS, get_workload
from .runner import ExperimentRunner

# Per-table byte budgets swept in figures 14/15 (the paper's x axis runs
# from 1KB to the per-program optimal size).
SWEEP_SIZES = (1024, 4096, 16384, 65536, 262144, None)  # None = optimal


@dataclass
class Histogram:
    """A binned histogram: (bin label, count) pairs in bin order."""

    title: str
    bins: list[tuple[str, int]]

    @property
    def total(self) -> int:
        return sum(count for _, count in self.bins)


def input_value_histogram(
    runner: ExperimentRunner, workload: Workload, n_bins: int = 24
) -> Histogram:
    """Figures 5/6/12: distribution of the (single-word) input values."""
    profile = runner.headline_profile(workload)
    values = []
    for key, count in profile.value_counts.items():
        values.append((wrap32(key[0]), count))
    if not values:
        return Histogram(title=f"{workload.name}: input values", bins=[])
    lo = min(v for v, _ in values)
    hi = max(v for v, _ in values)
    width = max(1, (hi - lo + n_bins) // n_bins)
    counts = [0] * n_bins
    for value, count in values:
        idx = min(n_bins - 1, (value - lo) // width)
        counts[idx] += count
    bins = [
        (f"{lo + i * width}..{lo + (i + 1) * width - 1}", counts[i])
        for i in range(n_bins)
    ]
    return Histogram(title=f"{workload.name}: histogram of input values", bins=bins)


def accessed_entry_histogram(
    runner: ExperimentRunner, workload: Workload, n_bins: int = 24
) -> Histogram:
    """Figures 7/8: which hash-table entries the accesses land on."""
    profile = runner.headline_profile(workload)
    segment = runner.headline_segment(workload)
    result = runner.pipeline(workload)
    spec = next(s for s in result.table_specs if s.segment_id == segment.seg_id)
    capacity, _ = result.table_geometry()[spec.merged_group or spec.segment_id]
    mask = capacity - 1
    keys, key_counts = profile.key_counts()
    counts_by_entry: dict[int, int] = {}
    for hashed, count in zip(hash_key_batch(keys), key_counts):
        entry = hashed & mask
        counts_by_entry[entry] = counts_by_entry.get(entry, 0) + count
    width = max(1, capacity // n_bins)
    counts = [0] * n_bins
    for entry, count in counts_by_entry.items():
        counts[min(n_bins - 1, entry // width)] += count
    bins = [
        (f"{i * width}..{(i + 1) * width - 1}", counts[i]) for i in range(n_bins)
    ]
    return Histogram(
        title=f"{workload.name}: histogram of accessed table entries", bins=bins
    )


def pattern_access_histogram(
    runner: ExperimentRunner, workload: Workload, max_patterns: int = 40
) -> Histogram:
    """Figures 11/13: access counts per distinct input pattern, most
    frequent first (the paper plots one bar per pattern)."""
    profile = runner.headline_profile(workload)
    pairs = profile.value_counts.most_common(max_patterns)
    bins = [(str(tuple(wrap32(w) for w in key)), count) for key, count in pairs]
    return Histogram(
        title=f"{workload.name}: accesses per distinct input pattern", bins=bins
    )


def figure5(runner):  # G721_encode input values
    return input_value_histogram(runner, get_workload("G721_encode"))


def figure6(runner):  # G721_decode input values
    return input_value_histogram(runner, get_workload("G721_decode"))


def figure7(runner):  # G721_encode accessed entries
    return accessed_entry_histogram(runner, get_workload("G721_encode"))


def figure8(runner):  # G721_decode accessed entries
    return accessed_entry_histogram(runner, get_workload("G721_decode"))


def figure11(runner):  # RASTA distinct input patterns
    return pattern_access_histogram(runner, get_workload("RASTA"))


def figure12(runner):  # UNEPIC input values
    return input_value_histogram(runner, get_workload("UNEPIC"))


def figure13(runner):  # GNU Go input patterns
    return pattern_access_histogram(runner, get_workload("GNUGO"))


# -- Figures 14/15: speedup vs hash table size -------------------------------------


@dataclass
class SweepSeries:
    program: str
    points: list[tuple[Optional[int], float]]  # (bytes or None=optimal, speedup)


def size_sweep(
    runner: ExperimentRunner,
    opt_level: str,
    workloads: Optional[list[Workload]] = None,
    sizes: tuple = SWEEP_SIZES,
) -> list[SweepSeries]:
    series = []
    for workload in workloads or PRIMARY_WORKLOADS:
        points = []
        for size in sizes:
            run = runner.compare(workload, opt_level=opt_level, max_table_bytes=size)
            points.append((size, run.speedup))
        series.append(SweepSeries(program=workload.name, points=points))
    return series


def figure14(runner, workloads=None, sizes: tuple = SWEEP_SIZES):
    return size_sweep(runner, "O0", workloads, sizes)


def figure15(runner, workloads=None, sizes: tuple = SWEEP_SIZES):
    return size_sweep(runner, "O3", workloads, sizes)

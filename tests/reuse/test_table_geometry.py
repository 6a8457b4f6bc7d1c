"""Reuse-table geometry has one owner.

``PipelineResult.table_geometry`` sizes every table the specs describe
(a merged group once, at its largest member's capacity);
``build_tables`` builds from it, with or without a byte cap, and
``total_table_bytes`` sums it.  A cap never grows a table past its
uncapped capacity, merged or not, so the figures 14/15 sweep point that
holds every table whole equals the optimal point.
"""

import pytest

from repro.analysis.arrays import IOShape
from repro.experiments import ExperimentRunner
from repro.experiments.figures import SWEEP_SIZES
from repro.minic.astnodes import Symbol
from repro.minic.types import INT
from repro.reuse.pipeline import PipelineConfig, PipelineResult, ReusePipeline
from repro.reuse.segments import Segment
from repro.reuse.transform import TableSpec
from repro.runtime.hashtable import entry_words, table_bytes
from repro.workloads.registry import ALL_WORKLOADS, get_workload

_INPUT_PREFIX = 1024

_cache: dict[tuple, PipelineResult] = {}


def _result(workload, inputs=None) -> PipelineResult:
    key = (workload.name, inputs is None)
    if key not in _cache:
        config = PipelineConfig(
            min_executions=workload.min_executions,
            memory_budget_bytes=workload.memory_budget_bytes,
        )
        stream = workload.default_inputs() if inputs is None else inputs
        _cache[key] = ReusePipeline(workload.source, config).run(stream)
    return _cache[key]


def _distinct(tables: dict) -> list:
    """The tables behind a build; a merged group's views share one."""
    unique = {id(t): t for t in (getattr(v, "table", v) for v in tables.values())}
    return list(unique.values())


@pytest.mark.parametrize("size", SWEEP_SIZES)
def test_gnugo_cap_never_grows_a_table(size):
    result = _result(get_workload("GNUGO"))
    assert result.merged
    uncapped = result.build_tables()
    capped = result.build_tables(max_table_bytes=size)
    assert capped.keys() == uncapped.keys()
    merged_seen = 0
    for seg_id, view in capped.items():
        table = getattr(view, "table", view)
        full = getattr(uncapped[seg_id], "table", uncapped[seg_id])
        merged_seen += table is not view
        assert table.capacity <= full.capacity
        if size is not None and table.capacity < full.capacity:
            # capped: the largest power of two that fits
            assert table.size_bytes <= size or table.capacity == 1
            assert 2 * table.size_bytes > size
    assert merged_seen


def test_gnugo_whole_tables_point_equals_optimal():
    """At 256 KiB every GNUGO table fits whole, so the run is the
    optimal run: same cycles, same speedup."""
    workload = get_workload("GNUGO")
    runner = ExperimentRunner()
    assert runner.pipeline(workload).total_table_bytes() <= 262144
    capped = runner.compare(workload, "O0", max_table_bytes=262144)
    optimal = runner.compare(workload, "O0")
    assert capped.transformed.cycles == optimal.transformed.cycles
    assert capped.speedup == optimal.speedup


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_total_bytes_equal_built_tables(workload, governed):
    result = _result(workload, workload.default_inputs()[:_INPUT_PREFIX])
    tables = _distinct(result.build_tables(governed=governed))
    assert result.total_table_bytes() == sum(t.size_bytes for t in tables)


def _segment(seg_id: int, ins: list, out_words: int) -> Segment:
    segment = Segment(
        seg_id=seg_id, kind="loop", func_name="f", region_root=None, control=None
    )
    segment.inputs = ins
    segment.outputs = [IOShape(Symbol(f"o{seg_id}", INT, "local"), out_words, False, False)]
    return segment


def test_merged_group_sized_by_largest_member():
    """The first member asks for 5 entries, the second for 100: the
    shared table takes 128 however it is counted."""
    ins = [IOShape(Symbol(n, INT, "local"), 1, False, False) for n in "ab"]
    members = [_segment(1, ins, 1), _segment(2, ins, 3)]
    specs = []
    for segment, capacity in zip(members, (5, 100)):
        segment.merged_group = "merged1"
        specs.append(
            TableSpec(
                segment_id=segment.seg_id,
                capacity=capacity,
                in_words=segment.in_words,
                out_words=segment.out_words,
                merged_group="merged1",
            )
        )
    single = _segment(3, ins[:1], 2)
    specs.append(TableSpec(segment_id=3, capacity=9, in_words=1, out_words=2))
    result = PipelineResult(
        program=None,
        segments=members + [single],
        profiled=[],
        profitable=[],
        selected=members + [single],
        table_specs=specs,
        merged={"merged1": members},
        specializations=[],
        profiles={},
    )
    expected = table_bytes(128, entry_words(2, [1, 3], merged=True)) + table_bytes(
        16, entry_words(1, [2])
    )
    for governed in (False, True):
        tables = _distinct(result.build_tables(governed=governed))
        assert sorted(t.capacity for t in tables) == [16, 128]
        assert sum(t.size_bytes for t in tables) == expected
    assert result.total_table_bytes() == expected

"""Tests for the value-set profiler."""

import random

import pytest

from repro.profiling import LRU_SIZES, ValueSetProfiler, frequency_report, frequent_segments
from repro.runtime import Machine
from repro.runtime.hashtable import LRUBuffer


def make_profiler(allowed=None):
    machine = Machine("O0")
    return machine, ValueSetProfiler(machine, allowed=allowed)


class TestRecording:
    def test_reuse_rate(self):
        _, p = make_profiler()
        for v in [1, 2, 1, 2, 1, 2, 3, 1]:
            p.record(0, (v,))
        profile = p.profile(0)
        assert profile.executions == 8
        assert profile.distinct_inputs == 3
        assert profile.reuse_rate == pytest.approx(1 - 3 / 8)

    def test_reuse_rate_zero_when_all_distinct(self):
        _, p = make_profiler()
        for v in range(10):
            p.record(0, (v,))
        assert p.profile(0).reuse_rate == 0.0

    def test_never_executed(self):
        _, p = make_profiler()
        assert p.profile(9).reuse_rate == 0.0
        assert p.profile(9).mean_cycles == 0.0

    def test_histogram_most_common_first(self):
        _, p = make_profiler()
        for v in [5, 5, 5, 7, 7, 9]:
            p.record(0, (v,))
        hist = p.profile(0).histogram()
        assert hist[0] == ((5,), 3)

    def test_allowed_filter(self):
        _, p = make_profiler(allowed={1})
        p.record(0, (5,))
        p.record(1, (5,))
        assert p.profile(0).executions == 0
        assert p.profile(1).executions == 1


class TestLRUSimulation:
    def test_lru_sizes_tracked(self):
        _, p = make_profiler()
        for v in [1, 1, 2, 1]:
            p.record(0, (v,))
        profile = p.profile(0)
        for size in LRU_SIZES:
            assert 0.0 <= profile.lru_hit_ratio(size) <= 1.0
        # 1-entry: hit on the second 1 only
        assert profile.lru_hit_ratio(1) == pytest.approx(1 / 4)
        # 4-entry: second 1 and fourth 1 hit
        assert profile.lru_hit_ratio(4) == pytest.approx(2 / 4)

    def test_hit_ratio_monotone_in_size(self):
        _, p = make_profiler()
        rng = random.Random(3)
        for _ in range(500):
            p.record(0, (rng.randrange(40),))
        profile = p.profile(0)
        ratios = [profile.lru_hit_ratio(s) for s in LRU_SIZES]
        assert ratios == sorted(ratios)

    def test_replayed_ratio_equals_eager_buffer(self):
        # two-word keys with heavy repeats and a long tail, as a segment
        # with a skewed input distribution would produce
        rng = random.Random(11)
        keys = [
            (rng.randrange(6), rng.randrange(3)) if rng.random() < 0.7
            else (rng.randrange(200), 9)
            for _ in range(3000)
        ]
        _, p = make_profiler()
        eager = {size: LRUBuffer(size) for size in LRU_SIZES + (2, 128)}
        for key in keys:
            p.record(0, key)
            for buffer in eager.values():
                buffer.access(key)
        profile = p.profile(0)
        assert len(profile.key_stream) == len(keys)
        for size, buffer in eager.items():
            assert profile.lru_hit_ratio(size) == buffer.hit_ratio
            # a second call returns the cached replay
            assert profile.lru_hit_ratio(size) == buffer.hit_ratio
        assert 0.0 < profile.lru_hit_ratio(1) < profile.lru_hit_ratio(64) < 1.0

    def test_key_stream_interns_input_sets(self):
        _, p = make_profiler()
        for v in [3, 1, 3, 3, 2, 1]:
            p.record(0, (v,))
        profile = p.profile(0)
        assert list(profile.key_stream) == [0, 1, 0, 0, 2, 1]
        assert profile.value_counts == {(3,): 3, (1,): 2, (2,): 1}


class TestSegmentTiming:
    def test_inclusive_cycles(self):
        machine, p = make_profiler()
        p.segment_enter(0)
        machine.counters[7] += 100  # 100 ALU ops at 1 cycle
        p.segment_exit(0)
        p.record(0, (1,))
        assert p.profile(0).inclusive_cycles == 100
        assert p.profile(0).mean_cycles == 100.0

    def test_recursion_counts_outermost_only(self):
        machine, p = make_profiler()
        p.segment_enter(0)
        machine.counters[7] += 50
        p.segment_enter(0)  # recursive instance
        machine.counters[7] += 50
        p.segment_exit(0)
        machine.counters[7] += 50
        p.segment_exit(0)
        assert p.profile(0).inclusive_cycles == 150


class TestFrequencyHelpers:
    def test_frequent_segments(self):
        _, p = make_profiler()
        for v in range(10):
            p.record(1, (v,))
        p.record(2, (0,))
        assert frequent_segments(p, 5) == {1}
        assert frequent_segments(p, 1) == {1, 2}

    def test_frequency_report_sorted(self):
        _, p = make_profiler()
        for _ in range(3):
            p.record(1, (0,))
        for _ in range(7):
            p.record(2, (0,))
        assert frequency_report(p) == [(2, 7), (1, 3)]

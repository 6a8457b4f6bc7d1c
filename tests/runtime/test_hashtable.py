"""Tests for reuse tables, merged tables, and LRU buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.hashtable import LRUBuffer, MergedReuseTable, ReuseTable
from repro.runtime.jenkins import hash_key_words, jenkins_one_at_a_time


class TestJenkins:
    def test_single_word_key_is_identity(self):
        assert hash_key_words((42,)) == 42
        assert hash_key_words((0xFFFFFFFF,)) == 0xFFFFFFFF

    def test_multi_word_key_hashes(self):
        h = hash_key_words((1, 2, 3))
        assert 0 <= h <= 0xFFFFFFFF
        assert h == hash_key_words((1, 2, 3))
        assert h != hash_key_words((3, 2, 1))

    def test_one_at_a_time_known_properties(self):
        assert jenkins_one_at_a_time(b"") == 0
        assert jenkins_one_at_a_time(b"a") != jenkins_one_at_a_time(b"b")

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=2, max_size=8))
    def test_hash_in_u32_range(self, words):
        h = hash_key_words(tuple(words))
        assert 0 <= h <= 0xFFFFFFFF


class TestReuseTable:
    def test_miss_then_hit(self):
        t = ReuseTable("s", capacity=16, in_words=1, out_words=1)
        assert t.probe((5,)) is False
        t.commit((50,))
        assert t.probe((5,)) is True
        assert t.output(0) == 50
        t.finish()
        assert t.stats.probes == 2
        assert t.stats.hits == 1
        assert t.stats.misses == 1

    def test_capacity_rounded_to_power_of_two(self):
        t = ReuseTable("s", capacity=9, in_words=1, out_words=1)
        assert t.capacity == 16

    def test_collision_replaces_entry(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        # keys 1 and 5 collide in a 4-entry table (1 % 4 == 5 % 4).
        t.probe((1,))
        t.commit((10,))
        assert t.probe((5,)) is False
        assert t.stats.collisions == 1
        t.commit((50,))
        # the old key was evicted
        assert t.probe((1,)) is False
        t.commit((10,))

    def test_multiword_outputs(self):
        t = ReuseTable("s", capacity=8, in_words=1, out_words=3)
        t.probe((7,))
        t.commit((1, 2.5, 3))
        assert t.probe((7,)) is True
        assert t.output(1) == 2.5
        t.finish()

    def test_array_outputs_deep_copied(self):
        t = ReuseTable("s", capacity=8, in_words=1, out_words=4)
        arr = [1, 2, 3, 4]
        t.probe((9,))
        t.commit((arr,))
        arr[0] = 99
        assert t.probe((9,)) is True
        assert t.output(0) == [1, 2, 3, 4]
        t.finish()

    def test_pending_stack_supports_nesting(self):
        t = ReuseTable("s", capacity=8, in_words=1, out_words=1)
        assert t.probe((1,)) is False  # outer miss
        assert t.probe((2,)) is False  # inner (recursive) miss
        t.commit((20,))  # inner commits first (LIFO)
        t.commit((10,))
        assert t.probe((1,)) is True
        assert t.output(0) == 10
        t.finish()

    def test_size_bytes(self):
        t = ReuseTable("s", capacity=64, in_words=2, out_words=3)
        assert t.size_bytes == 64 * 5 * 4

    def test_clear_resets(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        t.probe((1,))
        t.commit((2,))
        t.clear()
        assert t.stats.probes == 0
        assert t.occupied == 0
        assert t.probe((1,)) is False

    def test_take_unpublished_returns_growth_once(self):
        def feed(t):
            t.probe((1,))
            t.commit((2,))
            t.probe((5,))  # same slot, different key: a collision
            t.commit((3,))

        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        feed(t)
        assert t.take_unpublished() == {
            "probes": 2, "hits": 0, "misses": 2,
            "collisions": 1, "empty_misses": 1, "evictions": 1,
        }
        assert set(t.take_unpublished().values()) == {0}
        # the cursor is not part of the statistics
        twin = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        feed(twin)
        assert t.stats == twin.stats
        t.probe((5,))
        t.finish()
        assert t.take_unpublished()["hits"] == 1

    def test_clear_resets_the_publish_cursor(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        t.probe((1,))
        t.commit((2,))
        t.take_unpublished()
        t.clear()
        t.probe((1,))
        t.commit((2,))
        assert t.take_unpublished()["probes"] == 1

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_deterministic_function_property(self, keys):
        """With a large enough table, the reuse table behaves as a memo for
        a deterministic function: every hit returns f(key)."""
        f = lambda k: (k * k + 1,)
        t = ReuseTable("s", capacity=1024, in_words=1, out_words=1)
        for k in keys:
            if t.probe((k,)):
                assert t.output(0) == f(k)[0]
                t.finish()
            else:
                t.commit(f(k))

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
    def test_stats_invariants(self, keys):
        t = ReuseTable("s", capacity=64, in_words=1, out_words=1)
        for k in keys:
            if t.probe((k,)):
                t.finish()
            else:
                t.commit((k,))
        assert t.stats.hits + t.stats.misses == t.stats.probes == len(keys)
        assert t.stats.collisions <= t.stats.misses


class TestMergedReuseTable:
    def _table(self):
        return MergedReuseTable(
            "m", capacity=16, in_words=2, member_out_words={"a": 1, "b": 2}
        )

    def test_members_share_keys_but_not_outputs(self):
        m = self._table()
        va, vb = m.view("a"), m.view("b")
        assert va.probe((1, 2)) is False
        va.commit((10,))
        # Same key, other member: the key is present but its output bit is
        # not set, so this is a miss.
        assert vb.probe((1, 2)) is False
        vb.commit((20, 21))
        assert va.probe((1, 2)) is True
        assert va.output(0) == 10
        va.finish()
        assert vb.probe((1, 2)) is True
        assert vb.output(1) == 21
        vb.finish()

    def test_replacement_invalidates_all_members(self):
        m = MergedReuseTable("m", capacity=4, in_words=1, member_out_words={"a": 1, "b": 1})
        va, vb = m.view("a"), m.view("b")
        va.probe((1,))
        va.commit((10,))
        vb.probe((1,))
        vb.commit((11,))
        # key 5 collides with key 1 (5 % 4 == 1); member a replaces the entry
        va.probe((5,))
        va.commit((50,))
        # b's output for key 5 must not leak from key 1's record
        assert vb.probe((5,)) is False
        vb.commit((51,))
        assert vb.probe((5,)) is True
        assert vb.output(0) == 51
        vb.finish()

    def test_size_includes_bitvector_and_all_outputs(self):
        m = self._table()
        # entry = 2 key words + 1 bitvector word + (1 + 2) output words
        assert m.entry_words == 6
        assert m.size_bytes == 16 * 6 * 4

    def test_per_member_stats(self):
        m = self._table()
        va = m.view("a")
        va.probe((1, 1))
        va.commit((1,))
        va.probe((1, 1))
        va.finish()
        assert m.stats_per_member["a"].hits == 1
        assert m.stats_per_member["b"].probes == 0
        assert m.stats.probes == 2

    def test_unknown_member_raises(self):
        with pytest.raises(KeyError):
            self._table().view("zzz")


class TestLRUBuffer:
    def test_hit_and_miss(self):
        b = LRUBuffer(2)
        assert b.access((1,)) is False
        assert b.access((1,)) is True
        assert b.access((2,)) is False
        assert b.access((3,)) is False  # evicts 1
        assert b.access((1,)) is False

    def test_lru_order_updated_on_hit(self):
        b = LRUBuffer(2)
        b.access((1,))
        b.access((2,))
        b.access((1,))  # 1 becomes MRU
        b.access((3,))  # evicts 2
        assert b.access((1,)) is True
        assert b.access((2,)) is False

    def test_single_entry_buffer(self):
        b = LRUBuffer(1)
        assert b.access((1,)) is False
        assert b.access((1,)) is True
        assert b.access((2,)) is False
        assert b.access((1,)) is False

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUBuffer(0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=20), max_size=300),
    )
    def test_hit_ratio_bounds_and_monotone_capacity(self, cap, keys):
        small = LRUBuffer(cap)
        big = LRUBuffer(cap * 4)
        for k in keys:
            small.access((k,))
            big.access((k,))
        assert small.stats.hits <= big.stats.hits
        assert 0.0 <= small.hit_ratio <= 1.0


class TestTelemetryInvariants:
    """The PR-2 telemetry counters and their accounting identities."""

    def test_every_miss_is_collision_or_empty(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        t.probe((1,))          # empty miss
        t.commit((10,))
        t.probe((1,))          # hit
        t.finish()
        t.probe((5,))          # collision (1 % 4 == 5 % 4)
        t.commit((50,))
        s = t.stats
        assert (s.misses, s.collisions, s.empty_misses) == (2, 1, 1)
        assert s.misses == s.collisions + s.empty_misses

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=300))
    @settings(max_examples=50)
    def test_invariants_hold_on_any_stream(self, keys):
        t = ReuseTable("s", capacity=8, in_words=1, out_words=1)
        for k in keys:
            if t.probe((k,)):
                t.finish()
            else:
                t.commit((k * 2,))
        s = t.stats
        assert s.probes == s.hits + s.misses
        assert s.misses == s.collisions + s.empty_misses
        assert s.occupancy_hwm == t.occupied <= t.capacity
        # evictions happen only on collisions followed by commit
        assert s.evictions <= s.collisions

    def test_eviction_counted_on_replacement(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        t.probe((1,))
        t.commit((10,))
        t.probe((5,))
        t.commit((50,))        # replaces key 1
        assert t.stats.evictions == 1
        assert t.occupied == 1  # replacement does not grow occupancy
        assert t.stats.occupancy_hwm == 1

    def test_clear_resets_telemetry(self):
        t = ReuseTable("s", capacity=4, in_words=1, out_words=1)
        t.probe((1,))
        t.commit((10,))
        t.clear()
        assert t.occupied == 0
        assert t.stats.probes == 0
        assert t.stats.samples == []

    def test_merged_unset_bit_is_empty_miss(self):
        m = MergedReuseTable("g", capacity=8, in_words=1,
                             member_out_words={"a": 1, "b": 1})
        va, vb = m.view("a"), m.view("b")
        va.probe((3,))
        va.commit((30,))
        # same key through the other member: entry occupied by the *same*
        # key, just no record for b -> an empty miss, not a collision
        assert vb.probe((3,)) is False
        assert vb.stats.empty_misses == 1
        assert vb.stats.collisions == 0
        vb.commit((33,))
        assert vb.probe((3,)) is True
        vb.finish()

    def test_merged_aggregate_sums_and_maxes(self):
        m = MergedReuseTable("g", capacity=8, in_words=1,
                             member_out_words={"a": 1, "b": 1})
        va, vb = m.view("a"), m.view("b")
        for k in (1, 2, 3):
            va.probe((k,))
            va.commit((k,))
        vb.probe((1,))
        vb.commit((11,))
        agg = m.stats
        assert agg.probes == va.stats.probes + vb.stats.probes
        assert agg.misses == agg.collisions + agg.empty_misses
        assert agg.occupancy_hwm == max(
            va.stats.occupancy_hwm, vb.stats.occupancy_hwm
        )

    def test_merged_eviction_attributed_to_committer(self):
        m = MergedReuseTable("g", capacity=4, in_words=1,
                             member_out_words={"a": 1, "b": 1})
        va, vb = m.view("a"), m.view("b")
        va.probe((1,))
        va.commit((10,))
        vb.probe((5,))         # collides with key 1 in a 4-entry table
        vb.commit((50,))       # evicts the whole entry
        assert vb.stats.evictions == 1
        assert va.stats.evictions == 0

    def test_lru_buffer_invariant(self):
        b = LRUBuffer(2)
        for k in (1, 2, 3, 1, 2, 3):
            b.access((k,))
        s = b.stats
        assert s.misses == s.collisions + s.empty_misses
        assert s.occupancy_hwm == 2
        assert s.evictions == 4  # every miss after warm-up evicts


class TestHitRatioSampling:
    def test_samples_record_probe_and_hit_counts(self):
        from repro.runtime.hashtable import TableStats

        s = TableStats()
        s.record_probe(False)
        s.record_probe(True)
        assert s.samples == [[1, 0], [2, 1]]
        assert s.hit_ratio_series() == [(1, 0.0), (2, 0.5)]

    def test_budget_never_exceeded_and_interval_doubles(self):
        from repro.runtime.hashtable import SAMPLE_BUDGET, TableStats

        s = TableStats()
        for i in range(10_000):
            s.record_probe(i % 2 == 0)
        assert len(s.samples) < SAMPLE_BUDGET
        assert s.sample_interval > 1
        # the decimated series still spans the execution in order
        probes = [p for p, _ in s.samples]
        assert probes == sorted(probes)
        assert probes[-1] > 9_000
        for _, ratio in s.hit_ratio_series():
            assert 0.0 <= ratio <= 1.0

    def test_series_round_trips_through_json(self):
        import dataclasses
        import json

        from repro.runtime.hashtable import TableStats

        s = TableStats()
        for i in range(100):
            s.record_probe(i % 3 == 0)
        clone = TableStats(**json.loads(json.dumps(dataclasses.asdict(s))))
        assert clone == s

    @settings(max_examples=50)
    @given(st.lists(st.booleans(), max_size=300), st.integers(2, 16))
    def test_snapshot_equals_deepcopy_and_is_independent(self, hits, budget):
        import copy

        from repro.runtime.hashtable import TableStats

        s = TableStats(sample_budget=budget)
        for i, hit in enumerate(hits):
            s.record_probe(hit, collision=not hit and i % 2 == 0)
            s.note_occupancy(i % 7)
        s.evictions = len(hits) // 3
        snap = s.snapshot()
        assert snap == copy.deepcopy(s)
        live = copy.deepcopy(s)
        # the sample pairs are copies too, not the live lists
        for pair in snap.samples:
            pair[0] = -1
        snap.samples.append([0, 0])
        snap.probes += 1
        assert s == live


class TestSampleBudget:
    """The ring-buffer budget is configurable per table (satellite of the
    observability PR): policy plumbs TableSpec.sample_budget through
    build_tables down to TableStats."""

    def test_default_budget(self):
        from repro.runtime.hashtable import SAMPLE_BUDGET, TableStats

        assert TableStats().sample_budget == SAMPLE_BUDGET == 64

    def test_budget_below_two_rejected(self):
        from repro.runtime.hashtable import TableStats

        with pytest.raises(ValueError):
            TableStats(sample_budget=1)
        with pytest.raises(ValueError):
            TableStats(sample_budget=0)
        assert TableStats(sample_budget=2).sample_budget == 2

    def test_small_budget_decimates_sooner(self):
        from repro.runtime.hashtable import TableStats

        small, big = TableStats(sample_budget=4), TableStats(sample_budget=64)
        for i in range(64):
            small.record_probe(i % 2 == 0)
            big.record_probe(i % 2 == 0)
        assert len(small.samples) <= 4
        assert small.sample_interval > big.sample_interval

    def test_table_constructors_thread_the_budget(self):
        t = ReuseTable("s", capacity=8, in_words=1, out_words=1, sample_budget=8)
        assert t.stats.sample_budget == 8
        t.probe((1,))
        t.clear()
        assert t.stats.sample_budget == 8  # clear() keeps the budget
        m = MergedReuseTable(
            "m", capacity=8, in_words=1,
            member_out_words={"a": 1, "b": 1}, sample_budget=16,
        )
        assert all(
            s.sample_budget == 16 for s in m.stats_per_member.values()
        )

    def test_governed_tables_thread_the_budget(self):
        from repro.runtime.governor import GovernedReuseTable, GovernorPolicy

        t = GovernedReuseTable(
            "s", capacity=8, in_words=1, out_words=1,
            granularity=100.0, overhead=10.0,
            policy=GovernorPolicy(), sample_budget=32,
        )
        assert t.stats.sample_budget == 32

    def test_pipeline_config_validates_and_applies(self):
        from repro.reuse.pipeline import ConfigError, PipelineConfig

        with pytest.raises(ConfigError):
            PipelineConfig(stats_sample_budget=1)
        assert PipelineConfig(stats_sample_budget=128).stats_sample_budget == 128

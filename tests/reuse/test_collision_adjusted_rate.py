"""The collision-adjusted reuse rate (section 2.1) and the profile's
``key_counts`` accessor it reads.

``_collision_adjusted_rate`` replays a segment's distinct input sets
through the planned table's Jenkins index and keeps, per entry, the
dominant key's executions.  The reference below does the same with the
scalar hash, one key at a time.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.profiling.valueset import SegmentProfile
from repro.reuse.pipeline import _collision_adjusted_rate
from repro.runtime.jenkins import hash_key_words

CAPACITIES = (1, 2, 4, 8, 1024)


def _profile(stream) -> SegmentProfile:
    # intern the stream the way the profiler does
    profile = SegmentProfile(seg_id=0)
    for key in stream:
        key_ids = profile._key_ids
        profile.key_stream.append(key_ids.setdefault(key, len(key_ids)))
    return profile


def _reference_rate(profile: SegmentProfile, capacity: int) -> float:
    if profile.executions == 0:
        return 0.0
    dominant: dict[int, int] = {}
    for key, count in profile.value_counts.items():
        entry = hash_key_words(key) & (capacity - 1)
        dominant[entry] = max(dominant.get(entry, 0), count)
    hits = sum(count - 1 for count in dominant.values())
    return max(0.0, hits / profile.executions)


def _streams(width: int) -> st.SearchStrategy:
    word = st.integers(min_value=-(2**33), max_value=2**33)
    pool = st.lists(
        st.tuples(*[word] * width), min_size=1, max_size=24, unique=True
    )
    return pool.flatmap(lambda keys: st.lists(st.sampled_from(keys), max_size=80))


streams = st.integers(min_value=0, max_value=6).flatmap(_streams)


@given(streams, st.sampled_from(CAPACITIES))
def test_rate_matches_scalar_reference(stream, capacity):
    profile = _profile(stream)
    assert _collision_adjusted_rate(profile, capacity) == _reference_rate(
        profile, capacity
    )


@given(streams)
def test_rate_never_exceeds_raw_reuse_rate(stream):
    profile = _profile(stream)
    for capacity in CAPACITIES:
        assert _collision_adjusted_rate(profile, capacity) <= profile.reuse_rate + 1e-12


@given(streams)
def test_key_counts_and_value_counts_count_the_stream(stream):
    profile = _profile(stream)
    # a Counter over the raw stream keeps first-seen order too
    want = Counter(stream)
    keys, counts = profile.key_counts()
    assert keys == list(want)
    assert counts == list(want.values())
    assert list(profile.value_counts.items()) == list(want.items())


def test_never_executed_segment_has_rate_zero():
    assert _collision_adjusted_rate(SegmentProfile(seg_id=0), 8) == 0.0


def test_hot_keys_sharing_an_entry_lower_the_rate():
    # single-word keys index directly: 0 and 2 share entry 0 of a
    # 2-entry table, so only the hotter one keeps its record
    profile = _profile([(0,)] * 5 + [(2,)] * 3)
    assert profile.reuse_rate == 0.75
    assert _collision_adjusted_rate(profile, 2) == 0.5
    # with 4 entries they no longer collide and the raw rate is deliverable
    assert _collision_adjusted_rate(profile, 4) == 0.75

"""The batched Jenkins hash equals the scalar one, key for key.

``hash_key_batch`` hashes many keys side by side in the 64-bit lanes of
one Python int; it is defined as ``[hash_key_words(k) for k in keys]``.
The property tests below draw mixed-width key lists with negative words,
words of 2**32 and above, and duplicated keys.

The same identity over every key the pipeline actually profiles (all
workloads at O0 and O3, on 4,096-input prefixes) is too slow for the
tier-1 suite.  That sweep also checks the scalar hash itself, which is
unrolled per word, against the byte-wise one-at-a-time reference
(``jenkins_one_at_a_time(_word_bytes(key))``) on every key; run it
with::

    PYTHONPATH=src python -m tests.runtime.test_jenkins_batch
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.runtime.jenkins import (
    _word_bytes,
    hash_key_batch,
    hash_key_words,
    jenkins_one_at_a_time,
)

words = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from([0, -1, 2**31, 2**32, 2**32 + 7, -(2**31) - 1]),
)
keys = st.lists(words, max_size=12).map(tuple)


def _with_duplicates(distinct: list) -> st.SearchStrategy:
    if not distinct:
        return st.just(distinct)
    return st.lists(st.sampled_from(distinct), max_size=10).flatmap(
        lambda extra: st.permutations(distinct + extra)
    )


key_lists = st.lists(keys, max_size=40).flatmap(_with_duplicates)


@given(key_lists)
@example([])
@example([(2**32 + 5, -7)])
def test_batch_equals_scalar(batch):
    assert hash_key_batch(batch) == [hash_key_words(k) for k in batch]


def test_every_width_in_one_batch():
    # widths 0..12 interleaved, so both the grouping by width and the
    # scatter back to input order are exercised
    batch = [
        tuple((w * 7919 + i * 104729 + j) * (-1) ** j for j in range(w))
        for i in range(3)
        for w in range(13)
    ]
    batch.append(batch[5])
    assert hash_key_batch(batch) == [hash_key_words(k) for k in batch]


def _bytewise(key: tuple) -> int:
    """The reference the unrolled scalar hash must equal."""
    if len(key) == 1:
        return key[0] & 0xFFFFFFFF
    return jenkins_one_at_a_time(_word_bytes(key))


def sweep() -> tuple[int, int]:
    """Check batch against scalar, and scalar against the byte-wise
    reference, on every profiled key of every workload at O0 and O3.
    Returns (profiles, keys) checked."""
    from repro.reuse.pipeline import PipelineConfig, ReusePipeline
    from repro.workloads.registry import ALL_WORKLOADS

    n_profiles = n_keys = 0
    for workload in ALL_WORKLOADS:
        for opt in ("O0", "O3"):
            config = PipelineConfig(
                opt_level=opt,
                min_executions=workload.min_executions,
                memory_budget_bytes=workload.memory_budget_bytes,
            )
            result = ReusePipeline(workload.source, config).run(
                workload.default_inputs()[:4096]
            )
            for seg_id, profile in sorted(result.profiles.items()):
                profiled, _ = profile.key_counts()
                want = [hash_key_words(k) for k in profiled]
                if want != [_bytewise(k) for k in profiled]:
                    raise AssertionError(
                        f"{workload.name} {opt} segment {seg_id}: "
                        "hash_key_words differs from the byte-wise reference"
                    )
                if hash_key_batch(profiled) != want:
                    raise AssertionError(
                        f"{workload.name} {opt} segment {seg_id}: "
                        "batch hash differs from hash_key_words"
                    )
                n_profiles += 1
                n_keys += len(profiled)
            print(f"{workload.name} {opt}: ok", flush=True)
    return n_profiles, n_keys


if __name__ == "__main__":
    profiles, checked = sweep()
    print(f"batch == scalar == byte-wise on {checked} keys in {profiles} profiles")

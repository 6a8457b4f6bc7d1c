"""Concurrent runs sharing one reuse table must never see each other's probes.

A session's warmed tables serve every worker thread, so probes from
different runs interleave on one table.  Each thread drives the same
probe/output/finish/commit protocol the compiled guards use, including a
recursive probe before the enclosing commit and the governor's bypass
path, with the interpreter switching threads as often as it can.  Every
hit must return the outputs of its own key, every table must end with
no probe in flight, and the lock-protected statistics must add up.
"""

import random
import sys
import threading

import pytest

from repro.runtime.governor import (
    GovernedMergedReuseTable,
    GovernedReuseTable,
    GovernorPolicy,
)
from repro.runtime.hashtable import MergedReuseTable, ReuseTable

THREADS = 4
OPS = 1000
ROUNDS = 3
KEYS = 24

# small windows and a tiny table: the governor disables, re-probes and
# grows the table while other threads have probes in flight
_POLICY = GovernorPolicy(
    warmup_probes=0,
    window=8,
    hysteresis=1,
    reprobe_after=16,
    probe_window=4,
    resize_evict_ratio=0.2,
    max_growth=4,
)


def _outputs(key, member):
    return (key[0] * 7919 + member, -key[0] - member)


def _body():
    """Stand-in for the segment body (or the hit path's restores): enough
    bytecode between a probe and its close for other threads to run."""
    total = 0
    for i in range(100):
        total += i
    return total


def _execute(view, member, key, depth, counts):
    """One execution of a reuse-guarded segment, as the compiled guard
    runs it; returns the segment's outputs."""
    if getattr(view, "bypassed", False):
        view.push_bypass()
        hit = False
    else:
        counts["probes"] += 1
        hit = view.probe(key)
    _body()
    if hit:
        got = (view.output(0), view.output(1))
        view.finish()
        return got
    if depth:
        # a recursive execution probes before this one commits
        inner = ((key[0] * 5 + 1) % KEYS,)
        assert _execute(view, member, inner, depth - 1, counts) == _outputs(inner, member)
    outputs = _outputs(key, member)
    pending_bypassed = getattr(view, "pending_bypassed", None)
    if pending_bypassed is not None and pending_bypassed():
        view.commit(())
    else:
        view.commit(outputs)
    return outputs


def _static():
    table = ReuseTable("s", capacity=8, in_words=1, out_words=2)
    return table, [table]


def _merged():
    table = MergedReuseTable("m", capacity=8, in_words=1, member_out_words={"a": 2, "b": 2})
    return table, [table.view("a"), table.view("b")]


def _governed():
    table = GovernedReuseTable(
        "g", capacity=4, in_words=1, out_words=2,
        granularity=10.0, overhead=5.0, policy=_POLICY,
    )
    return table, [table]


def _governed_merged():
    table = GovernedMergedReuseTable(
        "gm", capacity=4, in_words=1, member_out_words={"a": 2, "b": 2},
        member_costs={"a": (10.0, 5.0), "b": (10.0, 5.0)}, policy=_POLICY,
    )
    return table, [table.view("a"), table.view("b")]


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _hammer(views):
    errors = []
    counts = [{"probes": 0} for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS)

    def work(index):
        rng = random.Random(index)
        try:
            barrier.wait(timeout=30)
            for _ in range(OPS):
                member = rng.randrange(len(views))
                key = (rng.randrange(KEYS),)
                got = _execute(views[member], member, key, rng.randrange(3), counts[index])
                assert got == _outputs(key, member), (key, member, got)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    return sum(count["probes"] for count in counts)


@pytest.mark.parametrize(
    "make",
    [_static, _merged, _governed, _governed_merged],
    ids=["static", "merged", "governed", "governed-merged"],
)
def test_interleaved_probes_keep_their_own_outputs(make, fast_switching):
    for _ in range(ROUNDS):
        table, views = make()
        probes = _hammer(views)
        assert not any(table._stacks)
        assert table.stats.probes == probes
        assert table.stats.hits + table.stats.misses == probes
        assert table.stats.misses == table.stats.collisions + table.stats.empty_misses
        governors = getattr(table, "governors", None)
        if governors is None and hasattr(table, "governor"):
            governors = {"g": table.governor}
        if governors is not None:
            assert sum(g.probes_observed for g in governors.values()) == probes
            # the governor acted while other threads had probes in flight
            assert any(g.resizes or g.flushes for g in governors.values())
            assert any(g.bypassed_executions for g in governors.values())


def test_pending_probes_are_per_thread():
    """A probe left open on one thread is invisible to another: the other
    thread's hit reads its own record, and abandoning the stray probe
    leaves the table idle again."""
    table = ReuseTable("s", capacity=8, in_words=1, out_words=1)
    table.probe((1,))
    table.commit((10,))
    assert table.probe((2,)) is False  # left in flight on this thread
    seen = []

    def other():
        assert table._pending.stack == []  # the stray probe is not this thread's
        assert table.pending_bypassed() is False
        seen.append(table.probe((1,)))
        seen.append(table.output(0))
        table.finish()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen == [True, 10]
    assert sum(map(len, table._stacks)) == 1
    table.abandon()
    assert not any(table._stacks)

"""Reuse hash tables: the runtime data structure of the paper's scheme.

Two table kinds are provided:

* :class:`ReuseTable` — the software table of section 3.1: direct
  addressing, index = 32-bit key (Jenkins-compressed when the
  concatenated input words exceed one word) modulo the table size,
  replace-on-collision, one (inputs, outputs) record per entry.
* :class:`MergedReuseTable` — the section 2.5 optimization: several code
  segments with identical input variables share one table; a bit vector
  per entry records which segments' outputs are valid for the stored
  input (Table 2 of the paper).

:class:`LRUBuffer` models the small hardware reuse buffers of the prior
hardware proposals; it exists to regenerate Table 5 (hit ratios with 1,
4, 16, 64-entry buffers under LRU replacement).

Concurrent runs may share one table (a session's warmed tables serve
every worker thread).  Each thread keeps its own stack of in-flight
probes, a hit carries the output record it saw at probe time, and the
table's entries and statistics change under one lock per table, so one
thread's commit never lands on another thread's probe.

All tables keep statistics (:class:`TableStats`) that the experiment
harness and the observability layer read: probe/hit/miss/collision
counters with the invariant ``misses == collisions + empty_misses``,
eviction counts, the occupancy high-water mark, and a sampled hit-ratio
time series (a ring buffer whose sampling interval doubles when full;
the budget defaults to :data:`SAMPLE_BUDGET` entries and is configurable
per table through the pipeline's ``stats_sample_budget`` knob).  *Costs*
are charged by the interpreter intrinsics, not here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from .jenkins import hash_key_words
from .values import deep_copy_value

_WORD_BYTES = 4


# Sentinel on the pending stack for probes skipped by adaptive bypass.
_BYPASSED = object()


class _Pending(threading.local):
    """One thread's LIFO of in-flight probes on one table.  A stack, not
    a slot: recursive segment execution may probe again before the
    enclosing execution commits.  Each thread's stack registers itself in
    ``stacks`` so the table can tell whether any probe is open."""

    def __init__(self, stacks: list) -> None:
        self.stack: list = []
        stacks.append(self.stack)


class _SharedProbes:
    """What lets concurrent runs share one table: a lock over entries and
    statistics, and one pending-probe stack per thread."""

    def _init_probes(self) -> None:
        self._lock = threading.Lock()
        # every thread's stack: a governed table rehashes only when all are
        # empty, since a pending entry holds an index its commit will write
        self._stacks: list[list] = []
        self._pending = _Pending(self._stacks)

    def push_bypass(self) -> None:
        """Mark the next commit as a no-op (adaptive deactivation skipped
        the probe, so there is no pending key to record)."""
        self._pending.stack.append(_BYPASSED)

    def pending_bypassed(self) -> bool:
        """Is this thread's innermost in-flight probe a bypassed one?"""
        stack = self._pending.stack
        return bool(stack) and stack[-1] is _BYPASSED

    def abandon(self) -> None:
        """Drop this thread's in-flight probes: a run raised between a
        probe and its commit/finish."""
        self._pending.stack.clear()


def pow2_ceil(n: int) -> int:
    """Smallest power of two >= ``n`` (at least 1).

    Table geometry helper: every reuse table is direct-addressed with a
    power-of-two capacity so the probe mask is ``capacity - 1``.
    """
    size = 1
    while size < n:
        size <<= 1
    return size


def pow2_floor(n: int) -> int:
    """Largest power of two <= ``n`` (at least 1) — used when fitting a
    table under a byte budget."""
    p = 1
    while p * 2 <= n:
        p <<= 1
    return p


# Historical internal name, kept for in-module readers.
_pow2_at_least = pow2_ceil


# Default budget for the hit-ratio time series: once full, every other
# sample is dropped and the sampling interval doubles, so the buffer
# always covers the whole execution at uniform (coarsening) resolution.
SAMPLE_BUDGET = 64


@dataclass
class TableStats:
    probes: int = 0
    hits: int = 0
    misses: int = 0
    collisions: int = 0  # probe landed on an occupied entry with a different key
    empty_misses: int = 0  # probe landed on an entry with no usable record
    evictions: int = 0  # commit replaced a different key's record
    occupancy_hwm: int = 0  # high-water mark of occupied entries
    # [probe count, hit count] pairs sampled over execution (ring buffer
    # with a bounded budget); lists, not tuples, so JSON round-trips exactly
    samples: list = field(default_factory=list)
    sample_interval: int = 1
    # ring-buffer capacity; the halving step needs at least two entries
    sample_budget: int = SAMPLE_BUDGET

    def __post_init__(self) -> None:
        if self.sample_budget < 2:
            raise ValueError(
                f"sample_budget must be >= 2, got {self.sample_budget}"
            )

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def record_probe(self, hit: bool, collision: bool = False) -> None:
        """Count one probe; every miss is either a collision (occupied by
        a different key) or an empty miss, so
        ``misses == collisions + empty_misses`` is an invariant."""
        self.probes += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if collision:
                self.collisions += 1
            else:
                self.empty_misses += 1
        if self.probes % self.sample_interval == 0:
            self.samples.append([self.probes, self.hits])
            if len(self.samples) >= self.sample_budget:
                del self.samples[::2]
                self.sample_interval *= 2

    def note_occupancy(self, occupied: int) -> None:
        if occupied > self.occupancy_hwm:
            self.occupancy_hwm = occupied

    def hit_ratio_series(self) -> list[tuple[int, float]]:
        """(probe count, cumulative hit ratio) samples over execution."""
        return [(probes, hits / probes) for probes, hits in self.samples]


class ReuseTable(_SharedProbes):
    """Direct-addressed reuse table for a single code segment.

    Args:
        segment_id: identifier of the transformed code segment.
        capacity: number of entries; rounded up to a power of two.
        in_words: hash-key width in 32-bit words (for size accounting).
        out_words: output record width in words (for size accounting).
        sample_budget: hit-ratio ring-buffer capacity (>= 2).
    """

    def __init__(
        self,
        segment_id: str,
        capacity: int,
        in_words: int,
        out_words: int,
        *,
        sample_budget: int = SAMPLE_BUDGET,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.segment_id = segment_id
        self.capacity = _pow2_at_least(capacity)
        self._mask = self.capacity - 1
        self.in_words = in_words
        self.out_words = out_words
        self._keys: list[Optional[tuple]] = [None] * self.capacity
        self._outputs: list[Optional[tuple]] = [None] * self.capacity
        self.stats = TableStats(sample_budget=sample_budget)
        self._occupied = 0
        # pending entries are (key, index, outputs seen on a hit or None)
        self._init_probes()

    # -- the runtime interface (called by interpreter intrinsics) ---------

    def probe(self, key: tuple) -> bool:
        """Look up ``key``; returns True on a hit.  Either way the probe is
        left pending until :meth:`commit` (miss path) or :meth:`finish`
        (hit path) is called."""
        hashed = hash_key_words(key)
        with self._lock:
            index = hashed & self._mask
            stored = self._keys[index]
            hit = stored == key
            self._pending.stack.append((key, index, self._outputs[index] if hit else None))
            self.stats.record_probe(hit, collision=not hit and stored is not None)
            self._observe(hit)
        return hit

    def _observe(self, hit: bool) -> None:
        """Hook run under the lock after each probe (the governed table
        feeds its governor here)."""

    def output(self, position: int):
        """Read one output value of the entry hit by the pending probe."""
        outputs = self._pending.stack[-1][2]
        assert outputs is not None, "output() without a hit"
        return outputs[position]

    def finish(self) -> None:
        """Close the pending probe on the hit path."""
        self._pending.stack.pop()

    def commit(self, outputs: tuple) -> None:
        """Record outputs for the pending probe's key (miss path).

        On a collision the previously recorded entry is replaced, exactly
        as in section 3.1 of the paper.
        """
        record = tuple(deep_copy_value(v) for v in outputs)
        with self._lock:
            self._commit_locked(record)

    def _commit_locked(self, record: tuple) -> bool:
        """Store ``record`` for this thread's pending probe; returns
        whether it evicted a different key."""
        pending = self._pending.stack.pop()
        if pending is _BYPASSED:
            return False
        key, index, _ = pending
        stored = self._keys[index]
        evicted = stored is not None and stored != key
        if stored is None:
            self._occupied += 1
            self.stats.note_occupancy(self._occupied)
        elif evicted:
            self.stats.evictions += 1
        self._keys[index] = key
        self._outputs[index] = record
        return evicted

    # -- inspection ---------------------------------------------------------

    @property
    def entry_words(self) -> int:
        return self.in_words + self.out_words

    @property
    def size_bytes(self) -> int:
        return self.capacity * self.entry_words * _WORD_BYTES

    @property
    def occupied(self) -> int:
        return self._occupied

    def clear(self) -> None:
        self.abandon()
        with self._lock:
            self._keys = [None] * self.capacity
            self._outputs = [None] * self.capacity
            self._occupied = 0
            self.stats = TableStats(sample_budget=self.stats.sample_budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReuseTable {self.segment_id} cap={self.capacity} "
            f"hits={self.stats.hits}/{self.stats.probes}>"
        )


class MergedReuseTable(_SharedProbes):
    """A reuse table shared by segments with identical input variables.

    Entries store one key, a validity bit vector (bit *i* set when member
    segment *i*'s outputs are recorded for this key), and one output
    record per member segment.
    """

    def __init__(
        self,
        table_id: str,
        capacity: int,
        in_words: int,
        member_out_words: dict[str, int],
        *,
        sample_budget: int = SAMPLE_BUDGET,
    ) -> None:
        self.table_id = table_id
        self.capacity = _pow2_at_least(max(1, capacity))
        self._mask = self.capacity - 1
        self.in_words = in_words
        self.members = list(member_out_words)
        self._member_index = {seg: i for i, seg in enumerate(self.members)}
        self.member_out_words = dict(member_out_words)
        self._keys: list[Optional[tuple]] = [None] * self.capacity
        self._bits: list[int] = [0] * self.capacity
        self._outputs: list[list] = [[None] * len(self.members) for _ in range(self.capacity)]
        self.stats_per_member: dict[str, TableStats] = {
            seg: TableStats(sample_budget=sample_budget) for seg in self.members
        }
        self._occupied = 0
        # pending entries are (key, index, member, outputs seen on a hit)
        self._init_probes()

    def view(self, segment_id: str) -> "MergedTableView":
        """The per-segment facade the interpreter binds to a segment id."""
        return MergedTableView(self, self._member_index[segment_id])

    # -- internals used by MergedTableView ----------------------------------

    def _probe(self, member: int, key: tuple) -> bool:
        hashed = hash_key_words(key)
        with self._lock:
            index = hashed & self._mask
            stored = self._keys[index]
            hit = stored == key and bool(self._bits[index] & (1 << member))
            self._pending.stack.append(
                (key, index, member, self._outputs[index][member] if hit else None)
            )
            # a matching key whose validity bit is unset is an *empty* miss —
            # the member's output slot holds nothing usable for this key
            self.stats_per_member[self.members[member]].record_probe(
                hit, collision=not hit and stored is not None and stored != key
            )
            self._observe(member, hit)
        return hit

    def _observe(self, member: int, hit: bool) -> None:
        """Hook run under the lock after each probe (the governed table
        feeds the member's governor here)."""

    def _output(self, position: int):
        outputs = self._pending.stack[-1][3]
        assert outputs is not None, "output() without a hit"
        return outputs[position]

    def _finish(self) -> None:
        self._pending.stack.pop()

    def _commit(self, outputs: tuple) -> None:
        record = tuple(deep_copy_value(v) for v in outputs)
        with self._lock:
            self._commit_locked(record)

    def _commit_locked(self, record: tuple) -> bool:
        """Store ``record`` for this thread's pending probe; returns
        whether it evicted a different key."""
        key, index, member, _ = self._pending.stack.pop()
        stats = self.stats_per_member[self.members[member]]
        stored = self._keys[index]
        evicted = stored is not None and stored != key
        if stored != key:
            if stored is None:
                self._occupied += 1
            else:
                # attributed to the committing member, though the evicted
                # records may belong to any member sharing the entry
                stats.evictions += 1
            # Replace the whole entry: other members' outputs belong to the
            # evicted input and must be invalidated.
            self._keys[index] = key
            self._bits[index] = 0
            self._outputs[index] = [None] * len(self.members)
        stats.note_occupancy(self._occupied)
        self._bits[index] |= 1 << member
        self._outputs[index][member] = record
        return evicted

    # -- inspection -----------------------------------------------------------

    @property
    def entry_words(self) -> int:
        bitvec_words = (len(self.members) + 31) // 32
        return self.in_words + bitvec_words + sum(self.member_out_words.values())

    @property
    def size_bytes(self) -> int:
        return self.capacity * self.entry_words * _WORD_BYTES

    @property
    def occupied(self) -> int:
        return self._occupied

    @property
    def stats(self) -> TableStats:
        """Aggregated statistics over all member segments.

        Counters sum; ``occupancy_hwm`` takes the max (it tracks the
        shared table).  The hit-ratio time series is per-member only —
        use :attr:`stats_per_member` for it.
        """
        total = TableStats()
        for stats in self.stats_per_member.values():
            total.probes += stats.probes
            total.hits += stats.hits
            total.misses += stats.misses
            total.collisions += stats.collisions
            total.empty_misses += stats.empty_misses
            total.evictions += stats.evictions
            total.occupancy_hwm = max(total.occupancy_hwm, stats.occupancy_hwm)
        return total


@dataclass
class MergedTableView:
    """Adapter giving a :class:`MergedReuseTable` member the same probe /
    output / finish / commit interface as a private :class:`ReuseTable`."""

    table: MergedReuseTable
    member: int

    def probe(self, key: tuple) -> bool:
        return self.table._probe(self.member, key)

    def output(self, position: int):
        return self.table._output(position)

    def finish(self) -> None:
        self.table._finish()

    def commit(self, outputs: tuple) -> None:
        self.table._commit(outputs)

    def abandon(self) -> None:
        self.table.abandon()

    @property
    def stats(self) -> TableStats:
        return self.table.stats_per_member[self.table.members[self.member]]

    @property
    def in_words(self) -> int:
        return self.table.in_words

    @property
    def occupied(self) -> int:
        return self.table.occupied

    @property
    def size_bytes(self) -> int:
        return self.table.size_bytes


class LRUBuffer:
    """A small fully-associative buffer with LRU replacement.

    Models the hardware reuse buffers of the prior proposals the paper
    compares against (Table 5).  Keys map to opaque outputs; we only track
    hit statistics.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, None] = OrderedDict()
        self.stats = TableStats()

    def access(self, key: tuple) -> bool:
        """Record an access; returns True on hit.  A miss inserts the key,
        evicting the least recently used entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.record_probe(True)
            return True
        self.stats.record_probe(False)
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = None
        self.stats.note_occupancy(len(self._entries))
        return False

    @property
    def hit_ratio(self) -> float:
        return self.stats.hit_ratio

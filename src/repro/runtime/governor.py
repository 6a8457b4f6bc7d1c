"""The online reuse governor: runtime table management beyond the paper.

The paper freezes every reuse decision at compile time from one profiling
run (formulas 3-4).  A deployed program whose input distribution drifts
away from the profile keeps paying the hashing overhead ``O`` on tables
whose observed reuse rate ``R`` has collapsed — the failure mode the
dynamic hardware schemes (Connors & Hwu's reuse buffers, Calder et al.'s
value-profile-guided specialization) handle by monitoring at run time.
This module closes that loop in software.

Each governed table (and each member of a governed merged table) carries
a :class:`SegmentGovernor`: a small state machine fed by the table's own
probe stream.  Over windows of probes it tracks the observed reuse rate
and the per-execution amortized gain ``R_w * C - O`` (the windowed analog
of the paper's formula 3, with the static ``C``/``O`` constants baked in
by the compiler).  The states:

* ``active`` — probing as normal.  When the windowed gain stays negative
  for ``hysteresis`` consecutive windows the governor *disables* the
  table: the guard's ``bypassed`` check falls through to plain execution
  and a probe costs one flag test instead of hash + lookup + commit.
* ``disabled`` — bypassing.  After ``reprobe_after`` bypassed executions
  the governor switches to ``probing`` to re-sample the input's locality.
* ``probing`` — a short trial window of ``probe_window`` real probes.  A
  positive windowed gain *re-enables* the table (back to ``active``);
  a negative one sends it back to ``disabled``.

Orthogonally, a table whose distinct-input working set outgrew its
profile-time capacity shows up as eviction thrash: when a window's
eviction ratio reaches ``resize_evict_ratio`` the governor *resizes* the
table (capacity doubles, entries rehash; growth is bounded by
``max_growth``).  Power-of-two growth keeps previously distinct slots
distinct, so a rehash never introduces collisions.  At the growth bound
the governor *flushes* the table instead (entries clear, statistics
survive), evicting a stale resident set in one step; flushes are
rate-limited to one per ``reprobe_after`` probes.

Everything here is bookkeeping on the Python side of the simulator: a
governed table in the ``active`` state charges exactly the same simulated
cycles as a plain :class:`~repro.runtime.hashtable.ReuseTable`, which is
what the stationary-input differential test asserts.  The first
``warmup_probes`` probes are observed but never judged — a cold table's
miss burst is warmup, not drift.

State transitions are appended to :attr:`SegmentGovernor.transitions`
(surfaced through ``Machine.metrics().governor`` and the decision
ledger's ``governor`` stage) and emitted as tracer events when tracing
is on.  The governor writes to no metrics registry: after a run,
``Machine.publish_metrics`` publishes its counters, its new transitions
and its last closed window from this state, through the table's
publish cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..obs import get_tracer
from ..obs.log import get_event_log
from .hashtable import (
    _BYPASSED,
    SAMPLE_BUDGET,
    STAT_COUNTERS,
    MergedReuseTable,
    MergedTableView,
    ReuseTable,
    TableStats,
    _SharedProbes,
    pow2_ceil,
)
from .values import deep_copy_value

__all__ = [
    "GovernorPolicy",
    "SegmentGovernor",
    "GovernedReuseTable",
    "GovernedMergedReuseTable",
    "GovernedTableView",
]

ACTIVE = "active"
DISABLED = "disabled"
PROBING = "probing"

# SegmentGovernor's lifetime counters, published to metrics registries by
# growth through the governed table's publish cursor
GOVERNOR_COUNTERS = ("disables", "reenables", "resizes", "flushes", "bypassed_executions")

# ``transitions`` entries that record a table action, not a state change
_TABLE_ACTIONS = ("resized", "flushed")


@dataclass(frozen=True, kw_only=True)
class GovernorPolicy:
    """Thresholds of the online reuse governor (compile-time constants).

    The pipeline emits one policy into every :class:`TableSpec`; the
    runtime bakes it into the governed table, mirroring how the paper
    bakes ``C`` and ``O`` into the generated guard.
    """

    # probes ignored at the start of each activation: a cold table's miss
    # burst is warmup, not evidence of drift
    warmup_probes: int = 256
    # probes per monitoring window while active
    window: int = 256
    # consecutive unprofitable windows before disabling
    hysteresis: int = 2
    # bypassed executions before a recovery re-probe
    reprobe_after: int = 2048
    # probes in one recovery trial window
    probe_window: int = 64
    # windowed evictions/probes ratio that triggers a resize
    resize_evict_ratio: float = 0.5
    # capacity may grow to at most base_capacity * max_growth
    max_growth: int = 8

    def __post_init__(self) -> None:
        if self.warmup_probes < 0:
            raise ConfigError(f"warmup_probes must be >= 0, got {self.warmup_probes}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.hysteresis < 1:
            raise ConfigError(f"hysteresis must be >= 1, got {self.hysteresis}")
        if self.reprobe_after < 1:
            raise ConfigError(f"reprobe_after must be >= 1, got {self.reprobe_after}")
        if self.probe_window < 1:
            raise ConfigError(f"probe_window must be >= 1, got {self.probe_window}")
        if not 0.0 < self.resize_evict_ratio <= 1.0:
            raise ConfigError(
                f"resize_evict_ratio must be in (0, 1], got {self.resize_evict_ratio}"
            )
        if self.max_growth < 1:
            raise ConfigError(f"max_growth must be >= 1, got {self.max_growth}")


class SegmentGovernor:
    """Windowed gain monitor and activation state machine for one segment.

    Args:
        segment_id: the governed segment (for telemetry).
        granularity: the segment's measured per-execution cost ``C``
            in cycles (the pipeline's value-profiling estimate).
        overhead: the segment's hashing overhead upper bound ``O``
            in cycles.
        policy: thresholds; see :class:`GovernorPolicy`.
    """

    def __init__(
        self,
        segment_id: str,
        granularity: float,
        overhead: float,
        policy: Optional[GovernorPolicy] = None,
    ) -> None:
        self.segment_id = segment_id
        self.granularity = max(1.0, float(granularity))
        self.overhead = float(overhead)
        self.policy = policy or GovernorPolicy()
        self.state = ACTIVE
        # lifetime counters (telemetry)
        self.probes_observed = 0
        self.bypassed_executions = 0
        self.windows_closed = 0
        self.disables = 0
        self.reenables = 0
        self.resizes = 0
        self.flushes = 0
        self.transitions: list[dict] = []
        # the last closed window's summary (probes, hit_rate, gain,
        # evict_ratio), or None before the first
        self.last_window: Optional[dict] = None
        # current window
        self._window_probes = 0
        self._window_hits = 0
        self._window_evictions = 0
        self._negative_windows = 0
        self._bypass_count = 0
        self._warmup_left = self.policy.warmup_probes
        self._last_flush_probe = -self.policy.reprobe_after

    # -- runtime feed -------------------------------------------------------

    def should_bypass(self) -> bool:
        """Consulted by the guard before each probe; True skips the table.

        While disabled, counts bypassed executions and flips to the
        ``probing`` trial after ``reprobe_after`` of them.
        """
        if self.state is not DISABLED:
            return False
        self._bypass_count += 1
        self.bypassed_executions += 1
        if self._bypass_count >= self.policy.reprobe_after:
            self._transition(PROBING, "reprobe")
        return self.state is DISABLED

    def observe(self, hit: bool, evicted: bool = False) -> Optional[dict]:
        """Feed one completed probe; returns the window summary when this
        probe closed a window, else None.  The caller (the governed
        table) reads ``evict_ratio`` off the summary to decide growth."""
        self.probes_observed += 1
        if self._warmup_left > 0:
            self._warmup_left -= 1
            return None
        self._window_probes += 1
        if hit:
            self._window_hits += 1
        if evicted:
            self._window_evictions += 1
        size = self.policy.probe_window if self.state is PROBING else self.policy.window
        if self._window_probes < size:
            return None
        return self._close_window()

    def note_eviction(self) -> None:
        """An eviction observed between probes (commit-side)."""
        if self._warmup_left == 0:
            self._window_evictions += 1

    # -- window / state machine ---------------------------------------------

    def _close_window(self) -> dict:
        probes = self._window_probes
        hit_rate = self._window_hits / probes
        gain = hit_rate * self.granularity - self.overhead
        summary = {
            "probes": probes,
            "hit_rate": hit_rate,
            "gain": gain,
            "evict_ratio": self._window_evictions / probes,
        }
        self.windows_closed += 1
        self.last_window = summary
        self._window_probes = 0
        self._window_hits = 0
        self._window_evictions = 0
        if self.state is PROBING:
            if gain > 0.0:
                self._transition(ACTIVE, "recovered", summary)
            else:
                self._transition(DISABLED, "still_unprofitable", summary)
        elif gain < 0.0:
            self._negative_windows += 1
            if self._negative_windows >= self.policy.hysteresis:
                self._transition(DISABLED, "unprofitable", summary)
        else:
            self._negative_windows = 0
        return summary

    def _transition(self, to: str, reason: str, summary: Optional[dict] = None) -> None:
        entry = {
            "probe": self.probes_observed,
            "from": self.state,
            "to": to,
            "reason": reason,
        }
        if summary is not None:
            entry["hit_rate"] = round(summary["hit_rate"], 6)
            entry["gain"] = round(summary["gain"], 6)
        self.transitions.append(entry)
        if to is DISABLED:
            self.disables += 1
        elif to is ACTIVE and self.state is PROBING:
            self.reenables += 1
        self.state = to
        self._negative_windows = 0
        self._bypass_count = 0
        self._window_probes = 0
        self._window_hits = 0
        self._window_evictions = 0
        get_tracer().event(
            "governor.transition",
            category="governor",
            segment=str(self.segment_id),
            **{k: v for k, v in entry.items() if k != "probe"},
        )
        log = get_event_log()
        if log is not None:
            log.emit(
                "governor.transition",
                level="info",
                segment=str(self.segment_id),
                **{k: v for k, v in entry.items() if k != "probe"},
            )

    def note_resize(self, old_capacity: int, new_capacity: int) -> None:
        self.resizes += 1
        self.transitions.append(
            {
                "probe": self.probes_observed,
                "from": self.state,
                "to": self.state,
                "reason": "resized",
                "capacity": new_capacity,
            }
        )
        # a grown table gets a fresh hysteresis run before any disable
        self._negative_windows = 0
        get_tracer().event(
            "governor.transition",
            category="governor",
            segment=str(self.segment_id),
            reason="resized",
            old_capacity=old_capacity,
            new_capacity=new_capacity,
        )
        log = get_event_log()
        if log is not None:
            log.emit(
                "governor.resize",
                level="info",
                segment=str(self.segment_id),
                old_capacity=old_capacity,
                new_capacity=new_capacity,
            )

    def note_flush(self) -> None:
        self.flushes += 1
        self._last_flush_probe = self.probes_observed
        self.transitions.append(
            {
                "probe": self.probes_observed,
                "from": self.state,
                "to": self.state,
                "reason": "flushed",
            }
        )
        get_tracer().event(
            "governor.transition",
            category="governor",
            segment=str(self.segment_id),
            reason="flushed",
        )
        log = get_event_log()
        if log is not None:
            log.emit(
                "governor.flush",
                level="info",
                segment=str(self.segment_id),
                probe=self.probes_observed,
            )

    def flush_allowed(self) -> bool:
        return self.probes_observed - self._last_flush_probe >= self.policy.reprobe_after

    # -- telemetry ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state for ``Machine.metrics().governor``."""
        return {
            "state": self.state,
            "granularity": self.granularity,
            "overhead": self.overhead,
            "probes_observed": self.probes_observed,
            "bypassed_executions": self.bypassed_executions,
            "windows_closed": self.windows_closed,
            "disables": self.disables,
            "reenables": self.reenables,
            "resizes": self.resizes,
            "flushes": self.flushes,
            "transitions": [dict(t) for t in self.transitions],
        }


def _take_governor(table: _SharedProbes, key, governor: SegmentGovernor) -> dict:
    """The growth of ``governor``'s counters past the table's publish
    cursor ``key``, plus (as ``state_transitions``) the state changes
    appended to its history since then; moves the cursor.  Caller holds
    the table lock."""
    grown = table._take_grown(key, governor, GOVERNOR_COUNTERS)
    cursor = table._published[key]
    start = cursor.get("transitions", 0)
    cursor["transitions"] = len(governor.transitions)
    grown["state_transitions"] = [
        entry
        for entry in governor.transitions[start:]
        if entry["reason"] not in _TABLE_ACTIONS
    ]
    return grown


def _summary_wants_grow(summary: dict, policy: GovernorPolicy) -> bool:
    return summary["evict_ratio"] >= policy.resize_evict_ratio


def _should_bypass(governor: SegmentGovernor, lock) -> bool:
    """The guard's bypass check on a shared table.  Only a disabled
    governor changes state here, so the common case reads one attribute
    without taking the table lock."""
    if governor.state is not DISABLED:
        return False
    with lock:
        return governor.should_bypass()


class GovernedReuseTable(ReuseTable):
    """A :class:`ReuseTable` managed by a :class:`SegmentGovernor`.

    In the ``active`` state behaves bit-identically to the plain table
    (same probes, same statistics, same charged costs); the governor only
    reads the probe stream.  Disabling, re-probing, resizing and flushing
    are Python-side control actions driven by the windowed gain.
    """

    def __init__(
        self,
        segment_id: str,
        capacity: int,
        in_words: int,
        out_words: int,
        *,
        granularity: float = 1.0,
        overhead: float = 0.0,
        policy: Optional[GovernorPolicy] = None,
        sample_budget: int = SAMPLE_BUDGET,
    ) -> None:
        super().__init__(
            segment_id, capacity, in_words, out_words, sample_budget=sample_budget
        )
        self.governor = SegmentGovernor(segment_id, granularity, overhead, policy)
        self.base_capacity = self.capacity
        self.max_capacity = pow2_ceil(self.capacity * self.governor.policy.max_growth)
        self._resize_target: Optional[int] = None
        self._flush_requested = False

    # -- runtime interface --------------------------------------------------

    @property
    def bypassed(self) -> bool:
        return _should_bypass(self.governor, self._lock)

    pending_bypassed = _SharedProbes.pending_bypassed

    def _observe(self, hit: bool) -> None:
        summary = self.governor.observe(hit)
        if summary is not None and _summary_wants_grow(summary, self.governor.policy):
            self._request_growth()

    def commit(self, outputs: tuple) -> None:
        record = tuple(deep_copy_value(v) for v in outputs)
        with self._lock:
            if self._commit_locked(record):
                self.governor.note_eviction()
            self._apply_resize_if_idle()

    def finish(self) -> None:
        with self._lock:
            self._pending.stack.pop()
            self._apply_resize_if_idle()

    def take_unpublished(self) -> dict:
        with self._lock:
            grown = self._take_grown("stats", self.stats, STAT_COUNTERS)
            grown.update(_take_governor(self, "governor", self.governor))
            return grown

    # -- growth / flush -----------------------------------------------------

    def _request_growth(self) -> None:
        if self.capacity < self.max_capacity:
            self._resize_target = min(self.capacity * 2, self.max_capacity)
        elif self.governor.flush_allowed():
            self._flush_requested = True

    def _apply_resize_if_idle(self) -> None:
        # Rehash/flush only with no probe in flight on any thread: a
        # pending entry holds an index its commit will still write.
        if any(self._stacks):
            return
        if self._resize_target is not None:
            old_capacity, target = self.capacity, self._resize_target
            self._resize_target = None
            self._rehash(target)
            self.governor.note_resize(old_capacity, self.capacity)
        if self._flush_requested:
            self._flush_requested = False
            self.flush()
            self.governor.note_flush()

    def _rehash(self, new_capacity: int) -> None:
        live = [
            (key, out)
            for key, out in zip(self._keys, self._outputs)
            if key is not None
        ]
        self.capacity = pow2_ceil(new_capacity)
        self._mask = self.capacity - 1
        self._keys = [None] * self.capacity
        self._outputs = [None] * self.capacity
        from .jenkins import hash_key_words

        for key, out in live:
            index = hash_key_words(key) & self._mask
            self._keys[index] = key
            self._outputs[index] = out

    def flush(self) -> None:
        """Drop all entries but keep statistics and governor history."""
        self._keys = [None] * self.capacity
        self._outputs = [None] * self.capacity
        self._occupied = 0


class GovernedMergedReuseTable(MergedReuseTable):
    """A :class:`MergedReuseTable` whose members are each governed.

    Every member segment carries its own :class:`SegmentGovernor` (its
    ``C``/``O`` differ even though the key stream is shared); disabling
    one member leaves the others probing.  Growth acts on the shared
    table and is requested by whichever member's window thrashes first.
    """

    def __init__(
        self,
        table_id: str,
        capacity: int,
        in_words: int,
        member_out_words: dict[str, int],
        member_costs: dict[str, tuple[float, float]],
        policy: Optional[GovernorPolicy] = None,
        *,
        sample_budget: int = SAMPLE_BUDGET,
    ) -> None:
        super().__init__(
            table_id, capacity, in_words, member_out_words, sample_budget=sample_budget
        )
        self.policy = policy or GovernorPolicy()
        self.governors: dict[str, SegmentGovernor] = {
            seg: SegmentGovernor(seg, c, o, self.policy)
            for seg, (c, o) in member_costs.items()
        }
        for seg in self.members:
            if seg not in self.governors:
                self.governors[seg] = SegmentGovernor(seg, 1.0, 0.0, self.policy)
        self.base_capacity = self.capacity
        self.max_capacity = pow2_ceil(self.capacity * self.policy.max_growth)
        self._resize_target: Optional[int] = None
        self._flush_requestor: Optional[SegmentGovernor] = None

    def view(self, segment_id: str) -> "GovernedTableView":
        return GovernedTableView(self, self._member_index[segment_id])

    def _commit(self, outputs: tuple) -> None:
        record = tuple(deep_copy_value(v) for v in outputs)
        with self._lock:
            pending = self._pending.stack[-1]
            if pending is _BYPASSED:
                self._pending.stack.pop()
            elif self._commit_locked(record):
                self.governors[self.members[pending[2]]].note_eviction()
            self._apply_resize_if_idle()

    def _finish(self) -> None:
        with self._lock:
            self._pending.stack.pop()
            self._apply_resize_if_idle()

    def _take_unpublished(self, member: int) -> dict:
        segment = self.members[member]
        with self._lock:
            grown = self._take_grown(
                ("stats", segment), self.stats_per_member[segment], STAT_COUNTERS
            )
            grown.update(
                _take_governor(self, ("governor", segment), self.governors[segment])
            )
            return grown

    # -- governed probe path -------------------------------------------------

    def _observe(self, member: int, hit: bool) -> None:
        governor = self.governors[self.members[member]]
        summary = governor.observe(hit)
        if summary is not None and _summary_wants_grow(summary, self.policy):
            self._request_growth(governor)

    def _request_growth(self, governor: SegmentGovernor) -> None:
        if self.capacity < self.max_capacity:
            self._resize_target = min(self.capacity * 2, self.max_capacity)
        elif governor.flush_allowed():
            self._flush_requestor = governor

    def _apply_resize_if_idle(self) -> None:
        if any(self._stacks):
            return
        if self._resize_target is not None:
            old_capacity, target = self.capacity, self._resize_target
            self._resize_target = None
            self._rehash(target)
            for governor in self.governors.values():
                governor.note_resize(old_capacity, self.capacity)
        if self._flush_requestor is not None:
            requestor, self._flush_requestor = self._flush_requestor, None
            self.flush()
            requestor.note_flush()

    def _rehash(self, new_capacity: int) -> None:
        live = [
            (key, bits, outs)
            for key, bits, outs in zip(self._keys, self._bits, self._outputs)
            if key is not None
        ]
        self.capacity = pow2_ceil(new_capacity)
        self._mask = self.capacity - 1
        self._keys = [None] * self.capacity
        self._bits = [0] * self.capacity
        self._outputs = [[None] * len(self.members) for _ in range(self.capacity)]
        from .jenkins import hash_key_words

        for key, bits, outs in live:
            index = hash_key_words(key) & self._mask
            self._keys[index] = key
            self._bits[index] = bits
            self._outputs[index] = outs

    def flush(self) -> None:
        """Drop all entries but keep statistics and governor history."""
        self._keys = [None] * self.capacity
        self._bits = [0] * self.capacity
        self._outputs = [[None] * len(self.members) for _ in range(self.capacity)]
        self._occupied = 0


class GovernedTableView(MergedTableView):
    """Per-member facade over a :class:`GovernedMergedReuseTable`, adding
    the ``bypassed``/``push_bypass``/``pending_bypassed`` guard protocol
    and routing probe observations to the member's governor."""

    @property
    def governor(self) -> SegmentGovernor:
        return self.table.governors[self.table.members[self.member]]

    @property
    def bypassed(self) -> bool:
        return _should_bypass(self.governor, self.table._lock)

    def push_bypass(self) -> None:
        self.table.push_bypass()

    def pending_bypassed(self) -> bool:
        return self.table.pending_bypassed()

    @property
    def stats(self) -> TableStats:
        return self.table.stats_per_member[self.table.members[self.member]]

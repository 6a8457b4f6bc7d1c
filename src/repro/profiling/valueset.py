"""Value-set profiling (section 2.1 of the paper).

Single-variable value profiling cannot answer how often a *set* of input
values repeats ("the locality of a set of values cannot be derived from
the locality of the member values"), so the profiler records the distinct
tuples of input values observed at each instrumented segment entry.

For each segment the profiler tracks:

* the stream of input sets in execution order, one interned id per
  execution.  Everything else about the values derives from it: ``N`` —
  executions, ``N_ds`` — distinct input sets (the reuse rate is
  ``R = 1 - N_ds / N``), the full histogram of input sets (figures 5, 6,
  11, 12, 13 of the paper), and the hit ratios of small LRU buffers
  (1/4/16/64 entries) — the hardware-buffer comparison of Table 5 —
  replayed on first request instead of simulated during the run;
* inclusive cycles spent inside the segment (between ``__seg_enter`` and
  ``__seg_exit``), giving the *measured* computation granularity C.

The profiler is installed on ``machine.profiler`` before the program is
compiled.  On the VM that is when it takes effect: the translator binds
each profiled segment's :class:`SegmentProfile` into the generated code,
which appends to the key stream and the entry-cycle stack directly.  The
closure backend calls :meth:`ValueSetProfiler.record`,
:meth:`~ValueSetProfiler.segment_enter` and
:meth:`~ValueSetProfiler.segment_exit` at run time instead.

The pipeline runs the profiler once over every candidate segment and
applies the frequency filter (:mod:`repro.profiling.freq`) to that run's
execution counts.  A segment's profile does not depend on which other
segments are profiled, so an optional allow-list of segment ids only
narrows what is recorded.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..runtime.hashtable import LRUBuffer
from ..runtime.machine import Machine

LRU_SIZES = (1, 4, 16, 64)


@dataclass
class SegmentProfile:
    seg_id: int
    # input sets in execution order, as ids interned through _key_ids
    key_stream: array = field(default_factory=lambda: array("I"))
    inclusive_cycles: int = 0
    # distinct input set -> id, in first-seen order
    _key_ids: dict[tuple, int] = field(default_factory=dict, repr=False)
    _lru_ratios: dict[int, float] = field(default_factory=dict, repr=False)
    _enter_stack: list[int] = field(default_factory=list)

    @property
    def executions(self) -> int:
        return len(self.key_stream)

    @property
    def distinct_inputs(self) -> int:
        return len(self._key_ids)

    @property
    def value_counts(self) -> Counter:
        """Executions per distinct input set, in first-seen order (counted
        from the stream on every call)."""
        per_id = Counter(self.key_stream)
        return Counter({key: per_id[key_id] for key, key_id in self._key_ids.items()})

    @property
    def reuse_rate(self) -> float:
        """R = 1 - N_ds / N (0 when never executed)."""
        if self.executions == 0:
            return 0.0
        return 1.0 - self.distinct_inputs / self.executions

    @property
    def mean_cycles(self) -> float:
        """Measured granularity: inclusive cycles per execution."""
        if self.executions == 0:
            return 0.0
        return self.inclusive_cycles / self.executions

    def lru_hit_ratio(self, size: int) -> float:
        """Hit ratio of a ``size``-entry LRU buffer fed this segment's
        input sets in execution order (replayed once, then cached)."""
        ratio = self._lru_ratios.get(size)
        if ratio is None:
            buffer = LRUBuffer(size)
            for key_id in self.key_stream:
                buffer.access(key_id)
            ratio = self._lru_ratios[size] = buffer.hit_ratio
        return ratio

    def histogram(self) -> list[tuple[tuple, int]]:
        """(input set, count) pairs, most frequent first."""
        return self.value_counts.most_common()

    def key_width(self) -> int:
        for key in self._key_ids:
            return len(key)
        return 0


class ValueSetProfiler:
    """The object installed as ``machine.profiler`` during profiling runs.

    It must be installed before ``compile_program``.  The VM binds each
    instrumented segment's :meth:`site` into its translated code, which
    then interns keys and times the segment inline.  The closure backend
    calls the hooks :meth:`record`, :meth:`segment_enter` and
    :meth:`segment_exit` at run time.  Both fill the same profiles.
    """

    def __init__(
        self, machine: Machine, allowed: Optional[set[int]] = None
    ) -> None:
        self.machine = machine
        self.allowed = allowed
        # every segment touched so far: by a hook, by site() or profile()
        self._sites: dict[int, SegmentProfile] = {}

    def _profile(self, seg_id: int) -> SegmentProfile:
        profile = self._sites.get(seg_id)
        if profile is None:
            profile = SegmentProfile(seg_id)
            self._sites[seg_id] = profile
        return profile

    def _enabled(self, seg_id: int) -> bool:
        return self.allowed is None or seg_id in self.allowed

    def site(self, seg_id: int) -> Optional[SegmentProfile]:
        """The profile a compiled site of ``seg_id`` writes into, or
        ``None`` when ``allowed`` filters the segment out (the compiler
        then emits nothing for the site)."""
        if not self._enabled(seg_id):
            return None
        return self._profile(seg_id)

    # -- run-time hooks called by the closure backend's intrinsics -----------

    def record(self, seg_id: int, key: tuple) -> None:
        """__profile: one segment execution with its input value set."""
        if not self._enabled(seg_id):
            return
        profile = self._profile(seg_id)
        key_ids = profile._key_ids
        profile.key_stream.append(key_ids.setdefault(key, len(key_ids)))

    def segment_enter(self, seg_id: int) -> None:
        """__seg_enter: push the cycle count at entry."""
        if not self._enabled(seg_id):
            return
        self._profile(seg_id)._enter_stack.append(self.machine.cycles)

    def segment_exit(self, seg_id: int) -> None:
        """__seg_exit: pop the entry's cycle count and add the elapsed
        cycles on the outermost exit only."""
        if not self._enabled(seg_id):
            return
        profile = self._profile(seg_id)
        if profile._enter_stack:
            start = profile._enter_stack.pop()
            # only accumulate for outermost dynamic instances so recursion
            # does not double-count
            if not profile._enter_stack:
                profile.inclusive_cycles += self.machine.cycles - start

    # -- results -----------------------------------------------------------------

    @property
    def profiles(self) -> dict[int, SegmentProfile]:
        """Profiles of the segments executed at least once.  A site
        compiled but never reached has no profile here, whichever backend
        ran the program."""
        return {seg: p for seg, p in self._sites.items() if p.key_stream}

    def profile(self, seg_id: int) -> SegmentProfile:
        return self._profile(seg_id)

    def execution_counts(self) -> dict[int, int]:
        return {seg: p.executions for seg, p in self.profiles.items()}

"""Structured tracing: process-local nested spans and instant events.

The tracer is the timing half of the observability layer (the decision
half is :mod:`repro.obs.ledger`).  Design constraints, in order:

1. **Disabled tracing is free.**  ``Tracer.span()`` on a disabled tracer
   returns one shared no-op context manager — no allocation, no clock
   read — and the process-local default tracer is disabled unless the
   ``REPRO_TRACE`` environment variable turns it on.  Observability must
   never change a measured number; the differential test in
   ``tests/obs/test_noop_differential.py`` enforces that.
2. **Spans nest.**  A span opened while another is active becomes its
   child.  :meth:`Tracer.serialize` snapshots the spans and events as
   plain data, which :func:`assemble_tree` turns back into one tree.
3. **Two time axes.**  Every span records wall-clock (epoch-based, so a
   service's spans and its caller's line up on one timeline) and,
   when a :class:`~repro.runtime.machine.Machine` is passed, the
   simulated-cycle interval it covered (``cycles_begin``/``cycles``
   in the span args).

4. **Requests travel.**  A tracer may carry a 128-bit ``trace_id``
   and a ``remote_parent`` span id taken from a W3C-style
   ``traceparent`` header (:func:`format_traceparent` /
   :func:`parse_traceparent`): root spans recorded by such a tracer are
   parented under the remote caller's span, so the service can hand a
   request's spans back as one tree (:func:`assemble_tree`) that starts
   at the client.

Clocks and the pid are injectable so exporter tests can be golden-file
exact.  :func:`set_tracer` installs a *thread-local* override above the
shared process default, so concurrent service requests trace into
isolated tracers without seeing each other's spans.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "Span",
    "Tracer",
    "assemble_tree",
    "format_traceparent",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "set_tracer",
]


@dataclass
class Span:
    """One completed (or still-open) traced interval."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_us: int  # wall clock, microseconds since the epoch
    dur_us: int = 0
    pid: int = 0
    args: dict = field(default_factory=dict)
    trace_id: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "args": self.args,
        }
        # keep untraced exports byte-stable (golden files predate trace ids)
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one live span on an enabled tracer."""

    __slots__ = ("_tracer", "_span", "_machine", "_t0")

    def __init__(self, tracer: "Tracer", span: Span, machine) -> None:
        self._tracer = tracer
        self._span = span
        self._machine = machine
        self._t0 = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        span.start_us = int(tracer._wall() * 1_000_000)
        if self._machine is not None:
            span.args["cycles_begin"] = self._machine.cycles
        tracer._stack.append(span.span_id)
        tracer.spans.append(span)
        self._t0 = tracer._clock()
        return span

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        tracer = self._tracer
        span = self._span
        span.dur_us = max(0, int((tracer._clock() - self._t0) * 1_000_000))
        if self._machine is not None:
            span.args["cycles"] = self._machine.cycles - span.args["cycles_begin"]
        if exc_type is not None:
            span.args["error"] = exc_type.__name__
        if tracer._stack and tracer._stack[-1] == span.span_id:
            tracer._stack.pop()
        return False


# -- trace context (W3C-style traceparent) -------------------------------------


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex digits."""
    return os.urandom(16).hex()


def new_span_id() -> int:
    """A fresh non-zero 64-bit span id (for synthetic client-side spans)."""
    while True:
        span_id = int.from_bytes(os.urandom(8), "big")
        if span_id:
            return span_id


def format_traceparent(trace_id: str, span_id: int) -> str:
    """Render the W3C ``traceparent`` header value ``00-<trace>-<span>-01``."""
    return f"00-{trace_id}-{span_id & 0xFFFFFFFFFFFFFFFF:016x}-01"


def parse_traceparent(value: Optional[str]) -> Optional[tuple[str, int]]:
    """Parse a ``traceparent`` header into ``(trace_id, parent_span_id)``.

    Returns None on anything malformed (wrong shape, non-hex, all-zero
    ids) — a bad header means "untraced", never an error.
    """
    if not value or not isinstance(value, str):
        return None
    parts = value.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_hex, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_hex) != 16 or len(flags) != 2:
        return None
    try:
        int(version, 16)
        int(flags, 16)
        trace_val = int(trace_id, 16)
        span_val = int(span_hex, 16)
    except ValueError:
        return None
    if version == "ff" or trace_val == 0 or span_val == 0:
        return None
    return trace_id, span_val


class Tracer:
    """Collects spans and events for one process (or one request).

    Args:
        enabled: when False every tracing entry point is a no-op.
        clock: monotonic clock used for durations (injectable for tests).
        wall: epoch clock used for timestamps (injectable for tests).
        pid: process id recorded on spans (injectable for tests).
        trace_id: optional 32-hex request trace id stamped on every span
            and event (see :func:`parse_traceparent`).
        remote_parent: optional span id of the remote caller's span; root
            spans recorded here are parented under it so the assembled
            tree starts at the client.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
        pid: Optional[int] = None,
        trace_id: Optional[str] = None,
        remote_parent: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self.trace_id = trace_id
        self.remote_parent = remote_parent
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._clock = clock
        self._wall = wall
        self._pid = os.getpid() if pid is None else pid
        self._stack: list[int] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    def span(self, name: str, category: str = "pipeline", machine=None, **args):
        """Open a nested span; use as a context manager.

        ``machine`` adds simulated-cycle attribution: the span's args gain
        ``cycles_begin`` and ``cycles`` (the cycle interval covered).
        Extra keyword arguments become span args verbatim.
        """
        if not self.enabled:
            return _NULL_SPAN
        span = Span(
            span_id=self._alloc_id(),
            parent_id=self._stack[-1] if self._stack else self.remote_parent,
            name=name,
            category=category,
            start_us=0,
            pid=self._pid,
            args=dict(args),
            trace_id=self.trace_id,
        )
        return _SpanContext(self, span, machine)

    def event(self, name: str, category: str = "event", **args) -> None:
        """Record an instant event (e.g. a cache hit) at the current time."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "category": category,
            "ts_us": int(self._wall() * 1_000_000),
            "parent_id": self._stack[-1] if self._stack else self.remote_parent,
            "pid": self._pid,
            "args": dict(args),
        }
        if self.trace_id is not None:
            event["trace_id"] = self.trace_id
        self.events.append(event)

    def current_span_id(self) -> Optional[int]:
        """The innermost open span's id, or the remote parent, or None."""
        if self._stack:
            return self._stack[-1]
        return self.remote_parent

    def _alloc_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    # -- export ----------------------------------------------------------------

    def serialize(self) -> dict:
        """Plain-data snapshot of the spans and events recorded so far.

        The lists are copied first, so a caller may snapshot a tracer
        that another thread is still appending to."""
        return {
            "spans": [s.to_dict() for s in list(self.spans)],
            "events": [dict(e) for e in list(self.events)],
        }

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        self.spans = []
        self.events = []
        self._stack = []
        self._next_id = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)} events={len(self.events)}>"


# -- span-tree assembly --------------------------------------------------------


def assemble_tree(payload: dict, remote_parent: Optional[int] = None) -> dict:
    """Assemble a :meth:`Tracer.serialize` payload into one nested tree.

    Each node is the span's :meth:`Span.to_dict` plus ``children`` (spans
    whose parent is this span, in recording order) and ``events``
    (instant events parented here, in recording order).

    ``remote_parent`` names the caller-side span id that root spans were
    parented under (see :class:`Tracer`); spans referencing it are roots
    of the local tree.  Spans whose parent is neither recorded locally
    nor the declared remote parent land in ``orphans`` — a non-empty
    orphan list means the trace failed to reassemble completely, which
    the round-trip differential tests treat as a bug.
    """
    spans = payload.get("spans", ())
    events = payload.get("events", ())
    nodes: dict[int, dict] = {}
    trace_id = None
    for doc in spans:
        node = dict(doc)
        node["children"] = []
        node["events"] = []
        nodes[node["span_id"]] = node
        if trace_id is None:
            trace_id = node.get("trace_id")
    roots: list[dict] = []
    orphans: list[dict] = []
    for doc in spans:
        node = nodes[doc["span_id"]]
        parent = doc.get("parent_id")
        if parent is None or parent == remote_parent:
            roots.append(node)
        elif parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            orphans.append(node)
    orphan_events: list[dict] = []
    for event in events:
        parent = event.get("parent_id")
        if parent in nodes:
            nodes[parent]["events"].append(dict(event))
        else:
            orphan_events.append(dict(event))
    return {
        "trace_id": trace_id,
        "remote_parent": remote_parent,
        "roots": roots,
        "orphans": orphans,
        "orphan_events": orphan_events,
        "span_count": len(nodes),
        "event_count": len(events),
    }


# -- the process-local tracer --------------------------------------------------

_ENV_TRACE = "REPRO_TRACE"
_ENV_TRACE_DIR = "REPRO_TRACE_DIR"
_DEFAULT_TRACE_DIR = ".repro_trace"

_default_tracer: Optional[Tracer] = None
_default_lock = threading.Lock()
_tls = threading.local()


def get_tracer() -> Tracer:
    """The current tracer: this thread's override, else the process default.

    The process default is created on first use and is disabled unless
    ``REPRO_TRACE`` is set to a truthy value (``1``, ``chrome``,
    ``jsonl``, or ``both``); when enabled from the environment, the
    trace is exported at interpreter exit into ``REPRO_TRACE_DIR``
    (default ``.repro_trace/``) in the requested format(s).
    """
    tracer = getattr(_tls, "tracer", None)
    if tracer is not None:
        return tracer
    global _default_tracer
    if _default_tracer is None:
        with _default_lock:
            if _default_tracer is None:
                _default_tracer = _from_env()
    return _default_tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as *this thread's* tracer; returns the old override.

    The override shadows the shared process default for the calling
    thread only, which is what lets the service trace concurrent
    requests into isolated tracers.  Passing ``None`` clears the
    override so the thread falls back to the environment default
    (callers restoring a previous tracer can pass the value this
    function returned without checking it)."""
    previous = getattr(_tls, "tracer", None)
    _tls.tracer = tracer
    return previous


def _from_env() -> Tracer:
    value = os.environ.get(_ENV_TRACE, "").strip().lower()
    if value in ("", "0", "false", "off", "no"):
        return Tracer(enabled=False)
    tracer = Tracer(enabled=True)
    formats = ("chrome", "jsonl") if value in ("1", "true", "on", "yes", "both") else (value,)

    import atexit

    def _dump(tracer=tracer, formats=formats) -> None:
        from .export import write_chrome_trace, write_jsonl

        if not (tracer.spans or tracer.events):
            return
        directory = os.environ.get(_ENV_TRACE_DIR) or _DEFAULT_TRACE_DIR
        os.makedirs(directory, exist_ok=True)
        stem = os.path.join(directory, f"repro-{tracer._pid}")
        if "chrome" in formats:
            write_chrome_trace(tracer, stem + ".trace.json")
        if "jsonl" in formats:
            write_jsonl(tracer, stem + ".trace.jsonl")

    atexit.register(_dump)
    return tracer

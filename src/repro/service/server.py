"""The multi-tenant compile-and-run server (reuse-as-a-service).

:class:`ReuseService` is an asyncio HTTP server exposing the facade
(:mod:`repro.api`) over five endpoints:

* ``POST /v1/compile`` — ``{"tenant", "source", "options"}`` → a
  content-addressed program id; compiling the same program twice is a
  cache hit on the tenant's program cache.
* ``POST /v1/run`` — ``{"tenant", "inputs", ...}`` plus either
  ``"program"`` (a previous compile's id) or inline
  ``"source"``/``"options"`` → one measured execution.  Repeated runs of
  one program share its session-warmed reuse tables, so the service
  accumulates hits across requests — the deployment story of the
  paper's scheme.
* ``GET /v1/stats`` — per-tenant program caches, run counts, aggregate
  table telemetry, and SLO accounting (``?tenant=`` narrows to one).
* ``GET /metrics`` — the shared registry as OpenMetrics
  (:func:`~repro.obs.metrics.render_openmetrics`).
* ``GET /healthz`` — liveness plus drain state.
* ``GET /v1/trace`` / ``GET /v1/trace/<id>`` — recent/slowest request
  summaries and one request's assembled span tree.  A request is traced
  when it carries a ``traceparent`` header (``ServiceConfig.trace`` =
  ``"auto"``; ``"all"`` traces everything, ``"off"`` nothing): the
  server parses the header, opens an ``http.request`` root span in its
  own per-request :class:`~repro.obs.tracer.Tracer`, and the executor
  closure installs that tracer thread-locally, so every pipeline span,
  table probe stat, governor transition, and ledger verdict recorded
  below :mod:`repro.api` lands in the request's tree.  The response
  carries ``X-Repro-Trace-Id``.
* ``GET /v1/events`` — the structured event log
  (:class:`~repro.obs.log.EventLog`) as a long-pollable cursor stream
  (``?since=&wait=&level=&limit=``); ``repro tail`` renders it.

Execution model: the event loop only parses and routes; compiles and
runs execute on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
(the simulator is GIL-bound pure Python — threads suffice and share the
warmed tables).  Admission control is a single in-flight bound
(``ServiceConfig.max_pending``): beyond it requests are rejected with
429 and a ``Retry-After`` hint rather than queued without bound.  Each
admitted request races a ``request_timeout`` — losers get 504 (the
worker finishes harmlessly in the background; runs have no side effects
beyond warming the program's own tables).  :meth:`drain` flips new work
to 503 while waiting for in-flight requests, bounded by
``drain_grace``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..api import RunOptions
from ..errors import ConfigError, ReproError
from ..obs.log import EventLog, set_event_log
from ..obs.metrics import OPENMETRICS_CONTENT_TYPE, MetricsRegistry
from ..obs.tracer import Tracer, assemble_tree, new_trace_id, parse_traceparent, set_tracer
from .config import ServiceConfig, compile_options_from_wire
from .http import (
    ProtocolError,
    Request,
    Response,
    json_response,
    read_request,
    write_response,
)
from .state import ProgramEntry, ServiceState, TenantState
from .trace import TraceStore

__all__ = ["ReuseService", "ServiceThread"]

_LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)

# /v1/events long-poll knobs: poll cadence and the cap on one wait
_EVENTS_POLL_SECONDS = 0.05
_EVENTS_MAX_WAIT = 30.0


def _trace_id_of(request: Request) -> Optional[str]:
    return request.tracer.trace_id if request.tracer is not None else None


def _root_span_id_of(request: Request) -> Optional[int]:
    tracer = request.tracer
    if tracer is None or not tracer.spans:
        return None
    return tracer.spans[0].span_id


class ReuseService:
    """The asyncio server; all methods must run on one event loop."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.state = ServiceState(self.config, registry)
        self.registry = self.state.registry
        self.traces = TraceStore(self.config.trace_capacity)
        self.event_log: Optional[EventLog] = (
            EventLog(capacity=self.config.log_capacity)
            if self.config.log_capacity > 0
            else None
        )
        self._previous_log: Optional[EventLog] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._semaphores: dict[str, asyncio.Semaphore] = {}
        self._connections: set = set()
        self._pending = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ReuseService":
        if self._server is not None:
            return self
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.resolved_workers(),
            thread_name_prefix="repro-service",
        )
        if self.event_log is not None:
            # process-local install so the governor / perf gate emitters
            # running on worker threads land in the service's ring
            self._previous_log = set_event_log(self.event_log)
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host, port=self.config.port
        )
        self._emit("service.start", host=self.config.host, workers=self.config.resolved_workers())
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        return self._pending

    async def drain(self, grace: Optional[float] = None) -> bool:
        """Stop admitting work (new requests get 503) and wait up to
        ``grace`` seconds for in-flight requests; True when idle."""
        self._draining = True
        grace = self.config.drain_grace if grace is None else grace
        if self._pending == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=grace)
            return True
        except asyncio.TimeoutError:
            return False

    async def aclose(self) -> None:
        """Drain, stop the listener, shut the worker pool, release every
        tenant's programs.  Idempotent."""
        self._draining = True
        if self._server is not None:
            self._emit("service.stop", level="warning")
            await self.drain()
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            if self.event_log is not None:
                set_event_log(self._previous_log)
                self._previous_log = None
        # idle keep-alive connections sit in read_request forever; cancel
        # their handler tasks so loop shutdown finds nothing half-open
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.state.close()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except ProtocolError as exc:
                    response = json_response({"error": str(exc)}, status=exc.status)
                    await write_response(writer, response, keep_alive=False)
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                await write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection, exit quietly
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        start = time.perf_counter()
        self._begin_trace(request)
        root = None
        if request.tracer is not None:
            root = request.tracer.span(
                "http.request",
                category="service",
                method=request.method,
                path=request.path,
            )
            root.__enter__()
        try:
            response = await self._route(request)
        finally:
            if root is not None:
                root.__exit__(None, None, None)
        elapsed = time.perf_counter() - start
        self._observe(request, response.status, elapsed)
        if request.tracer is not None:
            response.headers.setdefault("X-Repro-Trace-Id", request.tracer.trace_id)
            self._store_trace(request, response.status, elapsed)
        return response

    async def _route(self, request: Request) -> Response:
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                response = json_response(
                    {
                        "status": "draining" if self._draining else "ok",
                        "pending": self._pending,
                    }
                )
            elif route == ("GET", "/metrics"):
                response = Response(
                    body=self.registry.render_openmetrics().encode("utf-8"),
                    content_type=OPENMETRICS_CONTENT_TYPE,
                )
            elif route == ("GET", "/v1/stats"):
                response = self._handle_stats(request)
            elif route == ("GET", "/v1/trace"):
                response = self._handle_trace_index(request)
            elif request.method == "GET" and request.path.startswith("/v1/trace/"):
                response = self._handle_trace_get(request)
            elif route == ("GET", "/v1/events"):
                response = await self._handle_events(request)
            elif route == ("POST", "/v1/compile"):
                response = await self._admitted(request, self._handle_compile)
            elif route == ("POST", "/v1/run"):
                response = await self._admitted(request, self._handle_run)
            elif request.path in (
                "/healthz",
                "/metrics",
                "/v1/stats",
                "/v1/trace",
                "/v1/events",
                "/v1/compile",
                "/v1/run",
            ):
                response = json_response({"error": "method not allowed"}, status=405)
            else:
                response = json_response({"error": f"no route {request.path}"}, status=404)
        except _UnknownProgram as exc:
            response = json_response({"error": str(exc)}, status=404)
        except ReproError as exc:
            response = json_response({"error": str(exc)}, status=400)
        except (ValueError, TypeError, KeyError) as exc:
            response = json_response({"error": f"bad request: {exc}"}, status=400)
        except Exception as exc:  # the server must outlive any one request
            response = json_response(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}, status=500
            )
        return response

    def _observe(self, request: Request, status: int, elapsed: float) -> None:
        endpoint = request.path
        if request.method == "GET" and endpoint.startswith("/v1/trace/"):
            endpoint = "/v1/trace/{id}"  # one label value, not one per trace
        self.registry.counter(
            "repro_service_requests", "HTTP requests served, by endpoint and status."
        ).labels(endpoint=endpoint, status=str(status)).inc()
        self.registry.histogram(
            "repro_service_request_seconds",
            "Request latency in wall-clock seconds.",
            buckets=_LATENCY_BUCKETS,
        ).labels(endpoint=endpoint).observe(elapsed)
        if request.tenant is not None and endpoint in ("/v1/compile", "/v1/run"):
            bad = self.state.tenant(request.tenant).slo.record(elapsed, status)
            if bad:
                self._emit(
                    "slo.violation",
                    level="warning",
                    tenant=request.tenant,
                    endpoint=endpoint,
                    status=status,
                    ms=round(elapsed * 1000.0, 3),
                    trace_id=_trace_id_of(request),
                )
        if endpoint in ("/v1/compile", "/v1/run") or status >= 500:
            self._emit(
                "service.request",
                level="warning" if status >= 500 else "info",
                endpoint=endpoint,
                status=status,
                ms=round(elapsed * 1000.0, 3),
                tenant=request.tenant,
                trace_id=_trace_id_of(request),
                span_id=_root_span_id_of(request),
            )

    # -- request tracing -----------------------------------------------------

    def _begin_trace(self, request: Request) -> None:
        """Attach a per-request tracer according to ``ServiceConfig.trace``.

        ``auto`` traces exactly the requests whose client sent a
        ``traceparent``; malformed headers mean untraced, never an
        error.  The tracer object is private to this request, so
        concurrently traced requests never share span state.
        """
        mode = self.config.trace
        if mode == "off":
            return
        context = parse_traceparent(request.headers.get("traceparent"))
        if context is None and mode != "all":
            return
        trace_id, remote_parent = context if context else (new_trace_id(), None)
        request.tracer = Tracer(
            enabled=True, trace_id=trace_id, remote_parent=remote_parent
        )

    def _store_trace(self, request: Request, status: int, elapsed: float) -> None:
        tracer = request.tracer
        # snapshot: a 504'd worker may still be appending spans
        payload = {
            "spans": [s.to_dict() for s in list(tracer.spans)],
            "events": [dict(e) for e in list(tracer.events)],
        }
        self.traces.put(
            {
                "trace_id": tracer.trace_id,
                "method": request.method,
                "path": request.path,
                "tenant": request.tenant,
                "status": status,
                "duration_ms": round(elapsed * 1000.0, 3),
                "ts_us": int(time.time() * 1_000_000),
                "tree": assemble_tree(payload, remote_parent=tracer.remote_parent),
            }
        )

    def _in_request(self, request: Request, fn, *args):
        """A zero-arg closure for the executor that runs ``fn`` with the
        request's tracer installed thread-locally (so every
        ``get_tracer()`` emitter below the facade traces into it)."""
        tracer = request.tracer
        if tracer is None:
            return lambda: fn(*args)

        def call():
            previous = set_tracer(tracer)
            try:
                return fn(*args)
            finally:
                set_tracer(previous)

        return call

    def _emit(self, name: str, level: str = "info", **args) -> None:
        if self.event_log is not None:
            args = {k: v for k, v in args.items() if v is not None}
            self.event_log.emit(name, level=level, **args)

    # -- admission control ---------------------------------------------------

    async def _admitted(self, request: Request, handler) -> Response:
        if self._draining:
            self._reject("draining", request)
            return json_response({"error": "service is draining"}, status=503)
        if self._pending >= self.config.max_pending:
            self._reject("backpressure", request)
            return json_response(
                {"error": "too many in-flight requests"},
                status=429,
                headers={"Retry-After": f"{self.config.retry_after:g}"},
            )
        payload = request.json()
        if not isinstance(payload, dict):
            raise ConfigError("request body must be a JSON object")
        self._pending += 1
        self._idle.clear()
        gauge = self.registry.gauge(
            "repro_service_inflight", "Admitted requests currently in flight."
        )
        gauge.inc()
        try:
            return await asyncio.wait_for(
                handler(request, payload), timeout=self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self._reject("timeout", request)
            return json_response(
                {"error": f"request exceeded {self.config.request_timeout:g}s"},
                status=504,
            )
        finally:
            self._pending -= 1
            gauge.dec()
            if self._pending == 0:
                self._idle.set()

    def _reject(self, reason: str, request: Optional[Request] = None) -> None:
        self.registry.counter(
            "repro_service_rejected", "Requests rejected, by reason."
        ).labels(reason=reason).inc()
        self._emit(
            "service.reject",
            level="warning",
            reason=reason,
            trace_id=_trace_id_of(request) if request is not None else None,
        )

    def _semaphore(self, tenant: str) -> asyncio.Semaphore:
        semaphore = self._semaphores.get(tenant)
        if semaphore is None:
            policy = self.config.policy_for(tenant)
            semaphore = asyncio.Semaphore(policy.max_concurrency)
            self._semaphores[tenant] = semaphore
        return semaphore

    # -- handlers ------------------------------------------------------------

    @staticmethod
    def _tenant_name(payload: dict) -> str:
        tenant = payload.get("tenant")
        if not tenant or not isinstance(tenant, str):
            raise ConfigError("request must name a tenant")
        return tenant

    @staticmethod
    def _source(payload: dict) -> str:
        source = payload.get("source")
        if not source or not isinstance(source, str):
            raise ConfigError("request must carry mini-C source")
        return source

    @staticmethod
    def _inputs(payload: dict) -> list:
        inputs = payload.get("inputs", [])
        if not isinstance(inputs, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in inputs
        ):
            raise ConfigError("inputs must be a list of numbers")
        return inputs

    async def _handle_compile(self, request: Request, payload: dict) -> Response:
        name = self._tenant_name(payload)
        request.tenant = name
        source = self._source(payload)
        tenant = self.state.tenant(name)
        options = compile_options_from_wire(payload.get("options"), tenant.policy)
        loop = asyncio.get_running_loop()
        async with self._semaphore(name):
            entry, cached = await loop.run_in_executor(
                self._executor,
                self._in_request(request, tenant.get_or_compile, source, options),
            )
        return json_response(
            {
                "tenant": name,
                "program": entry.key,
                "cached": cached,
                "opt": entry.options.opt,
                "reuse": entry.options.reuse,
                "governed": entry.options.governed,
                "backend": entry.options.backend,
            }
        )

    async def _handle_run(self, request: Request, payload: dict) -> Response:
        name = self._tenant_name(payload)
        request.tenant = name
        tenant = self.state.tenant(name)
        inputs = self._inputs(payload)
        entry_name = payload.get("entry")
        if entry_name is not None and not isinstance(entry_name, str):
            raise ConfigError("entry must be a function name")
        loop = asyncio.get_running_loop()
        async with self._semaphore(name):
            entry, cached = await self._resolve_program(loop, tenant, request, payload)
            run_options = RunOptions(entry=entry_name)
            result = await loop.run_in_executor(
                self._executor,
                self._in_request(
                    request,
                    entry.session.run_program,
                    entry.program,
                    inputs,
                    run_options,
                ),
            )
        tenant.record_run(entry)
        tables = {"probes": 0, "hits": 0}
        for stats in result.table_stats.values():
            tables["probes"] += stats.probes
            tables["hits"] += stats.hits
        return json_response(
            {
                "tenant": name,
                "program": entry.key,
                "cached": cached,
                "value": result.value,
                "cycles": result.cycles,
                "seconds": result.seconds,
                "energy_joules": result.energy_joules,
                "output_checksum": result.output_checksum,
                "tables": tables,
                "governor": {
                    seg_id: snap["state"] for seg_id, snap in result.governor.items()
                },
            }
        )

    async def _resolve_program(
        self, loop, tenant: TenantState, request: Request, payload: dict
    ) -> tuple[ProgramEntry, bool]:
        """``program`` id → cache lookup (404 via ConfigError when gone);
        otherwise inline source compiles (or hits) the tenant cache."""
        key = payload.get("program")
        if key is not None:
            if payload.get("source") is not None:
                raise ConfigError("pass source or program, not both")
            entry = tenant.lookup(key)
            if entry is None:
                raise _UnknownProgram(key)
            return entry, True
        source = self._source(payload)
        options = compile_options_from_wire(payload.get("options"), tenant.policy)
        return await loop.run_in_executor(
            self._executor,
            self._in_request(request, tenant.get_or_compile, source, options),
        )

    def _handle_stats(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        if tenant:
            payload = self.state.tenant(tenant).stats()
        else:
            payload = self.state.stats()
        payload = dict(payload)
        payload["pending"] = self._pending
        payload["draining"] = self._draining
        payload["traces"] = len(self.traces)
        return json_response(payload)

    def _handle_trace_index(self, request: Request) -> Response:
        limit = _int_query(request, "limit", 20, low=1, high=self.traces.capacity)
        return json_response(
            {
                "stored": len(self.traces),
                "capacity": self.traces.capacity,
                "recent": self.traces.recent(limit),
                "slowest": self.traces.slowest(min(limit, 5)),
            }
        )

    def _handle_trace_get(self, request: Request) -> Response:
        trace_id = request.path[len("/v1/trace/"):]
        record = self.traces.get(trace_id)
        if record is None:
            return json_response(
                {"error": f"unknown trace {trace_id!r} (evicted or never stored)"},
                status=404,
            )
        return json_response(record)

    async def _handle_events(self, request: Request) -> Response:
        """Cursor read of the event-log ring, with optional long-poll.

        ``?since=<seq>`` returns records newer than the cursor;
        ``&wait=<seconds>`` (capped) holds the request open until a
        matching record arrives; ``&level=`` filters, ``&limit=``
        bounds one page.
        """
        log = self.event_log
        if log is None:
            return json_response({"error": "event log is disabled"}, status=404)
        since = _int_query(request, "since", 0, low=0, high=1 << 62)
        limit = _int_query(request, "limit", 500, low=1, high=log.capacity)
        level = request.query.get("level", "debug")
        try:
            wait = min(float(request.query.get("wait", "0")), _EVENTS_MAX_WAIT)
        except ValueError:
            raise ConfigError("wait must be a number of seconds") from None
        try:
            result = log.since(since, level=level, limit=limit)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not result["records"] and wait > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + wait
            # polling, not a blocking Condition wait: the loop thread
            # must stay free to serve the requests that generate events
            while loop.time() < deadline:
                await asyncio.sleep(_EVENTS_POLL_SECONDS)
                result = log.since(since, level=level, limit=limit)
                if result["records"] or self._draining:
                    break
        return json_response(result)


def _int_query(request: Request, name: str, default: int, low: int, high: int) -> int:
    text = request.query.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None
    if not low <= value <= high:
        raise ConfigError(f"{name} must be in [{low}, {high}], got {value}")
    return value


class _UnknownProgram(ReproError):
    def __init__(self, key: str) -> None:
        super().__init__(f"unknown program {key!r} (evicted or never compiled)")


class ServiceThread:
    """A :class:`ReuseService` on a private event loop in a daemon thread.

    The synchronous adapter the CLI, the load generator, and the tests
    use: ``start()`` blocks until the port is bound; ``close()`` drains
    and stops.  Usable as a context manager.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._config = config
        self._registry = registry
        self.service: Optional[ReuseService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ConfigError("service thread failed to start within 30s")
        if self._error is not None:
            raise ConfigError(f"service failed to start: {self._error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/loop failures to start()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self.service = ReuseService(self._config, registry=self._registry)
        await self.service.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.aclose()

    @property
    def port(self) -> int:
        if self.service is None:
            raise ConfigError("service thread is not started")
        return self.service.port

    @property
    def url(self) -> str:
        if self.service is None:
            raise ConfigError("service thread is not started")
        return self.service.url

    @property
    def registry(self) -> MetricsRegistry:
        if self.service is None:
            raise ConfigError("service thread is not started")
        return self.service.registry

    @property
    def event_log(self) -> Optional[EventLog]:
        if self.service is None:
            raise ConfigError("service thread is not started")
        return self.service.event_log

    @property
    def traces(self) -> TraceStore:
        if self.service is None:
            raise ConfigError("service thread is not started")
        return self.service.traces

    def drain(self, grace: Optional[float] = None) -> bool:
        """Synchronously drain the service from any thread: new requests
        get 503 while in-flight ones finish (bounded by ``grace``)."""
        if self._loop is None or self.service is None:
            raise ConfigError("service thread is not started")
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(grace), self._loop
        )
        return future.result(timeout=(grace or self.service.config.drain_grace) + 30)

    def close(self) -> None:
        """Drain and stop the service; joins the loop thread. Idempotent."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

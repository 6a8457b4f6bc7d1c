"""The stable public facade of the repro package.

The package grew three layers — the reuse pipeline, the cost-model
runtime, and the experiment harness — each with its own entry points.
This module is the one supported way in::

    import repro

    program = repro.compile(source)           # reuse pipeline, lazy profile
    result = program.run(inputs)              # RunResult: value + metrics
    print(result.cycles, result.speedup_vs(baseline))

    plain = repro.compile(source, repro.CompileOptions(reuse=False))
    plain.run(inputs)

    options = repro.CompileOptions(governed=True)
    with repro.Session(options) as session:   # warmed tables + disk cache
        for stream in streams:
            session.run(source, stream)

    All compile-time knobs travel in one frozen :class:`CompileOptions`
    value (per-run knobs in :class:`RunOptions`).

Everything here is a thin veneer over :class:`~repro.reuse.pipeline.ReusePipeline`,
:class:`~repro.runtime.machine.Machine`, and the observability layer; the
facade adds lifecycle (lazy profiling, per-opt program memoization, table
warming, warm executables, disk caching) and one stable result type.

Input-literal parsing for the CLI also lives here
(:func:`parse_input_literal` / :func:`parse_input_stream`): one parser for
``--inputs`` and ``--inputs-file`` that accepts ints, floats, negative
numbers, and scientific notation.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

from .errors import ConfigError
from .minic import format_program, frontend
from .obs import DecisionLedger, Tracer, get_tracer, set_tracer
from .obs.metrics import MetricsRegistry
from .obs.profiler import CycleProfile, CycleProfiler, ledger_costs
from .opt.pipeline import optimize
from .reuse.pipeline import PipelineConfig, PipelineResult, ReusePipeline
from .runtime.compiler import compile_program
from .runtime.governor import GovernorPolicy
from .runtime.machine import Machine, Metrics
from .runtime.srcmap import SourceMap
from .runtime.vm import compile_vm_program

__all__ = [
    "CompileOptions",
    "RunOptions",
    "CompiledProgram",
    "RunResult",
    "Session",
    "compile",
    "parse_input_literal",
    "parse_input_stream",
    "GovernorPolicy",
    "PipelineConfig",
]

_OPT_LEVELS = ("O0", "O3")


# -- options -----------------------------------------------------------------


@dataclass(frozen=True)
class CompileOptions:
    """Every compile-time knob of the facade in one frozen value.

    Replaces the keyword sprawl of the original ``repro.compile(...)`` /
    ``Session(...)`` signatures: construct once, pass everywhere, share
    freely (the value is immutable).  Validation happens at construction
    so a bad option fails at the call site, not deep inside a profiling
    run.  Use :meth:`replace` for a tweaked copy and
    :meth:`content_key` for a content-addressed cache key (what the
    serving layer keys its per-tenant program caches on).
    """

    opt: str = "O0"
    reuse: bool = True
    config: Optional[PipelineConfig] = None
    governed: bool = False
    trace: bool = False
    profile: Union[bool, str] = False
    profile_inputs: Optional[tuple] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.opt not in _OPT_LEVELS:
            raise ConfigError(f"unknown opt level {self.opt!r}; choose from {_OPT_LEVELS}")
        if self.profile not in (True, False, "lines"):
            raise ConfigError(f"profile must be a bool or 'lines', got {self.profile!r}")
        if self.config is not None and not isinstance(self.config, PipelineConfig):
            raise ConfigError(
                f"config must be a PipelineConfig, got {type(self.config).__name__}"
            )
        if self.backend is not None and self.backend not in Machine.BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; expected one of {Machine.BACKENDS}"
            )
        if self.profile_inputs is not None:
            # tolerate any sequence at the call site; store immutably
            object.__setattr__(self, "profile_inputs", tuple(self.profile_inputs))

    def replace(self, **changes) -> "CompileOptions":
        """A copy with ``changes`` applied (and re-validated)."""
        return replace(self, **changes)

    def content_key(self, source: str) -> str:
        """Content hash identifying the compiled artifact: the source
        text plus every option that can change what the pipeline builds
        (opt level, reuse on/off, governed tables, backend, the full
        :class:`PipelineConfig`, and any pinned profiling inputs).
        Pure observers (``trace``, ``profile``) are excluded — they are
        proven not to change outputs or simulated cycles."""
        config = self.config if self.config is not None else PipelineConfig()
        payload = {
            "source": source,
            "opt": self.opt,
            "reuse": self.reuse,
            "governed": self.governed,
            "backend": self.backend,
            "config": asdict(config),
            "profile_inputs": list(self.profile_inputs)
            if self.profile_inputs is not None
            else None,
        }
        blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class RunOptions:
    """Per-run knobs of :meth:`CompiledProgram.run` (frozen, shareable).

    ``entry`` overrides the entry function (default: the pipeline
    config's entry for reuse programs, ``main`` otherwise).
    """

    entry: Optional[str] = None

    def __post_init__(self) -> None:
        if self.entry is not None and (
            not self.entry or not isinstance(self.entry, str)
        ):
            raise ConfigError(
                f"entry must be a non-empty function name, got {self.entry!r}"
            )


def _checked_options(options, kind: type, default):
    """``options`` if it is a ``kind`` instance, ``default`` for ``None``;
    anything else is a :class:`~repro.errors.ConfigError`."""
    if options is None:
        return default
    if not isinstance(options, kind):
        raise ConfigError(
            f"options must be a {kind.__name__}, got {type(options).__name__}"
        )
    return options


# -- input literals ----------------------------------------------------------


def parse_input_literal(token: str) -> Union[int, float]:
    """Parse one numeric input literal.

    Accepts decimal ints, floats with or without a dot, sign prefixes,
    and scientific notation ("1e5", "-2.5e-3" — these parse as floats).
    Raises :class:`~repro.errors.ConfigError` on anything else, including
    non-finite values.
    """
    tok = token.strip()
    if not tok:
        raise ConfigError("empty input literal")
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        value = float(tok)
    except ValueError:
        raise ConfigError(f"invalid input literal {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite input literal {token!r}")
    return value


def parse_input_stream(text: str) -> list:
    """Parse a whole input stream: literals separated by commas and/or
    whitespace (the one parser behind ``--inputs`` and ``--inputs-file``)."""
    return [parse_input_literal(tok) for tok in text.replace(",", " ").split()]


def _resolve_metrics(metrics) -> Optional[MetricsRegistry]:
    """``metrics=`` argument → registry: None/False off, True a fresh
    registry, an existing :class:`MetricsRegistry` shared as-is."""
    if metrics is None or metrics is False:
        return None
    if metrics is True:
        return MetricsRegistry()
    if isinstance(metrics, MetricsRegistry):
        return metrics
    raise ConfigError(
        f"metrics must be a bool or MetricsRegistry, got {type(metrics).__name__}"
    )


# -- results -----------------------------------------------------------------


@dataclass
class RunResult:
    """Everything one measured execution produced.

    ``value`` is the entry function's return value; ``metrics`` the full
    :class:`~repro.runtime.machine.Metrics` (cycles, simulated seconds,
    energy, output checksum, per-table telemetry, governor snapshots);
    ``ledger`` the pipeline's decision ledger (None for ``reuse=False``
    programs); ``trace`` the tracer handle when the program was compiled
    with ``trace=True``.
    """

    value: object
    metrics: Metrics
    governor: dict = field(default_factory=dict)
    ledger: Optional[DecisionLedger] = None
    trace: Optional[Tracer] = None
    cycle_profile: Optional[CycleProfile] = None
    source_map: Optional[SourceMap] = None

    @property
    def cycles(self) -> int:
        return self.metrics.cycles

    @property
    def seconds(self) -> float:
        return self.metrics.seconds

    @property
    def energy_joules(self) -> float:
        return self.metrics.energy_joules

    @property
    def output_checksum(self) -> int:
        return self.metrics.output_checksum

    @property
    def table_stats(self) -> dict:
        return self.metrics.table_stats

    def governor_transitions(self) -> dict:
        """{segment id: transition list} for every governed segment that
        changed state (or resized/flushed) during this run."""
        return {
            seg_id: snap["transitions"]
            for seg_id, snap in self.governor.items()
            if snap["transitions"]
        }

    def speedup_vs(self, baseline: "RunResult") -> float:
        return baseline.metrics.seconds / self.metrics.seconds

    def profile(self) -> CycleProfile:
        """The run's cycle-attribution profile
        (:class:`~repro.obs.profiler.CycleProfile`): the attribution
        tree, the per-segment measured ``C``/``O``/``R``, and the
        measured-vs-ledger report.  Requires the program to have been
        compiled with ``profile=True``."""
        if self.cycle_profile is None:
            raise ConfigError(
                "no cycle profile on this run; compile with profile=True"
            )
        return self.cycle_profile


# -- compiled programs -------------------------------------------------------


class CompiledProgram:
    """A program prepared for (repeated) measured execution.

    With ``reuse=True`` (the default) the reuse pipeline runs lazily: the
    first :meth:`run` profiles on its own inputs unless ``profile_inputs``
    were given or :meth:`profile` was called.  With ``reuse=False`` the
    program executes unmodified (optimized when ``opt="O3"``).

    Code is generated once per concurrent slot, not once per run: the
    program keeps a pool of idle warm executables, each a
    :class:`~repro.runtime.machine.Machine` plus the code compiled against
    it.  A run takes one (compiling a new one only when the pool is
    empty), re-arms it with :meth:`Machine.rearm`, and hands it back when
    it returns, so the pool grows to the program's peak concurrency.  A
    run that raises drops its executable.  Programs compiled with
    ``profile=`` compile on every run, because their profiler and source
    map are per run and bound into the code at compile time.

    Construct through :func:`repro.compile` or
    :meth:`Session.compile`; the constructor is considered internal and
    takes the consolidated :class:`CompileOptions` value.
    """

    def __init__(
        self,
        source: str,
        options: Optional[CompileOptions] = None,
        *,
        metrics=None,
        _cache=None,
        _persist_tables: bool = False,
    ) -> None:
        options = options if options is not None else CompileOptions()
        if not isinstance(options, CompileOptions):
            raise ConfigError(
                f"options must be a CompileOptions, got {type(options).__name__}"
            )
        self.source = source
        self.options = options
        self.opt = options.opt
        self.backend = options.backend
        self.reuse = options.reuse
        self.config = options.config or PipelineConfig()
        self.governed = options.governed
        self.profiled = bool(options.profile)
        self.profile_lines = options.profile == "lines"
        self.tracer: Optional[Tracer] = Tracer(enabled=True) if options.trace else None
        self.registry: Optional[MetricsRegistry] = _resolve_metrics(metrics)
        self._profile_inputs = (
            list(options.profile_inputs)
            if options.profile_inputs is not None
            else None
        )
        self._cache = _cache
        self._persist_tables = _persist_tables
        self._tables: Optional[dict] = None
        self.result: Optional[PipelineResult] = None
        self._programs: dict[str, object] = {}  # opt level -> executable AST
        # idle warm executables: (Machine, runtime program) pairs
        self._idle: list[tuple] = []
        # one lock makes lazy profiling and table building safe under
        # concurrent run() calls (the serving layer shares one compiled
        # program — and its warmed tables — across worker threads)
        self._lock = threading.Lock()
        if not self.reuse:
            program = frontend(source)
            if self.opt == "O3":
                optimize(program, "O3")
            self._programs[self.opt] = program

    # -- lifecycle -----------------------------------------------------------

    def _traced(self):
        """Context manager installing this program's tracer (when
        attached) as the thread's tracer."""

        class _Scope:
            def __init__(self, tracer):
                self._tracer = tracer
                self._previous = None

            def __enter__(self):
                if self._tracer is not None:
                    self._previous = set_tracer(self._tracer)

            def __exit__(self, *exc):
                if self._tracer is not None:
                    set_tracer(self._previous)
                return False

        return _Scope(self.tracer)

    def profile(self, inputs: Sequence = ()) -> PipelineResult:
        """Run the reuse pipeline on ``inputs`` (idempotent; a second call
        returns the first result).  Uses the attached disk cache when the
        program came from a caching :class:`Session`."""
        if not self.reuse:
            raise ConfigError("profile() on a reuse=False program")
        if self.result is not None:
            return self.result
        with self._lock:
            if self.result is not None:
                return self.result
            inputs = list(inputs)
            key = None
            if self._cache is not None:
                from .experiments.cache import cache_key

                key = cache_key("pipeline", self.source, asdict(self.config), inputs)
                cached = self._cache.load_pipeline(key)
                if cached is not None:
                    self.result = cached
                    return cached
            with self._traced():
                result = ReusePipeline(self.source, self.config).run(inputs)
            if self._cache is not None and key is not None:
                self._cache.store_pipeline(key, result)
            self.result = result
            return result

    @property
    def ledger(self) -> Optional[DecisionLedger]:
        return self.result.ledger if self.result is not None else None

    def transformed_source(self) -> str:
        """The transformed program, pretty-printed as mini-C (the paper's
        source-to-source property).  Requires a completed :meth:`profile`."""
        if self.result is None:
            raise ConfigError("transformed_source() before profile()/run()")
        return format_program(self.result.program)

    def _program_for(self, opt: str):
        program = self._programs.get(opt)
        if program is None:
            with self._lock:
                program = self._programs.get(opt)
                if program is None:
                    # optimize a private copy so the pipeline's program
                    # stays O0
                    from .minic.sema import analyze

                    program = copy.deepcopy(self.result.program)
                    analyze(program)
                    optimize(program, opt)
                    self._programs[opt] = program
        return program

    def _tables_for_run(self) -> dict:
        if self._persist_tables:
            if self._tables is None:
                with self._lock:
                    if self._tables is None:
                        self._tables = self.result.build_tables(
                            governed=self.governed
                        )
            return self._tables
        return self.result.build_tables(governed=self.governed)

    def _take_executable(self) -> Optional[tuple]:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _drop_executables(self) -> None:
        """Release the idle warm executables (the session evicted or
        closed this program); a later run compiles afresh."""
        with self._lock:
            self._idle.clear()

    # -- execution -----------------------------------------------------------

    def run(
        self,
        inputs: Sequence = (),
        options: Optional[RunOptions] = None,
    ) -> RunResult:
        """One measured execution; returns a :class:`RunResult`.

        For ``reuse=True`` programs the first call profiles on these
        inputs unless profiling already happened.  Session-bound programs
        keep their (warmed) tables across calls; standalone programs
        build fresh tables per run.  Either way the run executes on a
        warm executable from the program's pool when one is idle, so
        code generation is paid once per concurrent slot (observer-
        profiled programs excepted).  Per-run knobs travel in a
        :class:`RunOptions` value.
        """
        entry = _checked_options(options, RunOptions, RunOptions()).entry
        inputs = list(inputs)
        if self.reuse and self.result is None:
            self.profile(
                self._profile_inputs if self._profile_inputs is not None else inputs
            )
        entry = entry or (self.config.entry if self.reuse else "main")
        tables = {}
        if self.reuse:
            tables = self._tables_for_run()
            program = self._program_for(self.opt)
        else:
            program = self._programs[self.opt]
        # an observed run compiles afresh: its profiler and source map
        # exist for this run only and are bound in at compile time
        warm = None if self.profiled else self._take_executable()
        if warm is None:
            machine, compiled = Machine(self.opt, backend=self.backend), None
        else:
            machine, compiled = warm
        machine.rearm(inputs, tables)
        profiler = None
        source_map = None
        if self.profiled:
            # install before compile_program: the attribution hooks are a
            # compile-time decision (zero overhead when absent)
            profiler = CycleProfiler(
                machine,
                seg_costs=ledger_costs(self.result) if self.reuse else None,
                lines=self.profile_lines,
            )
            machine.cycle_profiler = profiler
        if self.profile_lines:
            # line mode also records the SourceMap so per-line cycles can
            # be joined with probe/commit sites and per-pc bytecode lines
            source_map = SourceMap()
            machine.source_map = source_map
        with self._traced():
            # the ambient tracer — the program's own (installed by
            # _traced) or a service request's thread-local one — gets a
            # machine.run span carrying the run's reuse telemetry, so a
            # request's span tree reaches from HTTP down to table probes
            tracer = get_tracer()
            with tracer.span(
                "machine.run",
                category="api",
                machine=machine,
                opt=self.opt,
                backend=self.backend,
                entry=entry,
                reuse=self.reuse,
                governed=self.governed,
            ) as span:
                if compiled is None:
                    compiled = compile_program(program, machine)
                try:
                    value = compiled.run(entry)
                except BaseException:
                    # the executable is dropped, and the shared tables
                    # must not keep this thread's half-open probes
                    for table in tables.values():
                        table.abandon()
                    raise
                metrics = machine.metrics()
                if span is not None:
                    self._annotate_run_span(span, metrics, tables)
        if self.registry is not None:
            machine.publish_metrics(self.registry)
        if self.governed:
            self._record_governor_verdicts(metrics)
        if not self.profiled:
            with self._lock:
                self._idle.append((machine, compiled))
        return RunResult(
            value=value,
            metrics=metrics,
            governor=metrics.governor,
            ledger=self.ledger,
            trace=self.tracer,
            cycle_profile=profiler.finalize() if profiler is not None else None,
            source_map=source_map,
        )

    def disassemble(self):
        """Compile for the VM backend — without running — and return
        ``(vm_program, source_map)``: the per-function bytecode plus the
        pc → source-line table behind ``repro disasm``.  For ``reuse=True``
        programs, :meth:`profile` (or a first :meth:`run`) must have
        produced the transformed program already."""
        if self.reuse and self.result is None:
            raise ConfigError("disassemble() before profile()/run()")
        machine = Machine(self.opt, backend="vm")
        machine.source_map = SourceMap()
        if self.reuse:
            program = self._program_for(self.opt)
        else:
            program = self._programs[self.opt]
        # straight to the VM compiler: compile_program would fall back to
        # closures on an untranslatable program, and there is no bytecode
        # to show then
        vm_program = compile_vm_program(program, machine)
        return vm_program, machine.source_map

    def _annotate_run_span(self, span, metrics: Metrics, tables: dict) -> None:
        """Attach per-table probe telemetry, governor end states, and
        ledger verdicts to an open ``machine.run`` span."""
        if tables:
            span.args["tables"] = {
                str(seg_id): {
                    "probes": table.stats.probes,
                    "hits": table.stats.hits,
                    "evictions": table.stats.evictions,
                }
                for seg_id, table in sorted(tables.items())
            }
        if metrics.governor:
            span.args["governor"] = {
                str(seg_id): snap["state"]
                for seg_id, snap in sorted(metrics.governor.items())
            }
        ledger = self.ledger
        if ledger is not None and ledger.records:
            span.args["ledger"] = {
                record.label: record.selected
                for record in ledger.records.values()
            }

    def _record_governor_verdicts(self, metrics: Metrics) -> None:
        """Append the online governor's runtime verdicts to the decision
        ledger: the compile-time gates decided to build each table, the
        ``governor`` stage records whether the run kept it profitable."""
        ledger = self.ledger
        if ledger is None:
            return
        for seg_id, snap in sorted(metrics.governor.items()):
            if seg_id not in ledger.records:
                continue
            ledger.record(
                seg_id,
                "governor",
                snap["state"] != "disabled",
                state=snap["state"],
                disables=snap["disables"],
                reenables=snap["reenables"],
                resizes=snap["resizes"],
                flushes=snap["flushes"],
                bypassed=snap["bypassed_executions"],
                transitions=len(snap["transitions"]),
            )


def compile(
    source: str,
    options: Optional[CompileOptions] = None,
    *,
    metrics=None,
) -> CompiledProgram:
    """Prepare mini-C ``source`` for measured execution on the simulated
    StrongARM; the stable entry point of the package.

    Args:
        options: the consolidated compile-time knobs
            (:class:`CompileOptions`) — opt level, reuse on/off,
            :class:`~repro.reuse.pipeline.PipelineConfig`, governed
            tables, tracing, cycle profiling, pinned profiling inputs,
            and the execution backend.  ``None`` means the defaults
            (``O0``, reuse on, static tables, ``REPRO_BACKEND`` or the VM).
        metrics: publish live metrics into a
            :class:`~repro.obs.metrics.MetricsRegistry` — ``True`` for a
            fresh registry (on :attr:`CompiledProgram.registry`), or pass
            a registry shared across programs.  Each run publishes
            once, after it ends, from the machine's and tables' own
            tallies, so a metered program compiles and runs exactly
            like an un-metered one.  Kept out of
            :class:`CompileOptions` because a registry is live shared
            state, not a compile-time constant.
    """
    return CompiledProgram(
        source,
        _checked_options(options, CompileOptions, CompileOptions()),
        metrics=metrics,
    )


# -- sessions ----------------------------------------------------------------


class Session:
    """Repeated runs sharing warmed reuse tables and the disk cache.

    A session-bound :class:`CompiledProgram` keeps its reuse tables
    across :meth:`CompiledProgram.run` calls — entries committed by one
    run serve hits to the next, which is the deployment story the online
    governor targets.  With ``cache=True`` (or a path, or an
    :class:`~repro.experiments.cache.ExperimentCache`) profiling results
    persist to disk under ``.repro_cache/`` exactly like the experiment
    harness's.

    Lifecycle: usable as a context manager.  :meth:`close` is
    idempotent — it drops every memoized program with its tables and
    warm executables; a closed session rejects further compiles and
    runs.  A metered session's registry is read directly
    (:attr:`registry`) or served by ``repro serve`` at ``GET /metrics``.
    :meth:`evict` releases one program; :meth:`run_program` runs a
    session-compiled program while keeping the session's
    latency/throughput metrics flowing — the entry points the
    multi-tenant service (:mod:`repro.service`) pools sessions through.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        *,
        cache=None,
        metrics=None,
    ) -> None:
        self.options = _checked_options(options, CompileOptions, CompileOptions())
        self.opt = self.options.opt
        self.backend = self.options.backend
        self.config = self.options.config
        self.governed = self.options.governed
        self.trace = self.options.trace
        self.cache = self._resolve_cache(cache)
        self.registry: Optional[MetricsRegistry] = _resolve_metrics(metrics)
        self._programs: dict[tuple, CompiledProgram] = {}
        self._lock = threading.Lock()
        self._closed = False

    @staticmethod
    def _resolve_cache(cache):
        if cache is None or cache is False:
            return None
        from .experiments.cache import ExperimentCache

        if isinstance(cache, ExperimentCache):
            return cache
        if cache is True:
            return ExperimentCache()
        return ExperimentCache(cache)

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self, what: str) -> None:
        if self._closed:
            raise ConfigError(f"{what} on a closed Session")

    def _memo_key(self, source: str, options: CompileOptions) -> tuple:
        # content_key covers everything semantic; trace/profile are pure
        # observers excluded from it, but two programs differing only in
        # observers must not share one memo slot
        return (options.content_key(source), options.trace, options.profile)

    def compile(
        self, source: str, options: Optional[CompileOptions] = None
    ) -> CompiledProgram:
        """Like :func:`repro.compile`, but the program shares this
        session's settings, disk cache, and keeps warmed tables.
        Compiling the same source (and options) twice returns the same
        program.  ``options`` overrides the session's defaults for this
        program."""
        self._check_open("compile()")
        options = _checked_options(options, CompileOptions, self.options)
        memo = self._memo_key(source, options)
        program = self._programs.get(memo)
        if program is None:
            with self._lock:
                program = self._programs.get(memo)
                if program is None:
                    program = CompiledProgram(
                        source,
                        options,
                        metrics=self.registry,
                        _cache=self.cache,
                        _persist_tables=True,
                    )
                    self._programs[memo] = program
        return program

    def evict(self, source: str, options: Optional[CompileOptions] = None) -> bool:
        """Drop the memoized program for ``source`` (its warmed tables and
        warm executables); returns whether one was held.  The service's
        program caches call this when recycling tenant capacity."""
        options = options if options is not None else self.options
        with self._lock:
            program = self._programs.pop(self._memo_key(source, options), None)
        if program is None:
            return False
        program._drop_executables()
        return True

    def run_program(
        self,
        program: CompiledProgram,
        inputs: Sequence = (),
        options: Optional[RunOptions] = None,
    ) -> RunResult:
        """Run a session-compiled program, publishing the session's run
        counters and latency histogram (when the session is metered)."""
        self._check_open("run_program()")
        start = time.perf_counter() if self.registry is not None else 0.0
        with get_tracer().span(
            "session.run",
            category="api",
            opt=program.opt,
            backend=program.backend,
            governed=program.governed,
        ):
            result = program.run(inputs, options)
        if self.registry is not None:
            elapsed = time.perf_counter() - start
            self.registry.counter("repro_session_runs", "Session runs completed.").inc()
            self.registry.counter(
                "repro_session_inputs", "Input values consumed by session runs."
            ).inc(len(list(inputs)))
            self.registry.counter(
                "repro_session_wall_seconds", "Wall-clock seconds spent in session runs."
            ).inc(elapsed)
            self.registry.histogram(
                "repro_session_run_seconds",
                "Per-run wall-clock seconds.",
                buckets=(0.001, 0.01, 0.1, 1.0, 10.0, 100.0),
            ).observe(elapsed)
        return result

    def run(self, source: str, inputs: Sequence = ()) -> RunResult:
        """Compile (memoized) and run in one call."""
        self._check_open("run()")
        return self.run_program(self.compile(source), inputs)

    def close(self) -> None:
        """Drop every memoized program, with its warm executables.
        Idempotent: closing twice is a no-op."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            programs = list(self._programs.values())
            self._programs.clear()
        for program in programs:
            program._drop_executables()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

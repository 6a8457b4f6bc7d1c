"""The three benchmark workloads: ``compile``, ``run`` and ``serve``.

``compile``
    Closed loop, one op at a time: a cold ``repro.compile(src)
    .profile(training)`` of each program in
    :data:`~perfbench.programs.COMPILE_PROGRAMS`, in whole rounds, with no
    disk cache.  It is the paper's compile path and the whole cost of a
    first ``/v1/run``: profiling, hashing and the static passes do the
    work; reuse tables and the service are never touched.  The number of
    rounds is fixed by ``--seconds``, not by a deadline.  Every compile
    must select the program's full-stream segments; after timing, the last
    compile of each program runs a seeded held-out prefix and must match
    the reuse=False program.

``run``
    Closed loop over warm sessions: each program in
    :data:`~perfbench.programs.RUN_PROGRAMS` is compiled and profiled in
    set-up, one ``Session`` each (default options, static tables), and
    warmed with one pass over its chunks.  An op is one
    ``Session.run_program`` on a 256-value chunk of a seeded stationary
    held-out stream; chunks cycle, so tables persist across ops and
    probes mostly hit.  This isolates the execution engine, per-run
    codegen and the table read path; the pipeline and the service are
    bypassed.

``serve``
    Open loop against a ``repro serve`` subprocess (default
    ``ServiceConfig``; untraced requests) with two tenants.  Arrivals
    follow a seeded schedule; each tenant owns one keep-alive connection
    (two in all, the box's core count), so a request that falls due while
    its connection is busy waits, and its latency counts from when it was
    due.  Programs are compiled with ``profile_inputs`` set to their
    training stream and warmed in set-up.  Static G721_encode/RASTA serve
    beside governed UNEPIC_drift/GNUGO_drift on drift streams, so tables
    miss, commit and evict, governors transition, and the HTTP, admission,
    executor, metrics and table-write paths all run.  Latency is measured
    at a fixed reference rate, in windows spread between the rungs of the
    ladder; ``throughput_per_s`` is the highest rate on a fixed 1/s
    ladder whose tail meets :data:`LIMIT_MS` with no growing backlog.

``throughput_per_s`` is programs compiled, input values consumed, and
requests served per second, respectively.  The closed loops' times and
rates, and every workload's set-up time, are rescaled to the reference
host speed of :mod:`perfbench.speed`.

Every op's output is checked against the reuse=False program on the same
inputs; a mismatch, error, refusal (429) or timeout (504) is a failed op
and counts as missing every latency limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import re
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.obs.tracer import Tracer, set_tracer
from repro.service.client import ServiceClient
from repro.service.config import TenantPolicy

from . import speed, stats
from .probes import LayerProbe, span_layers
from .programs import (
    COMPILE_PROGRAMS,
    PROGRAMS,
    RUN_PROGRAMS,
    SERVE_MIX,
    SERVE_TENANTS,
)

ROOT = Path(__file__).resolve().parent.parent

# The serve workload's latency limit: the service's default per-tenant
# p99 SLO target.
LIMIT_MS = TenantPolicy().slo_p99_ms
# Compile rounds per --seconds (a round of the five programs takes about
# 1.6 s on a 2-core x86 host at its usual speed).
COMPILE_ROUNDS_PER_S = 0.6
# The serve workload offers REF_RATE req/s for REF_SHARE of the run, in
# REF_WINDOWS windows spread between the rungs of the ladder, to measure
# latency; the ladder climbs in LADDER_STEP req/s rungs of RUNG_SHARE of
# the run each, up to MAX_RATE.
REF_RATE = 10.0
REF_SHARE = 0.5
REF_WINDOWS = 4
LADDER_STEP = 2.0
RUNG_SHARE = 0.075
MAX_RATE = 64.0

clock = time.perf_counter


@dataclass(frozen=True)
class Config:
    """Shape of one benchmark run; :meth:`fast` is the test configuration."""

    seconds: float
    seed: int
    setup_reps: int = 5
    compile_programs: tuple = COMPILE_PROGRAMS
    check_inputs: int = 1024
    run_programs: tuple = RUN_PROGRAMS
    run_chunks: int = 8
    serve_tenants: dict = field(default_factory=lambda: dict(SERVE_TENANTS))
    serve_mix: tuple = SERVE_MIX
    serve_chunks: int = 12
    # ops in each half of a traced run (untraced, then traced)
    traced_rounds: int = 2

    @classmethod
    def fast(cls, seed: int = 1) -> "Config":
        return cls(
            seconds=0.5,
            seed=seed,
            setup_reps=1,
            compile_programs=("RASTA", "G721_encode"),
            check_inputs=256,
            run_programs=("G721_encode", "GNUGO"),
            run_chunks=2,
            serve_tenants={"tenant-a": ("RASTA",), "tenant-b": ("GNUGO_drift",)},
            serve_mix=("RASTA", "GNUGO_drift"),
            serve_chunks=2,
            traced_rounds=1,
        )


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    details: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # traced runs only
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def fresh_import_s() -> float:
    """Wall time of a new interpreter importing the package."""
    start = clock()
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.service"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    return clock() - start


def peak_rss_mb(pid: int | None = None) -> float:
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def plain_oracle(program, chunks: list) -> list:
    """(value, checksum, cycles) of the reuse=False program per chunk."""
    plain = repro.compile(program.source, repro.CompileOptions(reuse=False))
    out = []
    for chunk in chunks:
        result = plain.run(chunk)
        out.append((result.value, result.output_checksum, result.cycles))
    return out


def latency_metrics(outcome: Outcome, p50_ms: float, latencies: list) -> None:
    """``latency_p50_ms`` as given; ``latency_tail_ms`` from every op
    latency (s), so disturbances and failures stay in the tail."""
    ms = [1000.0 * x for x in latencies]
    percentile, value = stats.tail(ms)
    outcome.metrics["latency_p50_ms"] = (p50_ms, "ms")
    outcome.metrics["latency_tail_ms"] = (value, "ms")
    outcome.details["latency"] = {
        "n": len(ms),
        "tail_percentile": percentile,
        "max_ms": max(ms),
        "failed_as_inf": sum(1 for x in ms if math.isinf(x)),
    }


def scaled(rounds: list) -> list:
    """Op seconds of ``(ops, factor)`` rounds at the reference speed."""
    return [seconds * factor for ops, factor in rounds for _, seconds, _ in ops]


def closed_loop_metrics(outcome: Outcome, rounds: list) -> None:
    """Latency and throughput of a closed loop run in rounds of identical
    work.  Each round is ``(ops, factor)``: ``(program, seconds, work)``
    ops and the factor to the reference host speed (:mod:`perfbench.speed`).

    The median is the geometric mean of each program's median: a pooled
    median would sit on the edge between two programs' latency clusters
    and jump between them.  The tail pools every op.
    """
    by_program: dict = {}
    for ops, factor in rounds:
        for name, seconds, _ in ops:
            by_program.setdefault(name, []).append(seconds * factor)
    p50 = stats.geomean([1000.0 * stats.median(v) for v in by_program.values()])
    latency_metrics(outcome, p50, scaled(rounds))
    work = sum(w for ops, _ in rounds for _, _, w in ops)
    outcome.metrics["throughput_per_s"] = (work / sum(scaled(rounds)), "1/s")
    outcome.details["speed_factors"] = [factor for _, factor in rounds]


def setup_times(outcome: Outcome, samples: list) -> None:
    """``setup_s``: the median of the set-ups, at the reference speed."""
    outcome.metrics["setup_s"] = (stats.median(samples), "s")
    outcome.details["setup_s_samples"] = samples


def traced_layers(outcome: Outcome, counters: dict, spans: list) -> None:
    """Fill ``outcome.layers`` from probe counters and spans."""
    layers, problems = span_layers(spans)
    outcome.problems.extend(problems)
    outcome.layers.update(layers)
    outcome.layers.update(
        {
            "jenkins.hash_calls": counters["hash_calls"],
            "jenkins.hash_s": counters["hash_s"],
            "runtime.codegen_calls": counters["codegen_calls"],
            "runtime.ops": counters["ops"],
            "runtime.ops_per_s": counters["ops"] / layers["runtime.exec_s"]
            if layers["runtime.exec_s"]
            else 0.0,
            "hashtable.probes": counters["probes"],
            "hashtable.hit_ratio": counters["hits"] / counters["probes"]
            if counters["probes"]
            else 0.0,
            "hashtable.collisions": counters["collisions"],
            "hashtable.evictions": counters["evictions"],
            "governor.transitions": counters["transitions"],
        }
    )
    outcome.spans = spans


def overhead(outcome: Outcome, untraced: list, traced: list, roots_s: float, ops_s: float) -> None:
    """``trace.overhead_pct``, traced against untraced median op, and
    ``trace.accounted_pct``, the share of the traced ops' time ``ops_s``
    that the layers' root spans ``roots_s`` (so their self times) cover."""
    base = stats.median(untraced)
    outcome.layers["trace.overhead_pct"] = 100.0 * (stats.median(traced) - base) / base
    outcome.layers["trace.accounted_pct"] = 100.0 * roots_s / ops_s


# -- compile ------------------------------------------------------------------


def run_compile(cfg: Config, trace: bool) -> Outcome:
    outcome = Outcome()
    programs = [PROGRAMS[name] for name in cfg.compile_programs]
    training = {p.name: p.training() for p in programs}

    def setup():
        checks = {p.name: p.stream(cfg.seed, cfg.check_inputs) for p in programs}
        oracle = {p.name: plain_oracle(p, [checks[p.name]])[0] for p in programs}
        return checks, oracle

    samples = []
    for _ in range(1 if trace else cfg.setup_reps):
        with speed.Bracket() as bracket:
            start = clock()
            import_s = fresh_import_s()
            checks, oracle = setup()
            elapsed = clock() - start
        samples.append(elapsed * bracket.factor)
    outcome.details["import_s"] = import_s
    setup_times(outcome, samples)

    last: dict = {}

    def compile_round() -> list:
        ops = []
        with speed.Bracket() as bracket:
            for program in programs:
                start = clock()
                compiled = repro.compile(program.source)
                result = compiled.profile(training[program.name])
                elapsed = clock() - start
                outcome.attempted += 1
                selected = tuple(sorted(s.seg_id for s in result.selected))
                if selected != program.selected:
                    outcome.fail(f"{program.name} selected {selected}")
                    elapsed = math.inf
                ops.append((program.name, elapsed, 1))
                last[program.name] = compiled
        return ops, bracket.factor

    def check(rounds: int) -> None:
        plain_cycles = reuse_cycles = 0
        for program in programs:
            result = last[program.name].run(checks[program.name])
            value, checksum, cycles = oracle[program.name]
            if (result.value, result.output_checksum) != (value, checksum):
                outcome.fail(f"{program.name} output differs from reuse=False")
                outcome.failed += rounds - 1  # each of its compiles
            plain_cycles += cycles
            reuse_cycles += result.cycles
        outcome.metrics["sim_speedup"] = (plain_cycles / reuse_cycles, "x")
        table_bytes = sum(last[p.name].result.total_table_bytes() for p in programs)
        outcome.metrics["table_kb"] = (table_bytes / 1024.0, "KiB")

    if trace:
        untraced = scaled([compile_round() for _ in range(cfg.traced_rounds)])
        tracer = Tracer(enabled=True)
        with LayerProbe() as probe:
            previous = set_tracer(tracer)
            try:
                rounds = [compile_round() for _ in range(cfg.traced_rounds)]
                check(len(rounds))
            finally:
                set_tracer(previous)
        spans = [span.to_dict() for span in tracer.spans]
        traced_layers(outcome, probe.totals(), spans)
        roots = sum(s["dur_us"] for s in spans if s["name"] == "pipeline.run") / 1e6
        raw = [op[1] for ops, _ in rounds for op in ops]
        overhead(outcome, untraced, scaled(rounds), roots, sum(raw))
        for program in programs:
            outcome.layers[f"compile.{program.name}_s"] = stats.median(
                [op[1] for ops, _ in rounds for op in ops if op[0] == program.name]
            )
    else:
        # a fixed number of rounds (not a deadline), so the tail is always
        # the same rank: inside the slowest program's cluster
        count = max(2, round(COMPILE_ROUNDS_PER_S * cfg.seconds))
        rounds = [compile_round() for _ in range(count)]
        check(len(rounds))
        closed_loop_metrics(outcome, rounds)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return outcome


# -- run ------------------------------------------------------------------------


class RunSetup:
    """Warm sessions, chunks and the reuse=False oracle of the run workload."""

    def __init__(self, cfg: Config, outcome: Outcome) -> None:
        self.programs = [PROGRAMS[name] for name in cfg.run_programs]
        self.sessions = {}
        self.compiled = {}
        self.chunks = {}
        self.oracle = {}
        for program in self.programs:
            session = repro.Session()
            compiled = session.compile(program.source)
            compiled.profile(program.training())
            self.sessions[program.name] = session
            self.compiled[program.name] = compiled
            self.chunks[program.name] = program.chunks(cfg.seed, cfg.run_chunks)
            self.oracle[program.name] = plain_oracle(program, self.chunks[program.name])
        # warm-up: one untimed pass commits the chunks' entries
        for program in self.programs:
            for index in range(cfg.run_chunks):
                self.run(program.name, index, outcome)

    def run(self, name: str, index: int, outcome: Outcome) -> tuple:
        """One checked op; returns (seconds or inf, plain cycles, reuse cycles)."""
        chunk = self.chunks[name][index]
        start = clock()
        result = self.sessions[name].run_program(self.compiled[name], chunk)
        elapsed = clock() - start
        value, checksum, cycles = self.oracle[name][index]
        if (result.value, result.output_checksum) != (value, checksum):
            outcome.fail(f"{name} chunk {index} output differs from reuse=False")
            elapsed = math.inf
        return elapsed, cycles, result.cycles

    def table_kb(self) -> float:
        return sum(c.result.total_table_bytes() for c in self.compiled.values()) / 1024.0

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()


def run_passes(state: RunSetup, outcome: Outcome, passes: int | None, seconds: float):
    """Whole passes (every program over every chunk, round-robin); a
    fixed number, or as many as start within ``seconds``.  Returns the
    passes as ``(ops, factor)`` rounds (see :func:`closed_loop_metrics`)
    and the (plain, reuse) simulated cycles of the first pass."""
    rounds: list = []
    first = [0, 0]
    count = len(next(iter(state.chunks.values())))
    start = clock()
    while not rounds or (passes is not None and len(rounds) < passes) or (
        passes is None and clock() - start < seconds
    ):
        ops = []
        with speed.Bracket() as bracket:
            for index in range(count):
                for program in state.programs:
                    elapsed, plain, reuse = state.run(program.name, index, outcome)
                    outcome.attempted += 1
                    ops.append((program.name, elapsed, len(state.chunks[program.name][index])))
                    if not rounds:
                        first[0] += plain
                        first[1] += reuse
        rounds.append((ops, bracket.factor))
    return rounds, first


def run_run(cfg: Config, trace: bool) -> Outcome:
    outcome = Outcome()
    samples = []
    state = None
    for _ in range(1 if trace else cfg.setup_reps):
        if state is not None:
            state.close()
        with speed.Bracket() as bracket:
            start = clock()
            import_s = fresh_import_s()
            state = RunSetup(cfg, outcome)
            elapsed = clock() - start
        samples.append(elapsed * bracket.factor)
    outcome.details["import_s"] = import_s
    setup_times(outcome, samples)
    outcome.metrics["table_kb"] = (state.table_kb(), "KiB")

    if trace:
        untraced_rounds, _ = run_passes(state, outcome, cfg.traced_rounds, 0.0)
        state.close()
        tracer = Tracer(enabled=True)
        with LayerProbe() as probe:
            previous = set_tracer(tracer)
            try:
                state = RunSetup(cfg, outcome)
                rounds, _ = run_passes(state, outcome, cfg.traced_rounds, 0.0)
            finally:
                set_tracer(previous)
        spans = [span.to_dict() for span in tracer.spans]
        traced_layers(outcome, probe.totals(), spans)
        raw = [op[1] for ops, _ in rounds for op in ops]
        # the traced setup's warm-up pass also ran sessions; account the
        # timed ops only: the last len(raw) session.run spans
        runs = [s for s in spans if s["name"] == "session.run"][-len(raw):]
        overhead(
            outcome,
            scaled(untraced_rounds),
            scaled(rounds),
            sum(s["dur_us"] for s in runs) / 1e6,
            sum(raw),
        )
    else:
        rounds, first = run_passes(state, outcome, None, cfg.seconds)
        outcome.metrics["sim_speedup"] = (first[0] / first[1], "x")
        closed_loop_metrics(outcome, rounds)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    state.close()
    return outcome


# -- serve ----------------------------------------------------------------------


def _die_with_parent() -> None:
    """In the child: get SIGTERM when the benchmark process dies, so a
    killed benchmark leaves no server behind (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, probe_out: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if probe_out is None:
            argv = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        else:
            argv = [
                sys.executable,
                "-u",
                str(ROOT / "perfbench" / "serve_probe.py"),
                str(probe_out),
                "--port",
                "0",
                "--trace-capacity",
                "4096",
            ]
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
            preexec_fn=_die_with_parent,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Request:
    due: float
    name: str
    index: int
    lag: float = 0.0
    sent: float = 0.0
    done: float = math.inf
    ok: bool = False
    cycles: int = 0
    trace_id: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due if self.ok else math.inf


class ServeSetup:
    """A server with compiled, warmed programs, and the oracle; call
    :meth:`start`, and :meth:`close` (idempotent) on every path."""

    def __init__(self, cfg: Config, outcome: Outcome, probe_out: Path | None = None):
        self.cfg = cfg
        self.outcome = outcome
        self.probe_out = probe_out
        self.tenant_of = {
            name: tenant for tenant, names in cfg.serve_tenants.items() for name in names
        }
        self.programs = [PROGRAMS[name] for name in self.tenant_of]
        self.server: Server | None = None
        self.clients: dict = {}
        self.ids: dict = {}
        self.chunks = {p.name: p.chunks(cfg.seed, cfg.serve_chunks) for p in self.programs}
        self.oracle: dict = {}
        self.cursor = dict.fromkeys(self.chunks, 0)
        # traced warm-up runs: their trees hold the lazy profiling spans
        self.warm_trace_ids: list = []

    async def start(self) -> None:
        self.server = Server(self.probe_out)
        self.clients = {
            tenant: ServiceClient(
                self.server.host, self.server.port, trace=self.probe_out is not None
            )
            for tenant in self.cfg.serve_tenants
        }
        self.oracle = {p.name: plain_oracle(p, self.chunks[p.name]) for p in self.programs}
        for program in self.programs:
            tenant = self.tenant_of[program.name]
            reply = await self.clients[tenant].compile(
                tenant,
                program.source,
                {"governed": program.governed, "profile_inputs": program.training()},
            )
            if not reply.ok:
                raise RuntimeError(f"compile {program.name}: {reply.status} {reply.payload}")
            self.ids[program.name] = reply.payload["program"]
            # the first run profiles on the pinned training stream
            request = Request(clock(), program.name, self.next_chunk(program.name))
            await self.send(request)
            if not request.ok:
                self.outcome.fail(f"warm-up run of {program.name} failed")
            elif request.trace_id:
                self.warm_trace_ids.append(request.trace_id)

    def next_chunk(self, name: str) -> int:
        index = self.cursor[name]
        self.cursor[name] = (index + 1) % len(self.chunks[name])
        return index

    async def send(self, request: Request) -> None:
        tenant = self.tenant_of[request.name]
        client = self.clients[tenant]
        request.sent = clock()
        try:
            reply = await asyncio.wait_for(
                client.run(
                    tenant,
                    program=self.ids[request.name],
                    inputs=self.chunks[request.name][request.index],
                ),
                timeout=60.0,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            await client.close()
            self.outcome.problems.append(f"{request.name}: {type(exc).__name__}")
            return
        request.done = clock()
        if not reply.ok:
            self.outcome.problems.append(f"{request.name}: HTTP {reply.status}")
            return
        value, checksum, _ = self.oracle[request.name][request.index]
        payload = reply.payload
        if (payload["value"], payload["output_checksum"]) != (value, checksum):
            self.outcome.problems.append(f"{request.name} output differs from reuse=False")
            return
        request.ok = True
        request.cycles = payload["cycles"]
        request.trace_id = reply.trace_id

    async def rung(self, rate: float, duration: float, seed: int) -> list:
        """One open-loop step at ``rate`` req/s for ``duration`` s;
        returns its requests once all have completed."""
        # constant spacing; the seed orders the mix (shuffled per cycle)
        rng = random.Random(seed)
        mix = list(self.cfg.serve_mix)
        schedule = []
        for k in range(max(1, int(duration * rate))):
            if k % len(mix) == 0:
                rng.shuffle(mix)
            schedule.append(((k + 1) / rate, mix[k % len(mix)]))
        queues = {tenant: asyncio.Queue() for tenant in self.clients}
        requests: list = []

        async def worker(queue):
            while (request := await queue.get()) is not None:
                await self.send(request)

        workers = [asyncio.create_task(worker(q)) for q in queues.values()]
        origin = clock()
        for offset, name in schedule:
            delay = origin + offset - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            request = Request(origin + offset, name, self.next_chunk(name))
            request.lag = clock() - request.due
            requests.append(request)
            queues[self.tenant_of[name]].put_nowait(request)
        for queue in queues.values():
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return requests

    async def fetch_traces(self, trace_ids: list) -> list:
        """The spans of the given requests, from ``/v1/trace/<id>``."""
        spans: list = []
        client = next(iter(self.clients.values()))
        records = []
        for trace_id in trace_ids:
            reply = await client.trace_tree(trace_id)
            if reply.ok:
                records.append(reply.payload)
        for record in records:
            # span ids are per request: qualify them with the trace id
            stack = list(record["tree"]["roots"])
            while stack:
                node = stack.pop()
                stack.extend(node["children"])
                span = {k: v for k, v in node.items() if k not in ("children", "events")}
                for key in ("span_id", "parent_id"):
                    if span[key] is not None:
                        span[key] = f"{record['trace_id']}:{span[key]}"
                spans.append(span)
        return spans

    async def rejected(self) -> int:
        reply = await next(iter(self.clients.values())).metrics()
        total = 0
        for line in str(reply.payload).splitlines():
            if line.startswith("repro_service_rejected"):
                total += int(float(line.rsplit(None, 1)[1]))
        return total

    async def close(self) -> None:
        for client in self.clients.values():
            await client.close()
        if self.server is not None:
            self.server.stop()


def rung_passes(requests: list) -> bool:
    """The rung meets the limit: nothing failed, the tail is within
    :data:`LIMIT_MS`, and no backlog grew (the last quarter's median
    latency is within a quarter of the limit of the first quarter's)."""
    ms = [1000.0 * r.latency for r in requests]
    if len(ms) < 8 or any(math.isinf(x) for x in ms):
        return False
    quarter = len(ms) // 4
    growth = stats.median(ms[-quarter:]) - stats.median(ms[:quarter])
    return stats.tail(ms)[1] <= LIMIT_MS and growth <= LIMIT_MS / 4


def open_loop_p50(windows: list) -> tuple[float, dict]:
    """The median latency (ms) of the reference windows, as the geometric
    mean of each program's median (see :func:`closed_loop_metrics`); also
    returns the program medians.  Unlike the closed loops, served
    latencies are not rescaled: the calibration runs in the client, and
    the server's speed (and so its queue) follows it too loosely (a
    ten-seed check spread more rescaled than raw)."""
    by_program: dict = {}
    for window in windows:
        for request in window:
            by_program.setdefault(request.name, []).append(request.latency)
    medians = {name: 1000.0 * stats.median(v) for name, v in by_program.items()}
    return stats.geomean(list(medians.values())), medians


async def _counted_rung(state: ServeSetup, outcome: Outcome, rate, seconds, seed) -> list:
    requests = await state.rung(rate, seconds, seed)
    outcome.attempted += len(requests)
    outcome.failed += sum(1 for r in requests if not r.ok)
    return requests


async def _ladder(state: ServeSetup, outcome: Outcome, cfg: Config, ref: list, between) -> float:
    """The highest rate on the 1/s ladder that meets the limit: climb
    from the capacity ``ref`` suggests in steps, then bisect between the
    last rate that passed and the first that failed.  ``between()`` runs
    after every rung."""
    rung_seconds = RUNG_SHARE * cfg.seconds
    good = REF_RATE if rung_passes(ref) else 0.0
    bad = None
    served = [r.done - r.sent for r in ref if r.ok]
    capacity = len(served) / sum(served) if served else 0.0
    rate = max(REF_RATE + 1, math.floor(capacity))
    ladder = []
    seed = cfg.seed
    start = clock()
    while good and rate <= MAX_RATE and clock() - start < 0.5 * cfg.seconds:
        seed += 1
        requests = await _counted_rung(state, outcome, rate, rung_seconds, seed)
        passed = rung_passes(requests)
        if not passed:
            # a rung fails only twice in a row: once may be a slow spell
            seed += 1
            requests = await _counted_rung(state, outcome, rate, rung_seconds, seed)
            passed = rung_passes(requests)
        ladder.append({"rate": rate, "passed": passed, "n": len(requests)})
        await between()
        if passed:
            good = rate
        else:
            bad = rate
        if bad is None:
            rate = good + LADDER_STEP
        elif bad - good > 1:
            rate = math.floor((good + bad) / 2)
        else:
            break
    outcome.details["ladder"] = ladder
    outcome.details["capacity_estimate"] = capacity
    return good


async def _reference_windows(state: ServeSetup, outcome: Outcome, cfg: Config, windows: list):
    """Append one reference window to ``windows`` while fewer than
    :data:`REF_WINDOWS` have run."""
    if len(windows) < REF_WINDOWS:
        seconds = REF_SHARE * cfg.seconds / REF_WINDOWS
        seed = cfg.seed + 1000 * len(windows)
        windows.append(await _counted_rung(state, outcome, REF_RATE, seconds, seed))


async def _traced_serve(state: ServeSetup, outcome: Outcome, cfg: Config, ref: list) -> None:
    """The traced half: per-layer metrics from the probe server's span
    trees and counters, and the tracing overhead against ``ref``."""
    windows: list = []
    for _ in range(REF_WINDOWS):
        await _reference_windows(state, outcome, cfg, windows)
    traced = [r for w in windows for r in w]
    spans = await state.fetch_traces(
        state.warm_trace_ids + [r.trace_id for r in traced if r.trace_id]
    )
    outcome.layers["service.rejected"] = await state.rejected()
    await state.close()
    counters = json.loads(state.probe_out.read_text(encoding="utf-8"))
    traced_layers(outcome, counters, spans)
    runs = {s["trace_id"]: s["dur_us"] / 1000.0 for s in spans if s["name"] == "session.run"}
    server = {
        s["trace_id"]: s["dur_us"] / 1000.0
        for s in spans
        if s["name"] == "http.request" and s["args"].get("path") == "/v1/run"
    }
    client = {r.trace_id: 1000.0 * (r.done - r.sent) for r in traced if r.ok}
    timed = [t for t in client if t in server and t in runs]
    outcome.layers.update(
        {
            "service.server_ms": stats.median([server[t] for t in timed]),
            "service.transport_ms": stats.median([client[t] - server[t] for t in timed]),
            "service.wait_ms": stats.median([server[t] - runs[t] for t in timed]),
            "loadgen.gen_lag_ms": max(1000.0 * r.lag for r in traced),
        }
    )
    # served time is accounted against the client's send-to-reply time;
    # waiting for a busy connection is the generator's own queue
    overhead(
        outcome,
        [r.latency for r in ref],
        [r.latency for r in traced],
        sum(server[t] for t in timed),
        sum(client[t] for t in timed),
    )


async def _serve(cfg: Config, trace: bool, out_dir: Path) -> Outcome:
    outcome = Outcome()
    live: list = []

    async def started(probe_out: Path | None = None) -> ServeSetup:
        for state in live:
            await state.close()
        state = ServeSetup(cfg, outcome, probe_out)
        live.append(state)
        await state.start()
        return state

    try:
        samples = []
        for _ in range(1 if trace else cfg.setup_reps):
            with speed.Bracket() as bracket:
                begin = clock()
                state = await started()
                elapsed = clock() - begin
            samples.append(elapsed * bracket.factor)
        setup_times(outcome, samples)
        windows: list = []
        await _reference_windows(state, outcome, cfg, windows)
        # the first window runs before any rung, on tables only the
        # warm-up touched, so its simulated cycles repeat exactly
        served = [r for r in windows[0] if r.ok]
        outcome.metrics["sim_speedup"] = (
            sum(state.oracle[r.name][r.index][2] for r in served)
            / max(1, sum(r.cycles for r in served)),
            "x",
        )
        if trace:
            while len(windows) < REF_WINDOWS:
                await _reference_windows(state, outcome, cfg, windows)
        else:
            rate = await _ladder(
                state,
                outcome,
                cfg,
                windows[0],
                lambda: _reference_windows(state, outcome, cfg, windows),
            )
            while len(windows) < REF_WINDOWS:
                await _reference_windows(state, outcome, cfg, windows)
            outcome.metrics["throughput_per_s"] = (rate, "1/s")
            outcome.metrics["peak_rss_mb"] = (state.server.peak_rss_mb(), "MiB")
        ref = [r for w in windows for r in w]
        p50, outcome.details["p50_ms_by_program"] = open_loop_p50(windows)
        latency_metrics(outcome, p50, [r.latency for r in ref])
        lags = [1000.0 * r.lag for r in ref]
        outcome.details["gen_lag_ms"] = {"p50": stats.median(lags), "max": max(lags)}
        if trace:
            state = await started(out_dir / "serve-probe.json")
            await _traced_serve(state, outcome, cfg, ref)
    finally:
        for state in live:
            await state.close()
    # the served tables are the ones these sources build on these
    # training streams (the pipeline is deterministic)
    table_bytes = 0
    for program in state.programs:
        compiled = repro.compile(program.source)
        table_bytes += compiled.profile(program.training()).total_table_bytes()
    outcome.metrics["table_kb"] = (table_bytes / 1024.0, "KiB")
    return outcome


def run_serve(cfg: Config, trace: bool, out_dir: Path) -> Outcome:
    return asyncio.run(_serve(cfg, trace, out_dir))


WORKLOADS = {
    "compile": lambda cfg, trace, out_dir: run_compile(cfg, trace),
    "run": lambda cfg, trace, out_dir: run_run(cfg, trace),
    "serve": run_serve,
}

"""Warm executables: a compiled program generates code once per concurrent run.

:class:`repro.api.CompiledProgram` keeps a pool of idle executables — a
machine plus the code compiled against it — and re-arms one per run
instead of compiling afresh.  These tests pin that this is invisible:

* the warm-vs-cold differential — every workload at O0/O3 on both
  backends with static and governed tables: consecutive runs through one
  pooled executable equal the same runs on freshly compiled ones in
  value, checksum, cycles, operation counts, table statistics, merged
  membership and governor snapshots (session tables carry over from run
  to run; a standalone program rebuilds its tables every run);
* the pool's behaviour — one compile for N sequential runs, at most K
  executables for K concurrent threads and never one executable on two
  threads, no executable returned by a run that raised, and observer-
  profiled programs still compiled on every run.
"""

import sys
import threading

import pytest

import repro
from repro import api
from repro.errors import InterpError
from repro.experiments.cache import ExperimentCache
from repro.reuse import PipelineConfig
from repro.runtime.governor import GovernorPolicy
from repro.workloads.registry import ALL_WORKLOADS, get_workload

# profile on a prefix, then run the next few chunks: every workload polls
# __input_avail, and 256 is a whole number of MPEG2 blocks and GNU Go moves
_PROFILE = 2048
_CHUNK = 256
_RUNS = 3

_streams: dict[str, tuple] = {}


def _stream(workload):
    if workload.name not in _streams:
        inputs = workload.default_inputs()[: _PROFILE + _RUNS * _CHUNK]
        chunks = [
            inputs[_PROFILE + i * _CHUNK : _PROFILE + (i + 1) * _CHUNK]
            for i in range(_RUNS)
        ]
        _streams[workload.name] = (inputs[:_PROFILE], chunks)
    return _streams[workload.name]


def _config(workload):
    return PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=workload.memory_budget_bytes,
        governor=workload.governor or GovernorPolicy(),
    )


def _fingerprint(result):
    metrics = result.metrics
    return (
        result.value,
        metrics.output_checksum,
        metrics.cycles,
        metrics.counts,
        metrics.table_stats,
        metrics.merged_members,
        metrics.governor,
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One pipeline per workload, shared by every variant of it."""
    return ExperimentCache(tmp_path_factory.mktemp("warm-pipelines"))


@pytest.fixture
def codegen(monkeypatch):
    """Every machine the facade compiles code against, in order."""
    machines = []
    original = api.compile_program

    def counting(program, machine):
        machines.append(machine)
        return original(program, machine)

    monkeypatch.setattr(api, "compile_program", counting)
    return machines


def _session_runs(options, cache, workload, cold, codegen):
    profile_inputs, chunks = _stream(workload)
    with api.Session(options, cache=cache) as session:
        program = session.compile(workload.source)
        program.profile(profile_inputs)
        before = len(codegen)
        runs = []
        for chunk in chunks:
            if cold:
                program._drop_executables()
            runs.append(_fingerprint(session.run_program(program, chunk)))
    return runs, len(codegen) - before


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("backend", ["closures", "vm"])
@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_warm_session_runs_equal_cold_runs(workload, opt, backend, governed, cache, codegen):
    options = api.CompileOptions(
        opt=opt, backend=backend, governed=governed, config=_config(workload)
    )
    warm, warm_compiles = _session_runs(options, cache, workload, False, codegen)
    cold, cold_compiles = _session_runs(options, cache, workload, True, codegen)
    assert (warm_compiles, cold_compiles) == (1, _RUNS)
    assert warm == cold


@pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
@pytest.mark.parametrize("backend", ["closures", "vm"])
@pytest.mark.parametrize("name", ["G721_encode", "GNUGO"])
def test_warm_standalone_runs_equal_cold_runs(name, backend, governed, codegen):
    """A standalone program rebuilds its tables every run, merged ones
    included; its warm runs equal runs on freshly compiled executables."""
    workload = get_workload(name)
    profile_inputs, chunks = _stream(workload)
    options = api.CompileOptions(
        backend=backend,
        governed=governed,
        config=_config(workload),
        profile_inputs=profile_inputs,
    )
    program = repro.compile(workload.source, options)
    warm = [_fingerprint(program.run(chunk)) for chunk in chunks]
    assert len(codegen) == 1
    cold = []
    for chunk in chunks:
        program._drop_executables()
        cold.append(_fingerprint(program.run(chunk)))
    assert len(codegen) == 1 + _RUNS
    assert warm == cold
    assert any(stats.probes for stats in warm[-1][4].values())


# -- the pool ------------------------------------------------------------------

KERNEL = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};
static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 10; i++)
        r += tab[i & 7] * ((v + i) & 63) + 1000 / v;
    return r;
}
int main(void) {
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}
"""

STREAM = [3, 9, 3, 17, 9, 3] * 40


def test_sequential_runs_compile_once(codegen):
    with api.Session() as session:
        program = session.compile(KERNEL)
        values = [session.run_program(program, STREAM[i:]).value for i in range(6)]
        assert len(codegen) == 1
        assert len(program._idle) == 1
    plain = repro.compile(KERNEL, api.CompileOptions(reuse=False))
    assert [plain.run(STREAM[i:]).value for i in range(6)] == values
    assert len(codegen) == 2


def test_concurrent_runs_pool_at_most_k_executables(monkeypatch):
    threads = 4
    guard = threading.Lock()
    overlaps = []
    executables = []
    original = api.compile_program

    class Exclusive:
        """Flags any executable entered by two threads at once."""

        def __init__(self, inner):
            self.inner = inner
            self.active = 0

        def run(self, entry):
            with guard:
                self.active += 1
                if self.active > 1:
                    overlaps.append(self)
            try:
                return self.inner.run(entry)
            finally:
                with guard:
                    self.active -= 1

    def compile_exclusive(program, machine):
        executable = Exclusive(original(program, machine))
        with guard:
            executables.append(executable)
        return executable

    monkeypatch.setattr(api, "compile_program", compile_exclusive)
    workload = get_workload("G721_encode")
    profile_inputs, chunks = _stream(workload)
    chunks = [chunk[: _CHUNK // 4] for chunk in chunks] + [profile_inputs[:32]]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with api.Session() as session:
            program = session.compile(workload.source)
            program.profile(profile_inputs)
            outcomes = {}
            errors = []

            def work(index, barrier):
                try:
                    barrier.wait(timeout=30)
                    chunk = chunks[index % len(chunks)]
                    result = session.run_program(program, chunk)
                    with guard:
                        outcomes.setdefault(index % len(chunks), set()).add(
                            (result.value, result.output_checksum)
                        )
                except BaseException as exc:  # surfaced by the main thread
                    errors.append(exc)

            for _ in range(3):
                barrier = threading.Barrier(threads)
                pool = [
                    threading.Thread(target=work, args=(i, barrier))
                    for i in range(threads)
                ]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in pool)
                assert not errors, errors
                assert len(program._idle) <= threads
            assert 1 < len(executables) <= threads
            assert not overlaps
            # a chunk's outputs never depend on which executable ran it
            assert all(len(seen) == 1 for seen in outcomes.values())
    finally:
        sys.setswitchinterval(previous)


def test_raising_run_drops_its_executable(codegen):
    with api.Session() as session:
        program = session.compile(KERNEL)
        program.profile(STREAM)
        good = session.run_program(program, STREAM).value
        assert (len(codegen), len(program._idle)) == (1, 1)
        # 1000 / 0 raises inside the reuse segment, between probe and commit
        with pytest.raises(InterpError, match="division by zero"):
            session.run_program(program, [3, 0, 9])
        assert (len(codegen), len(program._idle)) == (1, 0)
        for table in program._tables.values():
            assert not any(getattr(table, "table", table)._stacks)
        assert session.run_program(program, STREAM).value == good
        assert (len(codegen), len(program._idle)) == (2, 1)


def test_evict_and_close_release_the_pool():
    with api.Session() as session:
        program = session.compile(KERNEL)
        session.run_program(program, STREAM)
        assert len(program._idle) == 1
        assert session.evict(KERNEL)
        assert program._idle == []
        other = session.compile(KERNEL)
        session.run_program(other, STREAM)
    assert other._idle == []


@pytest.mark.parametrize("profile", [True, "lines"], ids=["cycles", "lines"])
def test_profiled_programs_compile_every_run(profile, codegen):
    """Observer-profiled runs bind a fresh profiler at compile time, so
    they never pool — and their attribution matches the pooled runs."""
    options = api.CompileOptions(profile_inputs=tuple(STREAM))
    chunks = [STREAM[i * 37 :] for i in range(4)]
    with api.Session(options) as session:
        program = session.compile(KERNEL)
        plain = [_fingerprint(session.run_program(program, chunk)) for chunk in chunks]
    with api.Session(options.replace(profile=profile)) as session:
        program = session.compile(KERNEL)
        before = len(codegen)
        runs = [session.run_program(program, chunk) for chunk in chunks]
        assert len(codegen) - before == len(chunks)
        assert program._idle == []
    assert [_fingerprint(run) for run in runs] == plain
    for run in runs:
        cycle_profile = run.profile()
        assert cycle_profile.total_cycles == run.cycles
        if profile == "lines":
            assert cycle_profile.line_total() == run.cycles
            assert run.source_map is not None
    # compiled afresh every run, the attribution is still deterministic:
    # a second session replaying the same runs reproduces every profile
    with api.Session(options.replace(profile=profile)) as session:
        program = session.compile(KERNEL)
        again = [session.run_program(program, chunk) for chunk in chunks]
    assert [run.profile().to_dict() for run in again] == [
        run.profile().to_dict() for run in runs
    ]

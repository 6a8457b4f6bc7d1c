"""Tests for the experiment disk cache and the parallel runner mode."""

import json


from repro.experiments import (
    ComparisonRun,
    ExperimentCache,
    ExperimentRunner,
    MeasuredRun,
    cache_key,
)
from repro.experiments.runner import _compare_worker
from repro.runtime.hashtable import TableStats
from repro.workloads.base import PaperNumbers, Workload
from repro.workloads.registry import get_workload

_SOURCE = """
int lut[8] = {3, 1, 4, 1, 5, 9, 2, 6};

static int classify(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 8; i++)
        r += lut[i] * ((v >> (i & 3)) & 15) + v % (i + 2);
    return r;
}

int main(void) {
    int acc = 0;
    while (__input_avail()) {
        acc += classify(__input_int());
        __output_int(acc & 255);
    }
    return acc;
}
"""

TINY = Workload(
    name="TINY_CACHE",
    source=_SOURCE,
    default_inputs=lambda: [3, 8, 21, 3, 8, 21, 40] * 30,
    alternate_inputs=lambda: [5, 9, 33, 5, 9] * 30,
    alternate_label="alt",
    key_function="classify",
    description="cache test workload",
    paper=PaperNumbers(),
    min_executions=16,
)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("a", 1, [2, 3]) == cache_key("a", 1, [2, 3])

    def test_sensitive_to_every_part(self):
        base = cache_key("pipeline", "src", {"x": 1}, [1, 2])
        assert cache_key("run", "src", {"x": 1}, [1, 2]) != base
        assert cache_key("pipeline", "src2", {"x": 1}, [1, 2]) != base
        assert cache_key("pipeline", "src", {"x": 2}, [1, 2]) != base
        assert cache_key("pipeline", "src", {"x": 1}, [1, 2, 3]) != base

    def test_part_boundaries_are_unambiguous(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")


class TestRunStore:
    def test_roundtrip_with_stats(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        run = MeasuredRun(
            seconds=1.5, cycles=309, energy_joules=0.25, output_checksum=0xDEAD
        )
        stats = {3: TableStats(probes=10, hits=7, misses=3, collisions=1)}
        cache.store_run("k1", run, stats)
        loaded_run, loaded_stats = cache.load_run("k1")
        assert loaded_run == run
        assert loaded_stats == stats

    def test_roundtrip_without_stats(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        run = MeasuredRun(
            seconds=0.5, cycles=103, energy_joules=0.1, output_checksum=7
        )
        cache.store_run("k2", run)
        assert cache.load_run("k2") == (run, None)

    def test_miss_returns_none(self, tmp_path):
        assert ExperimentCache(tmp_path).load_run("absent") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        run = MeasuredRun(seconds=1, cycles=1, energy_joules=1, output_checksum=1)
        cache.store_run("k3", run)
        path = next((tmp_path / "runs").iterdir())
        path.write_text("{not json")
        assert cache.load_run("k3") is None

    def test_entries_are_json(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        run = MeasuredRun(seconds=1, cycles=9, energy_joules=2, output_checksum=3)
        cache.store_run("k4", run, {1: TableStats(probes=4, hits=2, misses=2)})
        doc = json.loads(next((tmp_path / "runs").iterdir()).read_text())
        assert doc["run"]["cycles"] == 9
        assert doc["stats"]["1"]["hits"] == 2

    def test_env_var_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        assert ExperimentCache().root == tmp_path / "envroot"

    def test_clear(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        run = MeasuredRun(seconds=1, cycles=1, energy_joules=1, output_checksum=1)
        cache.store_run("k5", run)
        cache.clear()
        assert cache.load_run("k5") is None


class TestRunnerIntegration:
    def test_warm_cache_skips_recompute(self, tmp_path, monkeypatch):
        cold = ExperimentRunner(cache=ExperimentCache(tmp_path))
        first = cold.compare(TINY, "O0")

        # a second runner over the same root must not rebuild anything
        warm = ExperimentRunner(cache=ExperimentCache(tmp_path))
        import repro.experiments.runner as runner_mod

        def _boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("expensive path hit despite warm cache")

        monkeypatch.setattr(runner_mod, "ReusePipeline", _boom)
        monkeypatch.setattr(runner_mod, "compile_program", _boom)
        second = warm.compare(TINY, "O0")
        assert second.original == first.original
        assert second.transformed == first.transformed
        assert {k: vars(v) for k, v in second.table_stats.items()} == {
            k: vars(v) for k, v in first.table_stats.items()
        }

    def test_cached_results_match_uncached(self, tmp_path):
        cached = ExperimentRunner(cache=ExperimentCache(tmp_path)).compare(TINY, "O3")
        plain = ExperimentRunner().compare(TINY, "O3")
        assert cached.original == plain.original
        assert cached.transformed == plain.transformed

    def test_cache_key_separates_opt_levels(self, tmp_path):
        runner = ExperimentRunner(cache=ExperimentCache(tmp_path))
        run0 = runner.compare(TINY, "O0")
        run3 = runner.compare(TINY, "O3")
        assert run0.original.cycles != run3.original.cycles


class TestCompareMany:
    def test_normalize_config(self):
        norm = ExperimentRunner._normalize_config
        assert norm("G721_encode") == ("G721_encode", "O0", False, None)
        assert norm((TINY, "O3")) == ("TINY_CACHE", "O3", False, None)
        assert norm(("GNUGO", "O3", True, 4096)) == ("GNUGO", "O3", True, 4096)

    def test_worker_matches_compare(self, tmp_path):
        # the process-pool entry point, run in-process (tracing off)
        name = "G721_encode"
        (run,), payload = _compare_worker(
            ([(name, "O0", False, None)], str(tmp_path), False)
        )
        assert payload is None
        direct = ExperimentRunner().compare(get_workload(name), "O0")
        assert isinstance(run, ComparisonRun)
        assert run.original == direct.original
        assert run.transformed == direct.transformed

    def test_worker_ships_spans_when_tracing(self, tmp_path):
        name = "G721_encode"
        (run,), payload = _compare_worker(
            ([(name, "O0", False, None)], str(tmp_path), True)
        )
        assert isinstance(run, ComparisonRun)
        assert payload is not None
        names = {s["name"] for s in payload["spans"]}
        assert "experiment.compare" in names
        assert "pipeline.run" in names

    def test_compare_many_serial_uses_memo(self, tmp_path):
        runner = ExperimentRunner(cache=ExperimentCache(tmp_path))
        configs = [("G721_encode", "O0"), ("G721_encode", "O3")]
        runs = runner.compare_many(configs, max_workers=1)
        assert [r.opt_level for r in runs] == ["O0", "O3"]
        # absorbed into the in-memory memo: compare() returns the same runs
        assert runner.compare(get_workload("G721_encode"), "O0") is runs[0]
        assert runner.compare(get_workload("G721_encode"), "O3") is runs[1]

    def test_compare_many_parallel_two_workloads(self, tmp_path):
        runner = ExperimentRunner(cache=ExperimentCache(tmp_path))
        configs = [("G721_encode", "O0"), ("G721_decode", "O0")]
        runs = runner.compare_many(configs, max_workers=2)
        assert [r.workload for r in runs] == ["G721_encode", "G721_decode"]
        for run in runs:
            assert run.outputs_match
        # the pool workers persisted their artifacts for the parent
        warm = ExperimentRunner(cache=ExperimentCache(tmp_path))
        again = warm.compare(get_workload("G721_encode"), "O0")
        assert again.original == runs[0].original
        assert again.transformed == runs[0].transformed

"""Tests for the experiment disk cache and the cached runner."""

import json

from repro.experiments import (
    ExperimentCache,
    ExperimentRunner,
    MeasuredRun,
    cache_key,
)
from repro.runtime.hashtable import TableStats
from repro.workloads.base import PaperNumbers, Workload

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


"""Tests for the experiment harness, run on a small synthetic workload so
the suite stays fast (the real workloads are exercised by benchmarks/)."""

import pytest

from repro.experiments import (
    ExperimentRunner,
    accessed_entry_histogram,
    energy_table,
    harmonic_mean,
    input_value_histogram,
    pattern_access_histogram,
    render_energy,
    render_histogram,
    render_speedups,
    render_sweep,
    render_table3,
    render_table4,
    render_table5,
    render_table10,
    size_sweep,
    speedup_table,
    table3,
    table4,
    table5,
    table10,
)
from repro.runtime.hashtable import pow2_ceil
from repro.runtime.jenkins import hash_key_words
from repro.workloads.base import PaperNumbers, Workload

_SOURCE = """
int lut[12] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};

static int classify(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 12; i++)
        r += lut[i] * ((v >> (i & 3)) & 15) + v % (i + 2);
    return r;
}

int main(void) {
    int acc = 0;
    while (__input_avail()) {
        acc += classify(__input_int());
        __output_int(acc & 255);
    }
    __output_int(acc);
    return acc;
}
"""


def _default_inputs():
    return [3, 8, 21, 3, 8, 21, 40, 3, 8] * 60


def _alternate_inputs():
    return [5, 9, 33, 5, 9, 5, 9, 33] * 70


TINY = Workload(
    name="TINY",
    source=_SOURCE,
    default_inputs=_default_inputs,
    alternate_inputs=_alternate_inputs,
    alternate_label="alt",
    key_function="classify",
    description="test workload",
    paper=PaperNumbers(speedup_o0=1.5, speedup_o3=1.4, lru_hits=(0.1, 0.2, 0.3, 0.4)),
    min_executions=16,
)


# a two-word key, so the histogram goes through Jenkins' function
_PAIR_SOURCE = """
static int mix(int a, int b) {
    int r = 0;
    int i;
    for (i = 0; i < 8; i++)
        r += ((a >> (i & 3)) & 15) * (i + 1) + b % (i + 3);
    return r;
}

int main(void) {
    int acc = 0;
    while (__input_avail()) {
        int a = __input_int();
        int b = __input_int();
        acc += mix(a, b);
        __output_int(acc & 255);
    }
    __output_int(acc);
    return acc;
}
"""


def _pair_inputs():
    return [3, 8, 21, 3, 8, 21, 40, 3, 8, 5, 77, 6] * 40


PAIR = Workload(
    name="PAIR",
    source=_PAIR_SOURCE,
    default_inputs=_pair_inputs,
    alternate_inputs=_pair_inputs,
    alternate_label="same",
    key_function="mix",
    description="test workload with a two-word key",
    paper=PaperNumbers(speedup_o0=1.5, speedup_o3=1.4, lru_hits=(0.1, 0.2, 0.3, 0.4)),
    min_executions=16,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestRunner:
    def test_pipeline_cached(self, runner):
        first = runner.pipeline(TINY)
        second = runner.pipeline(TINY)
        assert first is second

    def test_compare_o0(self, runner):
        run = runner.compare(TINY, "O0")
        assert run.outputs_match
        assert run.speedup > 1.0
        assert run.original.seconds > run.transformed.seconds

    def test_compare_o3_smaller_but_positive(self, runner):
        run0 = runner.compare(TINY, "O0")
        run3 = runner.compare(TINY, "O3")
        assert run3.speedup > 1.0
        assert run3.original.seconds < run0.original.seconds  # O3 is faster

    def test_energy_saving_positive(self, runner):
        run = runner.compare(TINY, "O0")
        assert 0.0 < run.energy_saving < 1.0

    def test_alternate_inputs_still_profitable(self, runner):
        run = runner.compare(TINY, "O3", alternate=True)
        assert run.outputs_match
        assert run.speedup > 1.0

    def test_table_size_cap_reduces_speedup(self, runner):
        full = runner.compare(TINY, "O0")
        capped = runner.compare(TINY, "O0", max_table_bytes=16)
        assert capped.outputs_match
        assert capped.speedup <= full.speedup

    def test_headline_segment(self, runner):
        segment = runner.headline_segment(TINY)
        assert segment.func_name == "classify"
        profile = runner.headline_profile(TINY)
        assert profile.executions == len(_default_inputs())


class TestTables:
    def test_table3_row(self, runner):
        rows = table3(runner, [TINY])
        (row,) = rows
        assert row.program == "TINY"
        assert row.computation_us > row.overhead_us
        assert row.distinct_inputs == 4
        assert 0.9 < row.reuse_rate < 1.0
        assert row.table_bytes > 0

    def test_table4_row(self, runner):
        (row,) = table4(runner, [TINY])
        assert row.analyzed >= row.profiled >= row.transformed >= 1
        assert row.code_lines > 5

    def test_table5_row(self, runner):
        (row,) = table5(runner, [TINY])
        ratios = [row.hit_ratios[s] for s in (1, 4, 16, 64)]
        assert ratios == sorted(ratios)

    def test_speedup_table_and_mean(self, runner):
        rows, mean = speedup_table(runner, "O0", [TINY])
        assert rows[0].speedup > 1.0
        assert mean == pytest.approx(rows[0].speedup)

    def test_energy_table(self, runner):
        rows = energy_table(runner, "O0", [TINY])
        assert 0 < rows[0].saving < 1

    def test_table10(self, runner):
        rows, mean = table10(runner, [TINY])
        assert rows[0].input_source == "alt"
        assert rows[0].speedup > 1.0

    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4 / 3)
        assert harmonic_mean([]) == 0.0


class TestFigures:
    def test_input_value_histogram(self, runner):
        hist = input_value_histogram(runner, TINY, n_bins=8)
        assert hist.total == len(_default_inputs())
        assert len(hist.bins) == 8

    def test_accessed_entry_histogram(self, runner):
        hist = accessed_entry_histogram(runner, TINY, n_bins=8)
        assert hist.total == len(_default_inputs())

    @pytest.mark.parametrize("workload", [TINY, PAIR], ids=lambda w: w.name)
    def test_accessed_entry_histogram_matches_scalar_hash(self, runner, workload):
        hist = accessed_entry_histogram(runner, workload, n_bins=8)
        profile = runner.headline_profile(workload)
        segment = runner.headline_segment(workload)
        spec = next(
            s
            for s in runner.pipeline(workload).table_specs
            if s.segment_id == segment.seg_id
        )
        capacity = pow2_ceil(spec.capacity)
        width = max(1, capacity // 8)
        counts = [0] * 8
        for key, count in profile.value_counts.items():
            entry = hash_key_words(key) & (capacity - 1)
            counts[min(7, entry // width)] += count
        assert [count for _, count in hist.bins] == counts

    def test_pattern_access_histogram(self, runner):
        hist = pattern_access_histogram(runner, TINY)
        assert hist.bins[0][1] >= hist.bins[-1][1]  # sorted by count

    def test_size_sweep_monotone_tail(self, runner):
        series = size_sweep(runner, "O0", [TINY], sizes=(64, 4096, None))
        points = series[0].points
        # speedup at the optimal size >= speedup at a tiny size
        assert points[-1][1] >= points[0][1] - 1e-9


class TestRendering:
    def test_all_renderers_produce_text(self, runner):
        text = render_table3(table3(runner, [TINY]))
        assert "TINY" in text and "Table 3" in text
        text = render_table4(table4(runner, [TINY]))
        assert "Analyzed" in text
        text = render_table5(table5(runner, [TINY]))
        assert "64-entry" in text
        rows, mean = speedup_table(runner, "O0", [TINY])
        text = render_speedups(rows, mean, "O0", 6)
        assert "Harmonic Mean" in text
        text = render_energy(energy_table(runner, "O0", [TINY]), "O0", 8)
        assert "Saving" in text
        rows, mean = table10(runner, [TINY])
        text = render_table10(rows, mean)
        assert "Inputs" in text
        hist = input_value_histogram(runner, TINY, n_bins=4)
        text = render_histogram(hist)
        assert "#" in text
        series = size_sweep(runner, "O0", [TINY], sizes=(64, None))
        text = render_sweep(series, "O0", 14)
        assert "optimal" in text

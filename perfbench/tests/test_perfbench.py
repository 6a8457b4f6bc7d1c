"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The end-to-end tests run every workload in the small configuration
(``run.py --fast``), untraced and traced, with the reuse=False oracle on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from perfbench import speed, stats, workloads
from perfbench.probes import span_layers
from perfbench.programs import COMPILE_PROGRAMS, PROGRAMS
from repro.workloads.registry import get_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# -- stats -------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    percentile, value = stats.tail(samples)
    assert percentile == 90.0
    assert sum(1 for x in samples if x > value) == stats.TAIL_BEYOND


def test_tail_of_a_small_sample_is_its_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_failed_ops_sort_last():
    samples = [1.0] * 30 + [float("inf")] * 11
    assert stats.tail(samples)[1] == float("inf")
    assert stats.median(samples) == 1.0


def test_geomean():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)


def test_a_slowed_host_rescales_to_the_reference_speed():
    # the faster calibration of the two estimates the host's speed
    assert speed.scale(2 * speed.REFERENCE_S, 3 * speed.REFERENCE_S) == pytest.approx(0.5)


# -- programs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_chunks_are_seeded_and_never_split_a_read_group(name):
    program = PROGRAMS[name]
    chunks = program.chunks(seed=5, count=3)
    assert chunks == program.chunks(seed=5, count=3)
    assert chunks != program.chunks(seed=6, count=3)
    assert all(len(chunk) % program.granule == 0 and chunk for chunk in chunks)
    assert len(program.training()) % program.granule == 0


@pytest.mark.parametrize("name", COMPILE_PROGRAMS)
def test_training_prefix_selects_the_full_stream_segments(name):
    program = PROGRAMS[name]
    full = repro.compile(program.source).profile(get_workload(name).default_inputs())
    prefix = repro.compile(program.source).profile(program.training())
    assert tuple(sorted(s.seg_id for s in full.selected)) == program.selected
    assert tuple(sorted(s.seg_id for s in prefix.selected)) == program.selected


# -- span accounting -----------------------------------------------------------


def _span(span_id, parent_id, name, dur_us, **args):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "dur_us": dur_us,
        "args": args,
    }


def test_self_times_reconstruct_their_parents():
    spans = [
        _span(1, None, "pipeline.run", 1000),
        _span(2, 1, "pipeline.analyze", 100),
        _span(3, 1, "profile.freq", 300, cycles=7),
        _span(4, 1, "bench.codegen", 50),
        _span(5, None, "session.run", 500),
        _span(6, 5, "machine.run", 400),
        _span(7, 6, "bench.codegen", 150),
    ]
    layers, problems = span_layers(spans)
    assert problems == []
    assert layers["pipeline.untraced_s"] == pytest.approx(600e-6)  # codegen included
    assert layers["api.session_self_s"] == pytest.approx(100e-6)
    assert layers["runtime.exec_s"] == pytest.approx(250e-6)
    assert layers["runtime.codegen_s"] == pytest.approx(200e-6)
    assert layers["profile.cycles"] == 7


def test_a_stage_outside_its_pipeline_is_an_accounting_problem():
    _, problems = span_layers([_span(1, None, "profile.value", 10)])
    assert problems


# -- the oracle ------------------------------------------------------------------


def test_a_wrong_output_fails_the_op(monkeypatch):
    real = workloads.plain_oracle

    def wrong(program, chunks):
        return [(value, checksum ^ 1, cycles) for value, checksum, cycles in real(program, chunks)]

    monkeypatch.setattr(workloads, "plain_oracle", wrong)
    outcome = workloads.run_run(workloads.Config.fast(), trace=False)
    assert outcome.failed == outcome.attempted + 2 * 2  # every timed op and the warm-up
    assert outcome.problems


# -- end to end --------------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_fast_configuration_is_correct_and_complete(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--fast"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    done = _bench("--workload", "run", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()

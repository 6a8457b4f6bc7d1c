"""Tests for the segment decision ledger, standalone and pipeline-fed."""

import json

import pytest

from repro.obs import DecisionLedger
from repro.reuse.pipeline import PipelineConfig, ReusePipeline


class FakeSegment:
    def __init__(self, seg_id, kind="loop", func_name="f"):
        self.seg_id = seg_id
        self.kind = kind
        self.func_name = func_name


class TestLedgerBasics:
    def test_open_is_idempotent(self):
        ledger = DecisionLedger()
        first = ledger.open(FakeSegment(1))
        second = ledger.open(FakeSegment(1))
        assert first is second

    def test_record_appends_verdicts(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(1))
        ledger.record(1, "feasibility", True, reason="ok")
        ledger.record(1, "prefilter", False, margin=-0.5, C=10.0, O=15.0)
        record = ledger.records[1]
        assert [v.stage for v in record.verdicts] == ["feasibility", "prefilter"]
        assert record.rejection.stage == "prefilter"
        assert record.rejection.margin == -0.5
        assert record.selected is False

    def test_selected_record_has_no_rejection(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(2, func_name="g"))
        for stage in ("feasibility", "prefilter", "frequency", "formula3"):
            ledger.record(2, stage, True)
        ledger.record(2, "selected", True, margin=12.5)
        record = ledger.records[2]
        assert record.selected is True
        assert record.rejection is None


class TestWhy:
    def make(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(0, func_name="quan"))
        ledger.record(0, "feasibility", True)
        ledger.record(0, "frequency", False, margin=-28.0, executions=4, required=32)
        ledger.open(FakeSegment(1, func_name="fmult"))
        ledger.record(1, "selected", True)
        return ledger

    def test_by_id(self):
        text = self.make().why(0)
        assert "quan#0" in text
        assert "rejected at frequency" in text
        assert "margin -28" in text

    def test_by_function_name(self):
        text = self.make().why("quan")
        assert "rejected at frequency" in text

    def test_workload_suffix_ignored(self):
        # "why was quan@mpeg2 rejected?" — the @workload suffix names the
        # experiment, not the segment
        text = self.make().why("quan@mpeg2")
        assert "rejected at frequency" in text

    def test_digit_string(self):
        text = self.make().why("1")
        assert "fmult#1" in text
        assert "SELECTED" in text

    def test_unknown_names_known_functions(self):
        text = self.make().why("nosuch")
        assert "no candidate segment" in text
        assert "quan" in text and "fmult" in text


class TestOutput:
    def test_to_json_is_serializable(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(3))
        ledger.record(3, "prefilter", True, margin=0.4, C=100.0, O=60.0)
        doc = json.loads(json.dumps(ledger.to_json()))
        (seg,) = doc["segments"]
        assert seg["seg_id"] == 3
        assert seg["verdicts"][0]["detail"]["C"] == 100.0

    def test_render_names_stage_and_margin(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(1, func_name="quan"))
        ledger.record(1, "formula3", False, margin=-3.25, N=100, R=0.1)
        text = ledger.render()
        assert "quan#1" in text
        assert "formula3" in text
        assert "-3.25" in text


_SOURCE = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};

static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 6; i++)
        r += tab[i] * ((v + i) & 31) + v % (i + 2);
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


class TestPipelineLedger:
    @pytest.fixture(scope="class")
    def result(self):
        inputs = [7, 9, 7, 9] * 30
        config = PipelineConfig(min_executions=8)
        return ReusePipeline(_SOURCE, config).run(inputs)

    def test_every_segment_has_a_record(self, result):
        assert set(result.ledger.records) == {s.seg_id for s in result.segments}

    def test_selected_segments_marked(self, result):
        assert result.selected  # sanity: this workload transforms something
        for segment in result.selected:
            assert result.ledger.records[segment.seg_id].selected

    def test_every_nonselected_has_rejecting_stage_and_margin_or_reason(self, result):
        selected_ids = {s.seg_id for s in result.selected}
        for seg_id, record in result.ledger.records.items():
            if seg_id in selected_ids:
                continue
            verdict = record.rejection
            assert verdict is not None, f"segment {seg_id} lacks a rejection"
            # every rejection names its stage and carries a margin or a reason
            assert verdict.stage in (
                "feasibility", "prefilter", "frequency",
                "formula3", "nesting", "budget",
            )
            assert verdict.margin is not None or verdict.detail.get("reason")

    def test_formula3_verdicts_carry_the_paper_numbers(self, result):
        for segment in result.profiled:
            verdicts = [
                v for v in result.ledger.records[segment.seg_id].verdicts
                if v.stage == "formula3"
            ]
            assert len(verdicts) == 1
            detail = verdicts[0].detail
            assert {"N", "N_ds", "R", "R_adj", "C", "O"} <= set(detail)
            profile = result.profiles[segment.seg_id]
            assert detail["N"] == profile.executions
            assert detail["N_ds"] == profile.distinct_inputs

    def test_ledger_json_round_trips(self, result):
        doc = json.loads(json.dumps(result.ledger.to_json()))
        assert len(doc["segments"]) == len(result.segments)

    def test_ledger_survives_pickling_with_result(self, result):
        import pickle

        clone = pickle.loads(pickle.dumps(result))
        assert set(clone.ledger.records) == set(result.ledger.records)


class TestWhyUnknown:
    def test_unknown_segment_id_names_the_known_functions(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(1, func_name="quan"))
        ledger.open(FakeSegment(2, func_name="gproc"))
        out = ledger.why(999)
        assert "no candidate segment matches 999" in out
        assert "quan" in out and "gproc" in out

    def test_unknown_function_name(self):
        ledger = DecisionLedger()
        ledger.open(FakeSegment(1, func_name="quan"))
        out = ledger.why("nonexistent")
        assert "no candidate segment matches 'nonexistent'" in out
        assert "quan" in out

    def test_unknown_query_on_empty_ledger(self):
        out = DecisionLedger().why("anything")
        assert "no candidate segment matches 'anything'" in out

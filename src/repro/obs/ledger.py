"""The segment decision ledger: why every candidate lived or died.

The reuse pipeline kills candidate segments at seven gates — feasibility,
the static ``O/C`` pre-filter, the execution-frequency filter, the
formula-3 cost-benefit test, the formula-4 nesting comparison, and (after
merging assigns shared tables) the memory-budget eviction.  The ledger
gives every candidate an append-only record of each verdict *with the
numbers behind it*, so "why was ``quan`` rejected?" has a queryable
answer instead of a silent disappearance.

A verdict's ``margin`` is signed distance from the decision boundary in
the units of that stage (positive = passed): ``1 - O/C`` for the
pre-filter, ``executions - min_executions`` for the frequency filter,
``gain`` for formula 3, ``g_self - g_inner`` for nesting.  The margin is
what regression tooling watches: a segment drifting toward a boundary is
visible before it flips.

The ledger is pure bookkeeping on pipeline (not measured-run) data; it is
always on and costs a few dict appends per candidate.  It pickles with
:class:`~repro.reuse.pipeline.PipelineResult`, serializes to JSON, and
renders as an aligned table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .render import render_table

__all__ = ["Verdict", "SegmentRecord", "DecisionLedger"]

# Stage names, in pipeline order (used for sorting and reports).  The
# "governor" stage is appended after a governed *run*: it records the
# online governor's runtime verdict (still profitable / disabled) and
# transition history next to the compile-time decisions.
STAGES = (
    "feasibility",
    "prefilter",
    "frequency",
    "formula3",
    "nesting",
    "merging",
    "budget",
    "selected",
    "governor",
)


@dataclass
class Verdict:
    """One stage's decision about one segment."""

    stage: str
    passed: bool
    margin: Optional[float] = None
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        outcome = "pass" if self.passed else "REJECT"
        margin = "" if self.margin is None else f" margin={self.margin:+.3g}"
        detail = ""
        if self.detail:
            detail = " (" + ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(self.detail.items())
            ) + ")"
        return f"{self.stage}: {outcome}{margin}{detail}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass
class SegmentRecord:
    """The full decision history of one candidate segment."""

    seg_id: int
    kind: str
    func_name: str
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.func_name}#{self.seg_id}"

    @property
    def selected(self) -> bool:
        return any(v.stage == "selected" and v.passed for v in self.verdicts)

    @property
    def rejection(self) -> Optional[Verdict]:
        """The verdict that killed this segment (None if selected)."""
        for verdict in self.verdicts:
            if not verdict.passed:
                return verdict
        return None

    def to_dict(self) -> dict:
        return {
            "seg_id": self.seg_id,
            "kind": self.kind,
            "func_name": self.func_name,
            "selected": self.selected,
            "verdicts": [
                {
                    "stage": v.stage,
                    "passed": v.passed,
                    "margin": v.margin,
                    "detail": v.detail,
                }
                for v in self.verdicts
            ],
        }


class DecisionLedger:
    """Append-only per-segment verdicts for one pipeline run."""

    def __init__(self) -> None:
        self.records: dict[int, SegmentRecord] = {}

    def open(self, segment) -> SegmentRecord:
        """Register a candidate segment (idempotent)."""
        record = self.records.get(segment.seg_id)
        if record is None:
            record = SegmentRecord(
                seg_id=segment.seg_id,
                kind=segment.kind,
                func_name=segment.func_name,
            )
            self.records[segment.seg_id] = record
        return record

    def record(
        self,
        seg_id: int,
        stage: str,
        passed: bool,
        margin: Optional[float] = None,
        **detail,
    ) -> None:
        self.records[seg_id].verdicts.append(
            Verdict(stage=stage, passed=passed, margin=margin, detail=detail)
        )

    # -- queries ---------------------------------------------------------------

    def why(self, query) -> str:
        """Human-readable decision history for a segment.

        ``query`` is a segment id, a function name, or a
        ``function@anything`` string (the suffix is ignored — it names the
        workload in experiment logs).
        """
        matches = self._match(query)
        if not matches:
            known = ", ".join(sorted({r.func_name for r in self.records.values()}))
            return f"no candidate segment matches {query!r} (functions: {known})"
        lines = []
        for record in matches:
            status = "SELECTED" if record.selected else "rejected"
            rejection = record.rejection
            if rejection is not None:
                status = f"rejected at {rejection.stage}"
                if rejection.margin is not None:
                    status += f" (margin {rejection.margin:+.3g})"
            lines.append(f"{record.label} [{record.kind}]: {status}")
            for verdict in record.verdicts:
                lines.append(f"  {verdict.describe()}")
        return "\n".join(lines)

    def _match(self, query) -> list[SegmentRecord]:
        if isinstance(query, int):
            record = self.records.get(query)
            return [record] if record else []
        name = str(query).split("@", 1)[0]
        if name.isdigit():
            record = self.records.get(int(name))
            return [record] if record else []
        return [
            self.records[sid]
            for sid in sorted(self.records)
            if self.records[sid].func_name == name
        ]

    # -- output ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "segments": [self.records[sid].to_dict() for sid in sorted(self.records)]
        }

    def render(self) -> str:
        """Aligned table: one row per candidate, rejecting stage + margin."""
        headers = ["Segment", "Kind", "Outcome", "Stage", "Margin", "Detail"]
        rows = []
        for seg_id in sorted(self.records):
            record = self.records[seg_id]
            rejection = record.rejection
            if record.selected:
                stage, margin, detail = "selected", None, {}
                for v in record.verdicts:
                    if v.stage == "formula3":
                        margin, detail = v.margin, v.detail
                outcome = "selected"
            elif rejection is not None:
                outcome = "rejected"
                stage = rejection.stage
                margin = rejection.margin
                detail = rejection.detail
            else:
                outcome, stage, margin, detail = "pending", "-", None, {}
            detail_text = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(detail.items())
            )
            rows.append(
                [
                    record.label,
                    record.kind,
                    outcome,
                    stage,
                    "" if margin is None else f"{margin:+.4g}",
                    detail_text,
                ]
            )
        return render_table(headers, rows)

"""The paper's contribution: the computation-reuse compiler scheme."""

from . import cost_model
from .cost_model import (
    cost_with_reuse,
    gain,
    is_beneficial,
    passes_prefilter,
    prefer_inner,
)
from .granularity import GranularityAnalysis
from .hashing_cost import annotate_costs, hashing_overhead
from .instrument import instrument_program, instrument_segment, strip_instrumentation
from .merging import merge_groups
from .nesting import NestingDecision, NestingGraph
from .pipeline import PipelineConfig, PipelineResult, ReusePipeline
from .segments import ProgramAnalysis, Segment, enumerate_segments
from .specialize import Binding, SpecializationRecord, Specializer
from .transform import ReuseTransformer, TableSpec

__all__ = [
    "cost_model",
    "cost_with_reuse",
    "gain",
    "is_beneficial",
    "passes_prefilter",
    "prefer_inner",
    "GranularityAnalysis",
    "annotate_costs",
    "hashing_overhead",
    "instrument_program",
    "instrument_segment",
    "strip_instrumentation",
    "merge_groups",
    "NestingDecision",
    "NestingGraph",
    "PipelineConfig",
    "PipelineResult",
    "ReusePipeline",
    "ProgramAnalysis",
    "Segment",
    "enumerate_segments",
    "Binding",
    "SpecializationRecord",
    "Specializer",
    "ReuseTransformer",
    "TableSpec",
]

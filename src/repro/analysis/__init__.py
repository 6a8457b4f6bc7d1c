"""Static analyses supporting the computation-reuse scheme."""

from .arrays import IOShape, shape_of, total_words
from .coverage import BetweenExecutions, invariant_globals
from .dataflow import DataflowResult, solve_backward
from .liveness import Liveness, function_exit_live
from .modref import ModRef, analyze_modref
from .pointer import PointsTo, analyze_pointers
from .upward import segment_inputs, upward_exposed
from .usedef import UseDef, UseDefExtractor

__all__ = [
    "IOShape",
    "shape_of",
    "total_words",
    "BetweenExecutions",
    "invariant_globals",
    "DataflowResult",
    "solve_backward",
    "Liveness",
    "function_exit_live",
    "ModRef",
    "analyze_modref",
    "PointsTo",
    "analyze_pointers",
    "segment_inputs",
    "upward_exposed",
    "UseDef",
    "UseDefExtractor",
]

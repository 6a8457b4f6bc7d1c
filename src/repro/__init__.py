"""repro — reproduction of "A Compiler Scheme for Reusing Intermediate
Computation Results" (Yonghua Ding and Zhiyuan Li, CGO 2004).

The package implements the paper's profile-guided, software-only
computation-reuse compiler scheme end to end, on a self-contained stack:

* :mod:`repro.minic` — the mini-C frontend the scheme operates on;
* :mod:`repro.ir` / :mod:`repro.analysis` — CFGs, call graph, def-use
  chains, pointer analysis, liveness/upward-exposure, MOD/REF, coverage;
* :mod:`repro.opt` — the -O3 optimizer pipeline;
* :mod:`repro.runtime` — the cycle/energy cost-model interpreter standing
  in for the paper's iPAQ (StrongARM SA-1110 @ 206 MHz) and the reuse
  hash tables;
* :mod:`repro.profiling` — frequency and value-set profilers;
* :mod:`repro.reuse` — the paper's contribution: cost-benefit analysis,
  nesting-graph selection, specialization, table merging, and the
  source-to-source transformation;
* :mod:`repro.workloads` — the seven benchmark programs (+ quan
  variants) with synthetic input generators;
* :mod:`repro.experiments` — regenerates every table and figure.

Quickstart — the stable facade (:mod:`repro.api`)::

    import repro

    program = repro.compile(source)        # reuse pipeline, lazy profiling
    result = program.run(inputs)
    print(result.cycles, result.output_checksum)

    options = repro.CompileOptions(reuse=False)
    baseline = repro.compile(source, options).run(inputs)
    print(result.speedup_vs(baseline))

The lower layers (``ReusePipeline``, ``Machine``, ``compile_program``)
remain importable for tooling that needs the pieces, but
:func:`repro.compile` / :class:`repro.Session` are the supported entry
points.
"""

from .api import (
    CompileOptions,
    CompiledProgram,
    RunOptions,
    RunResult,
    Session,
    compile,
    parse_input_literal,
    parse_input_stream,
)
from .errors import (
    AnalysisError,
    ConfigError,
    InterpError,
    LexError,
    ParseError,
    ReproError,
    SemanticError,
    TransformError,
)
from .minic import format_program, frontend, parse_program
from .reuse import PipelineConfig, PipelineResult, ReusePipeline
from .runtime import Machine, Metrics, ReuseTable, compile_program
from .runtime.governor import GovernorPolicy
from .workloads import ALL_WORKLOADS, PRIMARY_WORKLOADS, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "compile",
    "CompileOptions",
    "RunOptions",
    "CompiledProgram",
    "RunResult",
    "Session",
    "parse_input_literal",
    "parse_input_stream",
    "GovernorPolicy",
    "ReproError",
    "ConfigError",
    "LexError",
    "ParseError",
    "SemanticError",
    "InterpError",
    "AnalysisError",
    "TransformError",
    "frontend",
    "parse_program",
    "format_program",
    "ReusePipeline",
    "PipelineConfig",
    "PipelineResult",
    "Machine",
    "Metrics",
    "ReuseTable",
    "compile_program",
    "Workload",
    "get_workload",
    "ALL_WORKLOADS",
    "PRIMARY_WORKLOADS",
    "__version__",
]

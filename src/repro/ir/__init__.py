"""IR layer: CFGs, call graphs, SCCs, clean-up."""

from .callgraph import CallGraph, CallSite, build_callgraph
from .cfg import CFG, CFGNode, COND, ENTRY, EXIT, STEP, STMT, build_cfg
from .cleanup import CleanupPass, cleanup
from .scc import condense, strongly_connected_components, topological_order

__all__ = [
    "CallGraph",
    "CallSite",
    "build_callgraph",
    "CFG",
    "CFGNode",
    "build_cfg",
    "ENTRY",
    "EXIT",
    "STMT",
    "COND",
    "STEP",
    "CleanupPass",
    "cleanup",
    "condense",
    "strongly_connected_components",
    "topological_order",
]

"""Generic iterative dataflow framework over statement-level CFGs.

A worklist solver for backward set-based problems.  Clients supply
per-node transfer functions (gen/kill over symbol sets); the meet is
union, for the may-problems used here.  Liveness instantiates this
solver; upward exposure solves the same backward equations over a
region's subgraph in :mod:`repro.analysis.upward`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..ir.cfg import CFG

Transfer = Callable[[int, frozenset], frozenset]


class DataflowResult:
    """Per-node IN/OUT sets of a solved dataflow problem."""

    def __init__(self, in_sets: dict[int, frozenset], out_sets: dict[int, frozenset]) -> None:
        self.in_sets = in_sets
        self.out_sets = out_sets


def solve_backward(
    cfg: CFG,
    transfer: Transfer,
    exit_value: frozenset = frozenset(),
) -> DataflowResult:
    """Solve a backward may-problem: OUT(n) = U IN(s); IN(n) = f_n(OUT(n))."""
    in_sets: dict[int, frozenset] = {n.nid: frozenset() for n in cfg}
    out_sets: dict[int, frozenset] = {n.nid: frozenset() for n in cfg}
    out_sets[cfg.exit] = exit_value
    in_sets[cfg.exit] = transfer(cfg.exit, exit_value)
    order = cfg.reverse_postorder()
    worklist = deque(reversed(order))
    queued = set(worklist)
    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.node(nid)
        if node.succs:
            new_out = frozenset().union(*(in_sets[s] for s in node.succs))
        else:
            new_out = exit_value if nid == cfg.exit else frozenset()
        out_sets[nid] = new_out
        new_in = transfer(nid, new_out)
        if new_in != in_sets[nid]:
            in_sets[nid] = new_in
            for pred in node.preds:
                if pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)
    return DataflowResult(in_sets, out_sets)


"""The interprocedural nesting graph and segment selection (section 2.3).

When profitable segments nest — loops in loops, loops in routines,
routine calls inside loops, routines calling routines — the scheme
transforms at most one segment per nest.  The decision procedure:

1. build a graph with an arc from each profitable outer segment to each
   profitable segment immediately nested in it (interprocedurally: a
   segment containing a call reaching function *f* is outer to *f*'s
   segments);
2. condense recursion-induced SCCs, keeping only the best-gain member of
   each non-singleton SCC as a candidate;
3. traverse the DAG bottom-up computing, for every node, the better of
   "transform me" (gain ``g(X)`` per execution) versus "transform my
   inner segments" (``sum n_i * decided(c_i)``, formula (4) generalized
   to sequential inner segments);
4. walk top-down selecting nodes that chose themselves and have no
   selected ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.scc import condense, topological_order
from .cost_model import prefer_inner
from .segments import ProgramAnalysis, Segment


def _region_call_names(segment: Segment, analysis: ProgramAnalysis) -> set[str]:
    names: set[str] = set()
    entry = analysis.index.function(segment.func_name)
    for node in entry.within(segment.region_root, "calls"):
        names |= analysis.points_to.call_targets(node)
    return names


@dataclass
class NestingDecision:
    """Per-node record of the bottom-up comparison."""

    seg_id: int
    gain_self: float
    gain_inner: float  # sum of n_i * decided(c_i)
    chose_self: bool
    decided: float


class NestingGraph:
    """Builds the graph over *profitable* segments and runs selection."""

    def __init__(self, segments: list[Segment], analysis: ProgramAnalysis) -> None:
        self.analysis = analysis
        self.segments = {s.seg_id: s for s in segments}
        self.edges: dict[int, set[int]] = {s.seg_id: set() for s in segments}
        self._build_edges(segments)
        self._transitive_reduce()
        self.decisions: dict[int, NestingDecision] = {}

    # -- graph construction ----------------------------------------------------

    def _build_edges(self, segments: list[Segment]) -> None:
        reachable = {
            fn.name: self.analysis.callgraph.reachable_from(fn.name)
            for fn in self.analysis.program.functions
        }
        for outer in segments:
            called = _region_call_names(outer, self.analysis)
            entry = self.analysis.index.function(outer.func_name)
            called_closure: set[str] = set()
            for name in called:
                called_closure |= reachable.get(name, {name})
            for inner in segments:
                if inner.seg_id == outer.seg_id:
                    continue
                if inner.func_name == outer.func_name and entry.contains(
                    outer.region_root, inner.control
                ):
                    self.edges[outer.seg_id].add(inner.seg_id)
                elif inner.func_name in called_closure:
                    self.edges[outer.seg_id].add(inner.seg_id)

    def _transitive_reduce(self) -> None:
        """Keep only immediate-nesting arcs so inner gains are not
        double-counted during the bottom-up sum."""
        # first condense cycles (recursion): reduction happens on the DAG
        component_of, members, dag = condense(self.edges)
        reduced: dict[int, set[int]] = {cid: set(succs) for cid, succs in dag.items()}
        for a in list(reduced):
            for b in list(reduced[a]):
                # drop a->b if some other successor c of a reaches b
                for c in reduced[a]:
                    if c == b:
                        continue
                    if self._reaches(reduced, c, b):
                        reduced[a].discard(b)
                        break
        self._component_of = component_of
        self._members = members
        self._dag = reduced

    @staticmethod
    def _reaches(dag: dict[int, set[int]], src: int, dst: int) -> bool:
        stack = [src]
        seen = {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for succ in dag.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # -- selection -------------------------------------------------------------

    def select(self) -> list[Segment]:
        """Run the bottom-up comparison and return the selected segments."""
        # SCC condensation: keep the best-gain member of each component.
        best_member: dict[int, Segment] = {}
        for cid, member_ids in self._members.items():
            candidates = [self.segments[sid] for sid in member_ids]
            best = max(candidates, key=lambda s: s.gain)
            best_member[cid] = best
        self._best_member = best_member

        order = topological_order(self._dag)  # parents before children
        # bottom-up: children first
        for cid in reversed(order):
            segment = best_member[cid]
            inner_total = 0.0
            for child_cid in self._dag.get(cid, ()):
                child = best_member[child_cid]
                child_decision = self.decisions[child.seg_id]
                n = self._executions_ratio(child, segment)
                inner_total += n * child_decision.decided
            chose_self = not prefer_inner(segment.gain, inner_total)
            self.decisions[segment.seg_id] = NestingDecision(
                seg_id=segment.seg_id,
                gain_self=segment.gain,
                gain_inner=inner_total,
                chose_self=chose_self,
                decided=max(segment.gain, inner_total),
            )

        # top-down: select nodes that chose themselves and are uncovered.
        # ``cover_src`` remembers, for reporting, *which* selected segment
        # covers each node: the covering ancestor when covered, the node's
        # own segment when it was selected, None otherwise.
        covered: dict[int, bool] = {}
        cover_src: dict[int, Optional[int]] = {}
        selected: list[Segment] = []
        parents: dict[int, set[int]] = {cid: set() for cid in self._dag}
        for cid, succs in self._dag.items():
            for s in succs:
                parents[s].add(cid)
        for cid in order:
            segment = best_member[cid]
            src: Optional[int] = None
            for p in sorted(parents[cid]):
                if covered[p]:
                    src = cover_src[p] if cover_src[p] is not None else best_member[p].seg_id
                    break
                if best_member[p].seg_id in self._selected_ids(selected):
                    src = best_member[p].seg_id
                    break
            is_covered = src is not None
            chose_self = self.decisions[segment.seg_id].chose_self
            covered[cid] = is_covered or (chose_self and not is_covered)
            if not is_covered and chose_self:
                selected.append(segment)
                cover_src[cid] = segment.seg_id
            else:
                cover_src[cid] = src
        self._cover_src = cover_src
        for segment in selected:
            segment.selected = True
        return selected

    def explain(self) -> dict[int, dict]:
        """Per-segment outcome of the nesting stage (call after select()).

        Each entry has a ``reason`` — ``selected``, ``scc`` (a recursive
        SCC kept a better member), ``inner-preferred`` (formula 4 chose
        the nested segments), or ``covered`` (a selected ancestor already
        subsumes this nest) — and a signed ``margin``: ``gain - best_gain``
        for SCC losers, ``g_self - g_inner`` otherwise.
        """
        info: dict[int, dict] = {}
        for cid, member_ids in self._members.items():
            best = self._best_member[cid]
            decision = self.decisions[best.seg_id]
            margin = decision.gain_self - decision.gain_inner
            src = self._cover_src.get(cid)
            for sid in member_ids:
                segment = self.segments[sid]
                if sid != best.seg_id:
                    info[sid] = {
                        "reason": "scc",
                        "margin": segment.gain - best.gain,
                        "best": best.seg_id,
                    }
                elif src == sid:
                    info[sid] = {
                        "reason": "selected",
                        "margin": margin,
                        "gain_self": decision.gain_self,
                        "gain_inner": decision.gain_inner,
                    }
                elif not decision.chose_self:
                    info[sid] = {
                        "reason": "inner-preferred",
                        "margin": margin,
                        "gain_self": decision.gain_self,
                        "gain_inner": decision.gain_inner,
                    }
                else:
                    info[sid] = {
                        "reason": "covered",
                        "margin": margin,
                        "covered_by": src,
                    }
        return info

    @staticmethod
    def _selected_ids(selected: list[Segment]) -> set[int]:
        return {s.seg_id for s in selected}

    def _executions_ratio(self, inner: Segment, outer: Segment) -> float:
        """n: average inner executions per outer execution."""
        if outer.executions <= 0:
            return 1.0
        return inner.executions / outer.executions

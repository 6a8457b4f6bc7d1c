"""Debug info: a side-table mapping compiled artifacts to source lines.

A :class:`SourceMap` installed on a machine **before**
:func:`~repro.runtime.compiler.compile_program` makes both backends
record, per function, the source lines behind what they compile:

* the VM compiler records a ``(pc, line)`` entry for every emitted
  instruction, a per-line charge-class breakdown for every fused
  ``CHARGE`` group, and the source line of every reuse site
  (probe / commit / end ops);
* the closure compiler records the same reuse-site lines.

Recording is strictly observational — it never changes the emitted
bytecode or closure tree (the no-observer-effect differential pins
this), so debug info can always be on.  Lines refer to the *original*
parse: the reuse transformation preserves the line fields of the nodes
it moves and stamps the region's lines onto the intrinsics it
synthesizes.
"""

from __future__ import annotations

__all__ = ["SourceMap", "FunctionSourceMap"]


class FunctionSourceMap:
    """Debug info for one compiled function."""

    __slots__ = ("name", "pc_lines", "charge_lines", "sites")

    def __init__(self, name: str) -> None:
        self.name = name
        # VM: (pc, source line) per emitted instruction, in pc order.
        self.pc_lines: list[tuple[int, int]] = []
        # VM: pc of a CHARGE op -> ((line, cost_class, n), ...) breaking
        # the block-fused tally down by the line each charge came from.
        self.charge_lines: dict[int, tuple] = {}
        # seg_id -> {"probe_line" | "commit_line" | "end_line": line}
        self.sites: dict[int, dict[str, int]] = {}


class SourceMap:
    """Whole-program debug info; install as ``machine.source_map``."""

    def __init__(self) -> None:
        self.backend: str | None = None  # stamped by the compiler
        self.functions: dict[str, FunctionSourceMap] = {}

    def function(self, name: str) -> FunctionSourceMap:
        fn = self.functions.get(name)
        if fn is None:
            fn = self.functions[name] = FunctionSourceMap(name)
        return fn

    def sites(self) -> dict[int, tuple[str, dict[str, int]]]:
        """All reuse sites: seg_id -> (function name, site line dict)."""
        out: dict[int, tuple[str, dict[str, int]]] = {}
        for fn in self.functions.values():
            for seg_id, site in fn.sites.items():
                known = out.get(seg_id)
                if known is None:
                    out[seg_id] = (fn.name, dict(site))
                else:
                    known[1].update(site)
        return out

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "functions": {
                name: {
                    "pc_lines": [list(e) for e in fn.pc_lines],
                    "charge_lines": {
                        str(pc): [list(e) for e in entries]
                        for pc, entries in sorted(fn.charge_lines.items())
                    },
                    "sites": {str(s): dict(v) for s, v in sorted(fn.sites.items())},
                }
                for name, fn in sorted(self.functions.items())
            },
        }

"""Granularity analysis: a static lower bound on a segment's computation.

The paper estimates "a lower bound on the granularity" before profiling
(the cheap pre-filter), and later refines C with measured values.  The
static bound walks the region and sums per-operation cycle costs, taking
the cheaper branch of every IF and assuming loops run **at least one
iteration** (a segment wrapping a zero-trip loop would never be selected
anyway, and a zero lower bound would disable the O/C pre-filter
entirely).  Calls add the callee's bound; recursion contributes only the
call overhead.
"""

from __future__ import annotations

from typing import Optional

from ..minic import astnodes as ast
from ..minic.builtins import BUILTINS
from ..minic.index import ProgramIndex
from ..minic.sema import Typer
from ..minic.types import FLOAT, decay
from ..runtime import costs
from ..runtime.costs import CostTable


class GranularityAnalysis:
    def __init__(
        self,
        program: ast.Program,
        cost_table: Optional[CostTable] = None,
        index: Optional[ProgramIndex] = None,
    ) -> None:
        self.program = program
        self.index = index if index is not None else ProgramIndex(program)
        self.cost = cost_table or costs.O0
        self.typer = Typer(program)
        self._functions = {fn.name: fn for fn in program.functions}
        self._fn_cache: dict[str, float] = {}
        self._visiting: set[str] = set()

    # -- public API --------------------------------------------------------

    def region_cycles(self, region_root: ast.Block) -> float:
        """Lower-bound cycles for one execution of the region."""
        return self._block(region_root)

    def function_cycles(self, name: str) -> float:
        if name in self._fn_cache:
            return self._fn_cache[name]
        fn = self._functions.get(name)
        if fn is None:
            return 0.0
        if name in self._visiting:
            return 0.0  # recursion: only the call overhead is counted
        self._visiting.add(name)
        result = self._block(fn.body) + self.cost.cycles[costs.RET]
        self._visiting.discard(name)
        self._fn_cache[name] = result
        return result

    # -- statements -----------------------------------------------------------

    def _block(self, block: ast.Block) -> float:
        return sum(self._stmt(s) for s in block.stmts)

    def _stmt(self, stmt: ast.Stmt) -> float:
        c = self.cost.cycles
        if isinstance(stmt, ast.ExprStmt):
            return self._expr(stmt.expr)
        if isinstance(stmt, ast.DeclStmt):
            total = 0.0
            for decl in stmt.decls:
                if decl.init is not None:
                    total += self._expr(decl.init) + c[costs.LOCAL_WR]
            return total
        if isinstance(stmt, ast.Block):
            return self._block(stmt)
        if isinstance(stmt, ast.If):
            cond = self._expr(stmt.cond) + c[costs.BRANCH]
            then = self._block(stmt.then)
            els = self._block(stmt.els) if stmt.els is not None else 0.0
            return cond + min(then, els)
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            # unknown trip count: assume one iteration + one condition test
            return self._expr(stmt.cond) + c[costs.BRANCH] + self._block(stmt.body)
        if isinstance(stmt, ast.For):
            trips = self._trip_estimate(stmt)
            total = 0.0
            if stmt.init is not None:
                total += self._stmt(stmt.init)
            per_iter = 0.0
            if stmt.cond is not None:
                per_iter += self._expr(stmt.cond) + c[costs.BRANCH]
            per_iter += self._block(stmt.body)
            if stmt.step is not None:
                per_iter += self._expr(stmt.step)
            return total + trips * per_iter
        if isinstance(stmt, ast.Return):
            return self._expr(stmt.value) if stmt.value is not None else 0.0
        return c[costs.BRANCH] if isinstance(stmt, (ast.Break, ast.Continue)) else 0.0

    def _trip_estimate(self, stmt: ast.For) -> float:
        """Estimated iterations of a for loop.

        ``for (i = C0; i < C1; i++)`` with literal bounds iterates exactly
        ``C1 - C0`` times — unless the body can ``break`` early, in which
        case we halve the estimate (the paper's granularity figures come
        from profiling anyway; the static number only drives the O/C
        pre-filter).  Anything unrecognized estimates one iteration.
        """
        start = self._literal_init(stmt.init)
        bound, inclusive = self._literal_bound(stmt.cond)
        step = self._unit_step(stmt.step)
        if start is None or bound is None or step is None:
            return 1.0
        trips = (bound - start + (1 if inclusive else 0)) / step
        if trips <= 0:
            return 1.0
        if self.index.owner(stmt).within(stmt.body, "breaks"):
            trips = max(1.0, trips / 2.0)
        return trips

    @staticmethod
    def _literal_init(init) -> Optional[int]:
        if isinstance(init, ast.DeclStmt) and len(init.decls) == 1:
            d = init.decls[0]
            if isinstance(d.init, ast.IntLit):
                return d.init.value
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
            a = init.expr
            if a.op == "=" and isinstance(a.value, ast.IntLit):
                return a.value.value
        return None

    @staticmethod
    def _literal_bound(cond) -> tuple[Optional[int], bool]:
        if isinstance(cond, ast.Binary) and cond.op in ("<", "<="):
            if isinstance(cond.rhs, ast.IntLit):
                return cond.rhs.value, cond.op == "<="
        return None, False

    @staticmethod
    def _unit_step(step) -> Optional[int]:
        if isinstance(step, ast.IncDec) and step.op == "++":
            return 1
        if isinstance(step, ast.Assign) and step.op == "+=":
            if isinstance(step.value, ast.IntLit) and step.value.value > 0:
                return step.value.value
        return None

    # -- expressions -------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> float:
        c = self.cost.cycles
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return c[costs.CONST]
        if isinstance(expr, ast.Name):
            if expr.symbol is None or expr.symbol.kind == "func":
                return 0.0
            if expr.symbol.kind == "global":
                return c[costs.GLOBAL_RD] if expr.symbol.type.is_scalar else c[costs.CONST]
            return c[costs.LOCAL_RD] if expr.symbol.type.is_scalar else c[costs.CONST]
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                return self._expr(expr.operand) + c[costs.MEM_RD]
            if expr.op == "&":
                return c[costs.ALU]
            cls = costs.FALU if self._is_float(expr.operand) else costs.ALU
            return self._expr(expr.operand) + c[cls]
        if isinstance(expr, ast.IncDec):
            return self._expr(expr.target) + c[costs.ALU] + self._store_cost(expr.target)
        if isinstance(expr, ast.Binary):
            if expr.op == ",":
                return self._expr(expr.lhs) + self._expr(expr.rhs)
            sub = self._expr(expr.lhs) + self._expr(expr.rhs)
            is_float = self._is_float(expr.lhs) or self._is_float(expr.rhs)
            if expr.op == "*":
                cls = costs.FMUL if is_float else costs.MUL
            elif expr.op in ("/", "%"):
                cls = costs.FDIV if is_float else costs.DIV
            elif is_float:
                cls = costs.FALU
            else:
                cls = costs.ALU
            return sub + c[cls]
        if isinstance(expr, ast.Logical):
            # lower bound: short-circuit after the left operand
            return self._expr(expr.lhs) + c[costs.BRANCH]
        if isinstance(expr, ast.Ternary):
            return (
                self._expr(expr.cond)
                + c[costs.BRANCH]
                + min(self._expr(expr.then), self._expr(expr.els))
            )
        if isinstance(expr, ast.Assign):
            base = self._expr(expr.value) + self._store_cost(expr.target)
            if expr.op != "=":
                base += self._expr(expr.target) + c[costs.ALU]
            return base
        if isinstance(expr, ast.Index):
            return self._expr(expr.base) + self._expr(expr.index) + c[costs.MEM_RD]
        if isinstance(expr, ast.Call):
            args = sum(self._expr(a) for a in expr.args)
            if isinstance(expr.func, ast.Name):
                if expr.func.symbol is None:
                    sig = BUILTINS.get(expr.func.name)
                    if sig is not None and sig.zero_cost:
                        return args
                    if expr.func.name in ("__cos", "__sin", "__sqrt", "__floor"):
                        return args + c[costs.MATH]
                    return args + c[costs.ALU]
                if expr.func.symbol.kind == "func":
                    return args + c[costs.CALL] + self.function_cycles(expr.func.name)
            return args + c[costs.CALL]
        return 0.0

    def _store_cost(self, target: ast.Expr) -> float:
        c = self.cost.cycles
        if isinstance(target, ast.Name):
            if target.symbol is not None and target.symbol.kind == "global":
                return c[costs.GLOBAL_WR]
            return c[costs.LOCAL_WR]
        return c[costs.MEM_WR]

    def _is_float(self, expr: ast.Expr) -> bool:
        try:
            return decay(self.typer.type_of(expr)) == FLOAT
        except Exception:
            return False

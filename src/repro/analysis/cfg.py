"""Control-flow graph over the Mantle-Lua AST.

Each :class:`CfgNode` is one *simple* unit of execution -- an assignment,
a call statement, a return, or a branch/loop condition -- annotated with
the names it defines and uses (with source positions).  Structured
statements (``if``/``while``/``for``...) become edges.  The graph is the
substrate for the reaching-definitions and liveness passes in
:mod:`repro.analysis.defuse`.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from ..dataclass import dataclass
from ..luapolicy import lua_ast as ast


@dataclass
class Use:
    name: str
    line: int
    column: int
    is_call: bool = False  # the name is the callee of a call


@dataclass
class Def:
    name: str
    line: int
    column: int
    kind: str = "assign"  # assign | local | for | func | param
    #: The assigned value expression when statically known (used by the
    #: shadowed-builtin-call rule to tell ``max = 0`` from ``max = f``).
    value: Optional[ast.Expr] = None


@dataclass
class IndexWrite:
    """``base[key] = value`` -- tracked separately from name defs."""

    base: str
    key: ast.Expr
    value: ast.Expr
    line: int
    column: int


@dataclass
class CfgNode:
    id: int
    kind: str  # entry | exit | stmt | cond | forhead | join
    hook: str
    stmt: Optional[object] = None
    uses: list[Use] = field(default_factory=list)
    defs: list[Def] = field(default_factory=list)
    index_writes: list[IndexWrite] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    #: Synthetic nodes (the implicit ``if go`` between when and where)
    #: participate in data flow but produce no diagnostics themselves.
    synthetic: bool = False


class Cfg:
    def __init__(self) -> None:
        self.nodes: list[CfgNode] = []
        self.entry: int = 0
        self.exit: int = 0

    def node(self, kind: str, hook: str, stmt: object = None,
             synthetic: bool = False) -> CfgNode:
        node = CfgNode(len(self.nodes), kind, hook, stmt,
                       synthetic=synthetic)
        self.nodes.append(node)
        return node

    def link(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)

    def preds(self) -> list[list[int]]:
        preds: list[list[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for succ in node.succs:
                preds[succ].append(node.id)
        return preds


def expr_uses(expr: ast.Expr, out: list[Use]) -> None:
    """Collect name reads (and callee reads) from an expression tree.

    Function-expression bodies are deliberately *not* walked: their reads
    happen at call time under a different scope, and the purity pass
    inspects them separately.
    """
    if isinstance(expr, ast.Name):
        out.append(Use(expr.name, expr.line, expr.column))
    elif isinstance(expr, ast.Index):
        expr_uses(expr.obj, out)
        expr_uses(expr.key, out)
    elif isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name):
            out.append(Use(expr.func.name, expr.func.line,
                           expr.func.column, is_call=True))
        else:
            expr_uses(expr.func, out)
        for arg in expr.args:
            expr_uses(arg, out)
    elif isinstance(expr, ast.UnaryOp):
        expr_uses(expr.operand, out)
    elif isinstance(expr, ast.BinaryOp):
        expr_uses(expr.left, out)
        expr_uses(expr.right, out)
    elif isinstance(expr, ast.TableConstructor):
        for tfield in expr.fields:
            if tfield.key is not None:
                expr_uses(tfield.key, out)
            expr_uses(tfield.value, out)
    # literals, varargs, function expressions: no direct uses


class _Builder:
    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        #: Per-loop lists of break-node ids waiting for their loop exit.
        self._loop_breaks: list[list[int]] = []
        self._return_nodes: list[int] = []

    # -- plumbing -------------------------------------------------------
    def _simple(self, kind: str, hook: str, stmt: object,
                preds: list[int]) -> CfgNode:
        node = self.cfg.node(kind, hook, stmt)
        for pred in preds:
            self.cfg.link(pred, node.id)
        return node

    def block(self, block: ast.Block, hook: str,
              preds: list[int]) -> list[int]:
        """Wire a block's statements; returns the fall-through frontier."""
        for stmt in block.statements:
            preds = self.statement(stmt, hook, preds)
            if not preds:
                break  # unreachable code after return/break
        return preds

    # -- statements -----------------------------------------------------
    def statement(self, stmt: ast.Stmt, hook: str,
                  preds: list[int]) -> list[int]:
        if isinstance(stmt, ast.Assign):
            node = self._simple("stmt", hook, stmt, preds)
            for value in stmt.values:
                expr_uses(value, node.uses)
            n_values = len(stmt.values)
            for i, target in enumerate(stmt.targets):
                value = stmt.values[i] if i < n_values else None
                if isinstance(target, ast.Name):
                    node.defs.append(Def(target.name, target.line,
                                         target.column, "assign", value))
                elif isinstance(target, ast.Index):
                    expr_uses(target.obj, node.uses)
                    expr_uses(target.key, node.uses)
                    if isinstance(target.obj, ast.Name) and value is not None:
                        node.index_writes.append(IndexWrite(
                            target.obj.name, target.key, value,
                            target.line, target.column))
            return [node.id]
        if isinstance(stmt, ast.LocalAssign):
            node = self._simple("stmt", hook, stmt, preds)
            for value in stmt.values:
                expr_uses(value, node.uses)
            for i, name in enumerate(stmt.names):
                value = stmt.values[i] if i < len(stmt.values) else None
                node.defs.append(Def(name, stmt.line, stmt.column,
                                     "local", value))
            return [node.id]
        if isinstance(stmt, ast.CallStmt):
            node = self._simple("stmt", hook, stmt, preds)
            expr_uses(stmt.call, node.uses)
            return [node.id]
        if isinstance(stmt, ast.Return):
            node = self._simple("stmt", hook, stmt, preds)
            for value in stmt.values:
                expr_uses(value, node.uses)
            self._return_nodes.append(node.id)
            return []
        if isinstance(stmt, ast.Break):
            node = self._simple("stmt", hook, stmt, preds)
            if self._loop_breaks:
                self._loop_breaks[-1].append(node.id)
            return []
        if isinstance(stmt, ast.FunctionDecl):
            node = self._simple("stmt", hook, stmt, preds)
            node.defs.append(Def(stmt.name, stmt.line, stmt.column,
                                 "func", stmt.func))
            return [node.id]
        if isinstance(stmt, ast.Do):
            return self.block(stmt.body, hook, preds)
        if isinstance(stmt, ast.If):
            frontier: list[int] = []
            for condition, body in stmt.branches:
                cond = self._simple("cond", hook, condition, preds)
                expr_uses(condition, cond.uses)
                frontier.extend(self.block(body, hook, [cond.id]))
                preds = [cond.id]  # the false edge of this condition
            frontier.extend(self.block(stmt.orelse, hook, preds))
            return frontier
        if isinstance(stmt, ast.While):
            cond = self._simple("cond", hook, stmt.condition, preds)
            expr_uses(stmt.condition, cond.uses)
            self._loop_breaks.append([])
            body_exits = self.block(stmt.body, hook, [cond.id])
            for exit_id in body_exits:
                self.cfg.link(exit_id, cond.id)  # back edge
            breaks = self._loop_breaks.pop()
            return [cond.id] + breaks
        if isinstance(stmt, ast.Repeat):
            head = self.cfg.node("join", hook)
            for pred in preds:
                self.cfg.link(pred, head.id)
            self._loop_breaks.append([])
            body_exits = self.block(stmt.body, hook, [head.id])
            cond = self._simple("cond", hook, stmt.condition, body_exits)
            expr_uses(stmt.condition, cond.uses)
            self.cfg.link(cond.id, head.id)  # back edge (until false)
            breaks = self._loop_breaks.pop()
            return [cond.id] + breaks
        if isinstance(stmt, ast.NumericFor):
            bounds = self._simple("stmt", hook, stmt, preds)
            expr_uses(stmt.start, bounds.uses)
            expr_uses(stmt.stop, bounds.uses)
            if stmt.step is not None:
                expr_uses(stmt.step, bounds.uses)
            head = self.cfg.node("forhead", hook, stmt)
            head.defs.append(Def(stmt.var, stmt.line, stmt.column, "for"))
            self.cfg.link(bounds.id, head.id)
            self._loop_breaks.append([])
            body_exits = self.block(stmt.body, hook, [head.id])
            for exit_id in body_exits:
                self.cfg.link(exit_id, head.id)
            breaks = self._loop_breaks.pop()
            return [head.id] + breaks
        if isinstance(stmt, ast.GenericFor):
            bounds = self._simple("stmt", hook, stmt, preds)
            expr_uses(stmt.iterable, bounds.uses)
            head = self.cfg.node("forhead", hook, stmt)
            for name in stmt.names:
                head.defs.append(Def(name, stmt.line, stmt.column, "for"))
            self.cfg.link(bounds.id, head.id)
            self._loop_breaks.append([])
            body_exits = self.block(stmt.body, hook, [head.id])
            for exit_id in body_exits:
                self.cfg.link(exit_id, head.id)
            breaks = self._loop_breaks.pop()
            return [head.id] + breaks
        raise TypeError(f"unknown statement {type(stmt).__name__}"
                        )  # pragma: no cover - parser emits known nodes


def build_cfg(block: ast.Block, hook: str) -> Cfg:
    """CFG of a single hook chunk."""
    cfg = Cfg()
    entry = cfg.node("entry", hook)
    builder = _Builder(cfg)
    frontier = builder.block(block, hook, [entry.id])
    exit_node = cfg.node("exit", hook)
    cfg.exit = exit_node.id
    for node_id in frontier + builder._return_nodes:
        cfg.link(node_id, exit_node.id)
    return cfg


def build_decision_cfg(when_block: ast.Block,
                       where_block: ast.Block) -> Cfg:
    """CFG of the combined decision chunk.

    Mirrors :meth:`MantlePolicy.decision_source`: the ``when`` statements
    run, then a synthetic ``if go`` guards the ``where`` statements.  The
    synthetic condition reads ``go`` (so a final ``go = ...`` is never a
    dead write) but is excluded from use-site diagnostics.
    """
    cfg = Cfg()
    entry = cfg.node("entry", "when")
    builder = _Builder(cfg)
    frontier = builder.block(when_block, "when", [entry.id])
    go_cond = cfg.node("cond", "when", synthetic=True)
    go_cond.uses.append(Use("go", 0, 0))
    for node_id in frontier:
        cfg.link(node_id, go_cond.id)
    where_frontier = builder.block(where_block, "where", [go_cond.id])
    exit_node = cfg.node("exit", "where")
    cfg.exit = exit_node.id
    cfg.link(go_cond.id, exit_node.id)  # the ``go`` false edge
    for node_id in where_frontier + builder._return_nodes:
        cfg.link(node_id, exit_node.id)
    return cfg

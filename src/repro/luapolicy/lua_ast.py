"""AST node types for the Mantle-Lua policy language.

Plain frozen dataclasses; the interpreter dispatches on the concrete type.
Every node carries the source line and column for error reporting and for
the static analyzer's diagnostics (``repro.analysis``).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Union

from ..dataclass import dataclass


@dataclass(frozen=True)
class Node:
    line: int
    #: 1-based source column of the token that started this node.  Keyword-only
    #: so subclasses keep their positional field order (``column`` defaults to
    #: 0 for synthetic nodes that have no source position).
    column: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NilLiteral(Node):
    pass


@dataclass(frozen=True)
class BoolLiteral(Node):
    value: bool


@dataclass(frozen=True)
class NumberLiteral(Node):
    value: float


@dataclass(frozen=True)
class StringLiteral(Node):
    value: str


@dataclass(frozen=True)
class Vararg(Node):
    """``...`` -- accepted by the parser, rejected at run time (unsupported)."""


@dataclass(frozen=True)
class Name(Node):
    name: str


@dataclass(frozen=True)
class Index(Node):
    """``obj[key]`` and the sugar ``obj.key``."""

    obj: "Expr"
    key: "Expr"


@dataclass(frozen=True)
class Call(Node):
    func: "Expr"
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str  # '-', 'not', '#'
    operand: "Expr"


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str  # arithmetic, comparison, 'and', 'or', '..'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class TableField:
    """One field of a table constructor.

    ``key is None`` means a positional (array-part) entry.
    """

    key: Optional["Expr"]
    value: "Expr"


@dataclass(frozen=True)
class TableConstructor(Node):
    fields: tuple[TableField, ...]


@dataclass(frozen=True)
class FunctionExpr(Node):
    params: tuple[str, ...]
    body: "Block"


Expr = Union[
    NilLiteral, BoolLiteral, NumberLiteral, StringLiteral, Vararg, Name,
    Index, Call, UnaryOp, BinaryOp, TableConstructor, FunctionExpr,
]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    statements: tuple["Stmt", ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Assign(Node):
    """``a, t[k] = e1, e2`` -- multiple targets/values, Lua style."""

    targets: tuple[Expr, ...]
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class LocalAssign(Node):
    names: tuple[str, ...]
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class CallStmt(Node):
    call: Call


@dataclass(frozen=True)
class If(Node):
    """``if ... then ... [elseif ...]* [else ...] end``.

    ``branches`` is a sequence of (condition, block); ``orelse`` is the final
    else block (possibly empty).
    """

    branches: tuple[tuple[Expr, Block], ...]
    orelse: Block


@dataclass(frozen=True)
class While(Node):
    condition: Expr
    body: Block


@dataclass(frozen=True)
class Repeat(Node):
    body: Block
    condition: Expr


@dataclass(frozen=True)
class NumericFor(Node):
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]
    body: Block


@dataclass(frozen=True)
class GenericFor(Node):
    names: tuple[str, ...]
    iterable: Expr
    body: Block


@dataclass(frozen=True)
class FunctionDecl(Node):
    """``function name(...)`` / ``local function name(...)``."""

    name: str
    func: FunctionExpr
    is_local: bool


@dataclass(frozen=True)
class Return(Node):
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class Break(Node):
    pass


@dataclass(frozen=True)
class Do(Node):
    body: Block


Stmt = Union[
    Assign, LocalAssign, CallStmt, If, While, Repeat, NumericFor, GenericFor,
    FunctionDecl, Return, Break, Do,
]

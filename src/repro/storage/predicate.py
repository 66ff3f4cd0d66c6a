"""Predicate AST and evaluator with SQL three-valued logic.

Disguise specifications select rows with "arbitrary SQL WHERE clauses"
(paper §5). This module defines the abstract syntax those clauses parse
into (:mod:`repro.storage.sql` builds these nodes) and evaluates them
against row dictionaries.

Evaluation follows SQL semantics: comparisons involving NULL yield
``UNKNOWN``, which AND/OR/NOT propagate per Kleene logic; a row satisfies a
predicate only when the result is ``TRUE``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping

from repro.errors import StorageError, UnknownColumnError
from repro.storage.types import is_comparable

__all__ = [
    "Tristate",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "InList",
    "IsNull",
    "Like",
    "Between",
    "TrueP",
    "FalseP",
    "ColumnRef",
    "Literal",
    "Param",
    "BinOp",
    "Expr",
    "Assignment",
    "SetClause",
    "conjuncts",
    "like_regex",
]


class Tristate(enum.Enum):
    """SQL three-valued truth values."""

    TRUE = 1
    FALSE = 0
    UNKNOWN = -1


def _and3(a: Tristate, b: Tristate) -> Tristate:
    if a is Tristate.FALSE or b is Tristate.FALSE:
        return Tristate.FALSE
    if a is Tristate.TRUE and b is Tristate.TRUE:
        return Tristate.TRUE
    return Tristate.UNKNOWN


def _or3(a: Tristate, b: Tristate) -> Tristate:
    if a is Tristate.TRUE or b is Tristate.TRUE:
        return Tristate.TRUE
    if a is Tristate.FALSE and b is Tristate.FALSE:
        return Tristate.FALSE
    return Tristate.UNKNOWN


def _not3(a: Tristate) -> Tristate:
    if a is Tristate.TRUE:
        return Tristate.FALSE
    if a is Tristate.FALSE:
        return Tristate.TRUE
    return Tristate.UNKNOWN


# --------------------------------------------------------------------------
# Scalar expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions appearing inside predicates."""

    def eval(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns this expression reads."""
        return set()

    def params(self) -> set[str]:
        """Names of all ``$param`` placeholders this expression uses."""
        return set()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column of the row being tested."""

    name: str

    def eval(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise UnknownColumnError(f"row has no column {self.name!r}") from None

    def columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (number, string, bool, or NULL)."""

    value: Any

    def eval(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        return self.value

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A named parameter such as ``$UID``, bound at evaluation time.

    Disguise specs are written once and parameterized per invocation; the
    paper's Figure 3 uses ``$UID`` for "the user invoking the disguise".
    """

    name: str

    def eval(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        try:
            return params[self.name]
        except KeyError:
            raise StorageError(f"unbound predicate parameter ${self.name}") from None

    def params(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return f"${self.name}"


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic on numeric operands; NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def eval(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        lhs = self.left.eval(row, params)
        rhs = self.right.eval(row, params)
        if lhs is None or rhs is None:
            return None
        if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
            raise StorageError(f"arithmetic on non-numeric values: {lhs!r} {self.op} {rhs!r}")
        try:
            return _ARITH[self.op](lhs, rhs)
        except ZeroDivisionError:
            return None  # SQL: division by zero yields NULL in permissive mode

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def params(self) -> set[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Assignment:
    """One ``column = expr`` item of an UPDATE SET clause."""

    column: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.column} = {self.expr}"


@dataclass(frozen=True)
class SetClause:
    """A parsed UPDATE SET list: ``col = expr [, col = expr ...]``.

    Frozen and hashable so compiled assignment closures can be cached in
    the plan cache exactly like predicates.
    """

    items: tuple[Assignment, ...]

    def columns(self) -> tuple[str, ...]:
        return tuple(item.column for item in self.items)

    def eval_row(
        self, row: Mapping[str, Any], params: Mapping[str, Any]
    ) -> list[Any]:
        """Interpreter fallback mirroring :meth:`Expr.eval` (used when a
        SET expression has no compiled form)."""
        return [item.expr.eval(row, params) for item in self.items]

    def __str__(self) -> str:
        return ", ".join(str(item) for item in self.items)


# --------------------------------------------------------------------------
# Predicates
# --------------------------------------------------------------------------


class Predicate:
    """Base class for boolean predicates over a row."""

    def test(self, row: Mapping[str, Any], params: Mapping[str, Any] | None = None) -> bool:
        """True iff the predicate evaluates to SQL TRUE for *row*."""
        return self.eval3(row, params or {}) is Tristate.TRUE

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        raise NotImplementedError

    def columns(self) -> set[str]:
        return set()

    def params(self) -> set[str]:
        return set()

    # Convenience combinators -------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class TrueP(Predicate):
    """Always TRUE — matches every row (used for table-wide disguises)."""

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        return Tristate.TRUE

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class FalseP(Predicate):
    """Always FALSE."""

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        return Tristate.FALSE

    def __str__(self) -> str:
        return "FALSE"


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left OP right`` with SQL NULL semantics."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise StorageError(f"unknown comparison operator {self.op!r}")

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        lhs = self.left.eval(row, params)
        rhs = self.right.eval(row, params)
        if lhs is None or rhs is None:
            return Tristate.UNKNOWN
        if self.op in ("=", "!="):
            if not is_comparable(lhs, rhs):
                # Cross-type equality is FALSE (not an error): predicates
                # routinely compare a TEXT column against an id parameter.
                return Tristate.FALSE if self.op == "=" else Tristate.TRUE
        elif not is_comparable(lhs, rhs):
            raise StorageError(f"cannot order {lhs!r} against {rhs!r}")
        return Tristate.TRUE if _COMPARATORS[self.op](lhs, rhs) else Tristate.FALSE

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def params(self) -> set[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        lhs = self.left.eval3(row, params)
        if lhs is Tristate.FALSE:
            return Tristate.FALSE
        return _and3(lhs, self.right.eval3(row, params))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def params(self) -> set[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        lhs = self.left.eval3(row, params)
        if lhs is Tristate.TRUE:
            return Tristate.TRUE
        return _or3(lhs, self.right.eval3(row, params))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def params(self) -> set[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        return _not3(self.inner.eval3(row, params))

    def columns(self) -> set[str]:
        return self.inner.columns()

    def params(self) -> set[str]:
        return self.inner.params()

    def __str__(self) -> str:
        return f"(NOT {self.inner})"


@dataclass(frozen=True)
class InList(Predicate):
    """``expr IN (v1, v2, ...)`` with SQL NULL semantics."""

    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        value = self.expr.eval(row, params)
        if value is None:
            return Tristate.UNKNOWN
        saw_null = False
        found = False
        for item in self.items:
            candidate = item.eval(row, params)
            if candidate is None:
                saw_null = True
            elif is_comparable(value, candidate) and value == candidate:
                found = True
                break
        if found:
            result = Tristate.TRUE
        elif saw_null:
            result = Tristate.UNKNOWN
        else:
            result = Tristate.FALSE
        return _not3(result) if self.negated else result

    def columns(self) -> set[str]:
        cols = self.expr.columns()
        for item in self.items:
            cols |= item.columns()
        return cols

    def params(self) -> set[str]:
        names = self.expr.params()
        for item in self.items:
            names |= item.params()
        return names

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"{self.expr} {op} ({', '.join(str(i) for i in self.items)})"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``expr IS [NOT] NULL`` — the only predicate that is never UNKNOWN."""

    expr: Expr
    negated: bool = False

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        is_null = self.expr.eval(row, params) is None
        result = Tristate.TRUE if is_null else Tristate.FALSE
        return _not3(result) if self.negated else result

    def columns(self) -> set[str]:
        return self.expr.columns()

    def params(self) -> set[str]:
        return self.expr.params()

    def __str__(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.expr} {op}"


@lru_cache(maxsize=256)
def like_regex(pattern: str) -> "re.Pattern[str]":
    """Compiled regex for a SQL LIKE *pattern* (module-level LRU).

    Patterns are static strings in the AST, and disguise specs reuse the
    same handful of patterns across every scanned row — caching here means
    the translation and ``re.compile`` run once per distinct pattern
    instead of once per row. Shared by the tree-walking evaluator and the
    closure compiler (:mod:`repro.storage.compile`).
    """
    # Translate SQL wildcards to a regex; everything else is literal.
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


@dataclass(frozen=True)
class Like(Predicate):
    """SQL LIKE with ``%`` and ``_`` wildcards (case-sensitive)."""

    expr: Expr
    pattern: str
    negated: bool = False

    def _regex(self) -> "re.Pattern[str]":
        return like_regex(self.pattern)

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        value = self.expr.eval(row, params)
        if value is None:
            return Tristate.UNKNOWN
        if not isinstance(value, str):
            return Tristate.FALSE
        matched = bool(self._regex().match(value))
        result = Tristate.TRUE if matched else Tristate.FALSE
        return _not3(result) if self.negated else result

    def columns(self) -> set[str]:
        return self.expr.columns()

    def params(self) -> set[str]:
        return self.expr.params()

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"{self.expr} {op} '{escaped}'"


@dataclass(frozen=True)
class Between(Predicate):
    """``expr BETWEEN lo AND hi`` (inclusive both ends)."""

    expr: Expr
    lo: Expr
    hi: Expr
    negated: bool = False

    def eval3(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Tristate:
        inner = And(
            Comparison(">=", self.expr, self.lo),
            Comparison("<=", self.expr, self.hi),
        )
        result = inner.eval3(row, params)
        return _not3(result) if self.negated else result

    def columns(self) -> set[str]:
        return self.expr.columns() | self.lo.columns() | self.hi.columns()

    def params(self) -> set[str]:
        return self.expr.params() | self.lo.params() | self.hi.params()

    def __str__(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"{self.expr} {op} {self.lo} AND {self.hi}"


def conjuncts(pred: Predicate) -> list[Predicate]:
    """The top-level AND operands of *pred*, left to right.

    A row satisfies an AND only when every operand is TRUE, so each
    conjunct can be tested, routed or pushed down on its own.
    """
    out: list[Predicate] = []
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend((node.right, node.left))
        else:
            out.append(node)
    return out


def column_equals(column: str, value: Any) -> Comparison:
    """Convenience constructor for the ubiquitous ``col = literal`` predicate."""
    return Comparison("=", ColumnRef(column), Literal(value))


def column_equals_param(column: str, param: str) -> Comparison:
    """Convenience constructor for ``col = $param`` (e.g. ``contactId = $UID``)."""
    return Comparison("=", ColumnRef(column), Param(param))

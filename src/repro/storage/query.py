"""A small SELECT query layer over the storage engine.

The paper's Figure 1 shows the web application issuing *application
queries* against the same database the disguising tool transforms. This
module gives the substrate that read path::

    SELECT a.title, u.name FROM posts a
    JOIN users u ON a.user_id = u.id
    WHERE u.disabled = FALSE AND a.score > $MIN
    ORDER BY a.score DESC, a.id
    LIMIT 10 OFFSET 5

Supported: projection (bare or ``table.column`` references, ``*``,
``COUNT(*)``, ``AS`` aliases), INNER JOINs on column equality, WHERE (the
full disguise-predicate grammar), multi-key ORDER BY with ASC/DESC (NULLs
sort first), LIMIT/OFFSET, and ``$param`` binding throughout.

Execution runs on the locked statement API, so application reads take
the same table locks, plans and ``rows_examined`` accounting as any other
statement. The WHERE clause's top-level AND conjuncts that name only the
driving table go into one ``Database.select`` on it; each JOIN is then a
``Database.get`` per row when it joins on the primary key, or a
``Database.select`` of ``column = $k`` (planned like any equality)
otherwise. The remaining conjuncts filter the joined rows, which form a
namespace holding both ``alias.column`` keys and any unambiguous bare
column names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Any, Mapping

from repro.errors import ParseError, StorageError, UnknownColumnError
from repro.storage.compile import matcher
from repro.storage.database import Database
from repro.storage.predicate import And, Predicate, conjuncts
from repro.storage.sql import parse_where

__all__ = ["Query", "parse_select", "run_select"]


@dataclass(frozen=True)
class _Source:
    table: str
    alias: str


@dataclass(frozen=True)
class _Join:
    source: _Source
    left: str   # qualified or bare column ref (existing namespace side)
    right: str  # column of the joined table (bare or alias-qualified)


@dataclass(frozen=True)
class _SelectItem:
    ref: str          # qualified/bare column name, or "*"
    alias: str | None


@dataclass(frozen=True)
class _OrderKey:
    ref: str
    descending: bool


@dataclass
class Query:
    """A parsed SELECT statement."""

    source: _Source
    joins: list[_Join] = field(default_factory=list)
    select: list[_SelectItem] = field(default_factory=list)
    count_star: bool = False
    where: Predicate | None = None
    order: list[_OrderKey] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0

    def run(self, db: Database, params: Mapping[str, Any] | None = None):
        return run_select(db, self, params)


# --------------------------------------------------------------------------
# Parsing — clause splitting, then sub-parsers per clause.
# --------------------------------------------------------------------------

_CLAUSE_RE = re.compile(
    r"\b(SELECT|FROM|JOIN|ON|WHERE|ORDER\s+BY|LIMIT|OFFSET)\b", re.IGNORECASE
)


def _split_clauses(sql: str) -> list[tuple[str, str]]:
    """[(clause keyword, clause text), ...] in source order."""
    matches = list(_CLAUSE_RE.finditer(sql))
    if not matches or matches[0].group().upper() != "SELECT" or matches[0].start() != len(sql) - len(sql.lstrip()):
        raise ParseError(f"not a SELECT statement: {sql[:60]!r}")
    out = []
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(sql)
        keyword = re.sub(r"\s+", " ", match.group().upper())
        out.append((keyword, sql[match.end():end].strip()))
    return out


_COUNT_RE = re.compile(r"^COUNT\s*\(\s*\*\s*\)$", re.IGNORECASE)
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _parse_select_list(text: str) -> tuple[list[_SelectItem], bool]:
    if _COUNT_RE.match(text):
        return [], True
    items = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError("empty select item")
        alias = None
        as_match = re.match(r"^(.+?)\s+AS\s+(\w+)$", part, re.IGNORECASE)
        if as_match:
            part, alias = as_match.group(1).strip(), as_match.group(2)
        if part != "*" and not _NAME_RE.match(part):
            raise ParseError(f"unsupported select item {part!r}")
        items.append(_SelectItem(ref=part, alias=alias))
    return items, False


def _parse_source(text: str) -> _Source:
    parts = text.split()
    if len(parts) == 1:
        return _Source(parts[0], parts[0])
    if len(parts) == 2 and _NAME_RE.match(parts[1]):
        return _Source(parts[0], parts[1])
    if len(parts) == 3 and parts[1].upper() == "AS":
        return _Source(parts[0], parts[2])
    raise ParseError(f"malformed table reference {text!r}")


_ON_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*([A-Za-z_][A-Za-z0-9_.]*)$"
)


@lru_cache(maxsize=256)
def parse_select(sql: str) -> Query:
    """Parse a SELECT statement into a :class:`Query`.

    Parses are LRU-cached by statement text; the returned Query is shared
    and must not be mutated (execution via :func:`run_select` only reads).
    """
    clauses = _split_clauses(sql.strip().rstrip(";"))
    query: Query | None = None
    pending_join: _Source | None = None
    for keyword, text in clauses:
        if keyword == "SELECT":
            items, count_star = _parse_select_list(text)
            query = Query(source=_Source("", ""), select=items, count_star=count_star)
        elif keyword == "FROM":
            assert query is not None
            query.source = _parse_source(text)
        elif keyword == "JOIN":
            pending_join = _parse_source(text)
        elif keyword == "ON":
            if pending_join is None:
                raise ParseError("ON without JOIN")
            match = _ON_RE.match(text)
            if match is None:
                raise ParseError(
                    f"JOIN supports a single column equality, got {text!r}"
                )
            assert query is not None
            left, right = match.group(1), match.group(2)
            # Normalize so `right` belongs to the joined table.
            if _owner_of(right, pending_join) is None and _owner_of(left, pending_join) is not None:
                left, right = right, left
            query.joins.append(_Join(pending_join, left, right))
            pending_join = None
        elif keyword == "WHERE":
            assert query is not None
            query.where = parse_where(text, keep_qualifiers=True)
        elif keyword == "ORDER BY":
            assert query is not None
            for part in text.split(","):
                tokens = part.split()
                if not tokens or not _NAME_RE.match(tokens[0]):
                    raise ParseError(f"malformed ORDER BY key {part!r}")
                descending = len(tokens) > 1 and tokens[1].upper() == "DESC"
                if len(tokens) > 2 or (
                    len(tokens) == 2 and tokens[1].upper() not in ("ASC", "DESC")
                ):
                    raise ParseError(f"malformed ORDER BY key {part!r}")
                query.order.append(_OrderKey(tokens[0], descending))
        elif keyword == "LIMIT":
            assert query is not None
            parts = text.split()
            if not parts or not parts[0].isdigit():
                raise ParseError(f"malformed LIMIT {text!r}")
            query.limit = int(parts[0])
            if len(parts) == 3 and parts[1].upper() == "OFFSET" and parts[2].isdigit():
                query.offset = int(parts[2])
            elif len(parts) != 1:
                raise ParseError(f"malformed LIMIT {text!r}")
        elif keyword == "OFFSET":
            assert query is not None
            if not text.isdigit():
                raise ParseError(f"malformed OFFSET {text!r}")
            query.offset = int(text)
    if pending_join is not None:
        raise ParseError("JOIN without ON")
    if query is None or not query.source.table:
        raise ParseError("SELECT needs a FROM clause")
    return query


def _owner_of(ref: str, source: _Source) -> str | None:
    """The bare column name if *ref* belongs to *source*, else None."""
    if "." in ref:
        qualifier, column = ref.split(".", 1)
        return column if qualifier == source.alias else None
    return ref  # bare references may belong to anything; caller decides


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def run_select(db: Database, query: Query, params: Mapping[str, Any] | None = None):
    """Execute *query*; returns a row list, or an int for ``COUNT(*)``."""
    bound = params or {}
    pushed, rest = _split_where(db, query)
    namespaces = [
        _namespace({}, row, query.source.alias)
        for row in db.select(query.source.table, pushed, bound)
    ]
    for join in query.joins:
        namespaces = _join(db, namespaces, join)
    if rest is not None:
        match = matcher(rest, bound)
        namespaces = [ns for ns in namespaces if match(ns)]
    if query.count_star:
        return len(namespaces)
    if query.order:
        for key in reversed(query.order):
            namespaces.sort(
                key=lambda ns: _sort_key(_lookup(ns, key.ref)),
                reverse=key.descending,
            )
    if query.offset:
        namespaces = namespaces[query.offset:]
    if query.limit is not None:
        namespaces = namespaces[: query.limit]
    return [_project(ns, query) for ns in namespaces]


def _split_where(db: Database, query: Query) -> tuple[Predicate | None, Predicate | None]:
    """(the driving table's WHERE conjuncts, unqualified; the rest).

    A conjunct is the driving table's when each of its columns is that
    table's: qualified with its (unique) alias, or a bare name no joined
    table also has. A row passes a top-level AND only if every conjunct
    is TRUE, so pushing those conjuncts into the driving select is exact.
    """
    if query.where is None:
        return None, None
    alias = query.source.alias
    own = set(db.table(query.source.table).schema.column_names)
    joined = set()
    for join in query.joins:
        joined.update(db.table(join.source.table).schema.column_names)
    unique_alias = all(join.source.alias != alias for join in query.joins)

    def local(ref: str) -> bool:
        if "." in ref:
            qualifier, column = ref.split(".", 1)
            return unique_alias and qualifier == alias and column in own
        return ref in own and ref not in joined

    pushed, rest = [], []
    for conj in conjuncts(query.where):
        (pushed if all(map(local, conj.columns())) else rest).append(conj)
    # Re-parsing the canonical rendering strips the alias qualifiers.
    return (
        parse_where(str(reduce(And, pushed))) if pushed else None,
        reduce(And, rest) if rest else None,
    )


def _namespace(base: dict[str, Any], row: Mapping[str, Any], alias: str) -> dict[str, Any]:
    """Merge *row* under *alias*; bare names stay only while unambiguous."""
    ns = dict(base)
    for key, value in row.items():
        ns[f"{alias}.{key}"] = value
        marker = f"__bare__{key}"
        if marker in base:
            # a second table contributes this name: bare access is ambiguous
            ns.pop(key, None)
        else:
            ns[key] = value
            ns[marker] = True
    return ns


def _join(
    db: Database, namespaces: list[dict[str, Any]], join: _Join
) -> list[dict[str, Any]]:
    """Index-nested-loop join through the locked statement API."""
    table = join.source.table
    schema = db.table(table).schema
    right_col = _owner_of(join.right, join.source)
    if right_col is None or not schema.has_column(right_col):
        raise StorageError(
            f"JOIN condition {join.right!r} does not name a column of {table!r}"
        )
    by_pk = right_col == schema.primary_key
    where = f"{right_col} = $k"
    out = []
    for ns in namespaces:
        key = _lookup(ns, join.left)
        if key is None:
            continue  # NULL never joins
        if by_pk:
            row = db.get(table, key)
            matches = [row] if row is not None else []
        else:
            matches = db.select(table, where, {"k": key})
        out.extend(_namespace(ns, row, join.source.alias) for row in matches)
    return out


def _lookup(ns: Mapping[str, Any], ref: str) -> Any:
    try:
        return ns[ref]
    except KeyError:
        raise UnknownColumnError(
            f"unknown or ambiguous column {ref!r} in query"
        ) from None


def _sort_key(value: Any):
    # NULLs first; heterogeneous types ordered by type name for stability.
    return (value is not None, type(value).__name__, value)


def _project(ns: Mapping[str, Any], query: Query) -> dict[str, Any]:
    if not query.select or any(item.ref == "*" for item in query.select):
        return {
            key: value
            for key, value in ns.items()
            if "." in key and not key.startswith("__")
        }
    out = {}
    for item in query.select:
        name = item.alias or (item.ref.split(".")[-1])
        out[name] = _lookup(ns, item.ref)
    return out

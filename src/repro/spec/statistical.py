"""Statistical privacy meets disguising (paper §8).

"Privacy-preserving data mining approaches, such as k-anonymity,
l-diversity, and differential privacy, provide statistical privacy
guarantees. These complement data disguising: disguise predicates might be
based on differential privacy, for example."

This module provides the complementary pieces:

* :func:`k_anonymity_groups` / :func:`k_anonymity_violations` — group a
  table by quasi-identifier columns and find groups smaller than *k*;
* :func:`k_anonymity_predicate` — build a disguise predicate matching
  exactly the rows in violating groups, so a standard ``Modify`` /
  ``Remove`` / ``Decorrelate`` transformation can generalize or suppress
  them ("disguise predicates based on" the statistical criterion);
* :func:`l_diversity_violations` — groups whose sensitive column carries
  fewer than *l* distinct values;
* generalization modifiers for use with ``Modify``:
  :func:`generalize_numeric` (bucketing) and :func:`generalize_text`
  (prefix truncation), both deterministic and spec-friendly;
* :func:`laplace_count` — an (ε)-differentially-private counting query
  over a predicate, for answering "how many rows would this disguise
  touch" without revealing exact membership.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import SpecError
from repro.storage.database import Database
from repro.storage.predicate import ColumnRef, FalseP, InList, Literal, Predicate

__all__ = [
    "QuasiGroup",
    "k_anonymity_groups",
    "k_anonymity_violations",
    "k_anonymity_predicate",
    "l_diversity_violations",
    "generalize_numeric",
    "generalize_text",
    "laplace_count",
]


@dataclass(frozen=True)
class QuasiGroup:
    """One equivalence class under the quasi-identifier columns."""

    key: tuple[Any, ...]
    size: int
    pks: tuple[Any, ...]


def k_anonymity_groups(
    db: Database, table: str, quasi_identifiers: Iterable[str]
) -> list[QuasiGroup]:
    """All quasi-identifier equivalence classes of *table*."""
    columns = list(quasi_identifiers)
    if not columns:
        raise SpecError("k-anonymity needs at least one quasi-identifier column")
    schema = db.table(table).schema
    for column in columns:
        schema.column(column)  # raises on unknown
    groups: dict[tuple[Any, ...], list[Any]] = {}
    pk_col = schema.primary_key
    for row in db.table(table).rows():
        key = tuple(row[column] for column in columns)
        groups.setdefault(key, []).append(row[pk_col])
    return [
        QuasiGroup(key=key, size=len(pks), pks=tuple(pks))
        for key, pks in groups.items()
    ]


def k_anonymity_violations(
    db: Database, table: str, quasi_identifiers: Iterable[str], k: int
) -> list[QuasiGroup]:
    """Groups smaller than *k* — each is a re-identification risk."""
    if k < 1:
        raise SpecError("k must be >= 1")
    return [
        group
        for group in k_anonymity_groups(db, table, quasi_identifiers)
        if group.size < k
    ]


def k_anonymity_predicate(
    db: Database, table: str, quasi_identifiers: Iterable[str], k: int
) -> Predicate:
    """A disguise predicate matching every row in a violating group.

    Feed it to any transformation::

        Modify(k_anonymity_predicate(db, "users", ["zip", "age"], k=5),
               column="zip", fn=generalize_text(3), label="zip3")

    The predicate selects by *primary key* rather than by quasi-identifier
    values: the transformation it drives typically rewrites those very
    columns, and a value-based predicate would stop matching after the
    first Modify in the spec. Returns an always-false predicate when the
    table is already k-anonymous, so the transformation is a clean no-op.
    """
    columns = list(quasi_identifiers)
    violations = k_anonymity_violations(db, table, columns, k)
    if not violations:
        return FalseP()
    pk_col = db.table(table).schema.primary_key
    pks = tuple(
        Literal(pk) for group in violations for pk in group.pks
    )
    return InList(ColumnRef(pk_col), pks)


def l_diversity_violations(
    db: Database,
    table: str,
    quasi_identifiers: Iterable[str],
    sensitive: str,
    l: int,
) -> list[QuasiGroup]:
    """Groups whose *sensitive* column shows fewer than *l* distinct values."""
    if l < 1:
        raise SpecError("l must be >= 1")
    columns = list(quasi_identifiers)
    schema = db.table(table).schema
    schema.column(sensitive)
    pk_col = schema.primary_key
    sensitive_by_pk = {
        row[pk_col]: row[sensitive] for row in db.table(table).rows()
    }
    out = []
    for group in k_anonymity_groups(db, table, columns):
        distinct = {sensitive_by_pk[pk] for pk in group.pks}
        if len(distinct) < l:
            out.append(group)
    return out


# --------------------------------------------------------------------------
# Generalization modifiers (for Modify transformations)
# --------------------------------------------------------------------------


def generalize_numeric(bucket: int) -> Callable[[Any], Any]:
    """A modifier rounding numbers down to *bucket*-sized ranges
    (age 37, bucket 10 -> 30)."""
    if bucket <= 0:
        raise SpecError("bucket size must be positive")

    def fn(value: Any) -> Any:
        if value is None:
            return None
        return (int(value) // bucket) * bucket

    return fn


def generalize_text(prefix_len: int) -> Callable[[Any], Any]:
    """A modifier truncating strings to a prefix (zip 02139 -> 021**)."""
    if prefix_len < 0:
        raise SpecError("prefix length must be >= 0")

    def fn(value: Any) -> Any:
        if value is None:
            return None
        text = str(value)
        if len(text) <= prefix_len:
            return text
        return text[:prefix_len] + "*" * (len(text) - prefix_len)

    return fn


# --------------------------------------------------------------------------
# Differential privacy
# --------------------------------------------------------------------------


def laplace_count(
    db: Database,
    table: str,
    where,
    epsilon: float,
    params: Mapping[str, Any] | None = None,
    rng: random.Random | None = None,
) -> float:
    """An ε-differentially-private count of rows matching *where*.

    Counting queries have sensitivity 1, so Laplace noise with scale 1/ε
    gives ε-DP. Useful for disguise planning dashboards that must not leak
    exact membership ("how many users would this decay policy touch this
    week?").
    """
    if epsilon <= 0:
        raise SpecError("epsilon must be positive")
    true_count = db.count(table, where, params)
    generator = rng if rng is not None else random.SystemRandom()
    # Inverse-CDF sampling of Laplace(0, 1/epsilon).
    uniform = generator.random() - 0.5
    noise = -(1.0 / epsilon) * math.copysign(
        math.log(1 - 2 * abs(uniform)), uniform
    )
    return true_count + noise

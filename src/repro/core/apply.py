"""Spec interpretation: turning a disguise specification into storage ops.

"The data disguising tool takes the disguise specification and turns it
into storage operations that appropriately rewrite affected foreign keys"
(paper §4.1). The runner executes one disguise application (or a
restricted re-application during reveal) inside the engine's open
transaction:

* **Phase A** — Modify and Decorrelate transformations, in spec order.
  Matching rows are snapshotted before execution so placeholder rows
  created along the way are never transformed themselves.
* **Phase B** — Remove transformations, ordered children-before-parents
  across tables (via the schema's foreign-key graph), so deletes never
  trip referential integrity when the spec covers all referencing tables.

Every physical change writes one vault entry (unless the disguise is
irreversible), tagged with the owning user for per-user vault routing.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.history import DisguiseHistory
from repro.core.physical import OpExecutor, PlaceholderFactory, VaultJournal
from repro.core.stats import DisguiseReport
from repro.errors import DisguiseError
from repro.obs.trace import TRACER as _TRACER
from repro.spec.disguise import DisguiseSpec, TableDisguise
from repro.spec.transform import Decorrelate, Modify, Remove
from repro.storage.predicate import And, InList, ColumnRef, Literal
from repro.vault.entry import OP_DECORRELATE, OP_MODIFY, OP_REMOVE, VaultEntry

__all__ = ["SpecRunner"]


class SpecRunner:
    """Executes one spec (possibly restricted to given rows) for one disguise."""

    def __init__(
        self,
        executor: OpExecutor,
        history: DisguiseHistory,
        journal: VaultJournal,
        factory: PlaceholderFactory,
        spec: DisguiseSpec,
        did: int,
        epoch: int,
        uid: Any,
        params: Mapping[str, Any],
        reversible: bool,
        report: DisguiseReport,
    ) -> None:
        self.executor = executor
        self.db = executor.db
        self.history = history
        self.journal = journal
        self.factory = factory
        self.spec = spec
        self.did = did
        self.epoch = epoch
        self.uid = uid
        self.params = params
        self.reversible = reversible
        self.report = report

    # -- public entry points ---------------------------------------------------

    def run(self, restrict: Mapping[str, Iterable[Any]] | None = None) -> None:
        """Execute the whole spec.

        *restrict*, when given, limits each table's transformations to the
        listed primary keys — reveal uses this to re-apply a later disguise
        to just-revealed rows (§4.2).
        """
        # Phase A: content modification and decorrelation.
        for table_disguise in self.spec.tables:
            for transformation in table_disguise.transformations:
                if isinstance(transformation, Modify):
                    with _TRACER.span("op.modify", table=table_disguise.table,
                                      column=transformation.column):
                        self._run_modify(table_disguise, transformation, restrict)
                elif isinstance(transformation, Decorrelate):
                    with _TRACER.span("op.decorrelate",
                                      table=table_disguise.table,
                                      column=transformation.foreign_key):
                        self._run_decorrelate(table_disguise, transformation, restrict)
        # Phase B: removal, children first.
        for table_disguise in self._removal_order():
            for transformation in table_disguise.transformations:
                if isinstance(transformation, Remove):
                    with _TRACER.span("op.remove", table=table_disguise.table):
                        self._run_remove(table_disguise, transformation, restrict)

    # -- row selection -----------------------------------------------------------

    def _select(
        self,
        table_disguise: TableDisguise,
        transformation,
        restrict: Mapping[str, Iterable[Any]] | None,
    ) -> list[dict[str, Any]]:
        pred = transformation.pred
        if restrict is not None:
            pks = restrict.get(table_disguise.table)
            if not pks:
                return []
            pk_col = self.db.table(table_disguise.table).schema.primary_key
            pred = And(
                pred,
                InList(ColumnRef(pk_col), tuple(Literal(pk) for pk in pks)),
            )
        return self.db.select(table_disguise.table, pred, self.params)

    def _owner(self, table_disguise: TableDisguise, row: Mapping[str, Any]) -> Any:
        """Whose vault receives this entry (paper §4.2 routing)."""
        if self.uid is not None:
            return self.uid
        if table_disguise.owner_column:
            owner = row.get(table_disguise.owner_column)
            return self._reroute_placeholder_owner(table_disguise.table, table_disguise.owner_column, owner)
        return None

    def _reroute_placeholder_owner(self, table: str, column: str, owner: Any) -> Any:
        """Entries whose nominal owner is a placeholder go to the global
        vault: placeholders are not users and have no vault, and resolving
        them back to the real owner would defeat the decorrelation."""
        if owner is None:
            return None
        schema = self.db.table(table).schema
        fk = schema.foreign_key_for(column)
        owner_table = fk.parent_table if fk is not None else table
        if self.executor.is_placeholder(owner_table, owner):
            return None
        return owner

    def _entry_for(
        self,
        table_disguise: TableDisguise,
        row: Mapping[str, Any],
        op: str,
        payload: dict[str, Any],
        owner: Any = None,
    ) -> VaultEntry | None:
        """Build (but do not store) the vault entry for one physical change.

        Entry ids and seqs are allocated at build time, so building entries
        in row order preserves the per-row sequencing reveal depends on.
        Returns None when the disguise is irreversible.
        """
        if not self.reversible:
            return None
        table = table_disguise.table if isinstance(table_disguise, TableDisguise) else table_disguise
        pk_col = self.db.table(table).schema.primary_key
        return VaultEntry(
            entry_id=self.history.next_entry_id(),
            disguise_id=self.did,
            seq=self.history.next_seq(),
            epoch=self.epoch,
            owner=owner if owner is not None else self._owner(table_disguise, row),
            table=table,
            pk=row[pk_col],
            op=op,
            payload=payload,
        )

    def _emit(self, entries: list[VaultEntry]) -> None:
        """Store a batch of vault entries with one vault append.

        Entries are grouped per owner first so downstream batch stores see
        each owner's entries contiguously: the encrypted wrapper derives
        one set of subkeys and one keystream per owner group, and the file
        vault issues one journal append (and at most one fsync) per owner.
        """
        if not entries:
            return
        by_owner: dict[Any, list[VaultEntry]] = {}
        for entry in entries:
            by_owner.setdefault(entry.owner, []).append(entry)
        if len(by_owner) > 1:
            entries = [entry for group in by_owner.values() for entry in group]
        self.journal.put_many(entries)
        self.report.vault_entries_written += len(entries)

    # -- transformation execution ---------------------------------------------------

    def _run_modify(
        self,
        table_disguise: TableDisguise,
        transformation: Modify,
        restrict: Mapping[str, Iterable[Any]] | None,
    ) -> None:
        rows = self._select(table_disguise, transformation, restrict)
        if not rows:
            return
        new_values = [
            transformation.fn(row[transformation.column]) for row in rows
        ]
        results = self.executor.do_modify_many(
            table_disguise.table, rows, transformation.column, new_values
        )
        self.report.rows_modified += len(rows)
        entries = []
        for row, (old_value, new_value) in zip(rows, results):
            if old_value == new_value:
                continue  # a no-op rewrite carries nothing to reveal
            entry = self._entry_for(
                table_disguise,
                row,
                OP_MODIFY,
                {"column": transformation.column, "old": old_value, "new": new_value},
            )
            if entry is not None:
                entries.append(entry)
        self._emit(entries)

    def _run_decorrelate(
        self,
        table_disguise: TableDisguise,
        transformation: Decorrelate,
        restrict: Mapping[str, Iterable[Any]] | None,
    ) -> None:
        fk = self.db.table(table_disguise.table).schema.foreign_key_for(
            transformation.foreign_key
        )
        if fk is None:
            raise DisguiseError(
                f"{table_disguise.table}.{transformation.foreign_key} "
                f"is not a foreign key"
            )
        parent_disguise = self.spec.table_disguise(fk.parent_table)
        if parent_disguise is None:
            raise DisguiseError(
                f"spec {self.spec.name!r} has no placeholder recipe for "
                f"{fk.parent_table!r}"
            )
        rows = [
            row
            for row in self._select(table_disguise, transformation, restrict)
            if row[transformation.foreign_key] is not None
            # a NULL reference carries no correlation
        ]
        if not rows:
            return
        # Owners are resolved against pre-decorrelation state.
        owners = [
            self._owner_for_decorrelate(table_disguise, transformation, row)
            for row in rows
        ]
        results = self.executor.do_decorrelate_many(
            table_disguise.table,
            rows,
            transformation.foreign_key,
            self.factory,
            parent_disguise,
        )
        self.report.rows_decorrelated += len(rows)
        self.report.placeholders_created += len(rows)
        entries = []
        for row, owner, (old_fk, new_fk, placeholder_table, placeholder_pk) in zip(
            rows, owners, results
        ):
            entry = self._entry_for(
                table_disguise,
                row,
                OP_DECORRELATE,
                {
                    "column": transformation.foreign_key,
                    "old": old_fk,
                    "new": new_fk,
                    "placeholder_table": placeholder_table,
                    "placeholder_pk": placeholder_pk,
                },
                owner=owner,
            )
            if entry is not None:
                entries.append(entry)
        self._emit(entries)

    def _owner_for_decorrelate(
        self,
        table_disguise: TableDisguise,
        transformation: Decorrelate,
        row: Mapping[str, Any],
    ) -> Any:
        """For decorrelation, the natural owner is the user being unlinked —
        the original FK value — unless the spec routes elsewhere."""
        if self.uid is not None:
            return self.uid
        if table_disguise.owner_column:
            owner = row.get(table_disguise.owner_column)
            return self._reroute_placeholder_owner(
                table_disguise.table, table_disguise.owner_column, owner
            )
        owner = row.get(transformation.foreign_key)
        return self._reroute_placeholder_owner(
            table_disguise.table, transformation.foreign_key, owner
        )

    def _run_remove(
        self,
        table_disguise: TableDisguise,
        transformation: Remove,
        restrict: Mapping[str, Iterable[Any]] | None,
    ) -> None:
        """Engine-driven removal: every affected row (CASCADE children,
        SET NULL rewrites) gets its own vault entry, so the whole removal
        is reversible — a raw SQL cascade would silently lose the children.

        The combined removal set for all matching rows is collected once
        (children first, deduplicated across overlapping cascades), then
        executed as contiguous per-table runs of batched statements.
        """
        rows = self._select(table_disguise, transformation, restrict)
        if not rows:
            return
        pk_col = self.db.table(table_disguise.table).schema.primary_key
        removal_set = self.executor.collect_removal_set_many(
            table_disguise.table, [row[pk_col] for row in rows]
        )
        index = 0
        while index < len(removal_set):
            table, _row, action = removal_set[index]
            end = index
            while (
                end < len(removal_set)
                and removal_set[end][0] == table
                and removal_set[end][2] == action
            ):
                end += 1
            run = [item[1] for item in removal_set[index:end]]
            if action.startswith("setnull:"):
                self._setnull_run(
                    table_disguise, table, action.split(":", 1)[1], run
                )
            else:
                self._remove_run(table_disguise, table, run)
            index = end

    def _setnull_run(
        self,
        table_disguise: TableDisguise,
        table: str,
        column: str,
        rows: list[Any],
    ) -> None:
        results = self.executor.do_modify_many(
            table, rows, column, [None] * len(rows)
        )
        self.report.cascades += len(rows)
        entries = []
        for row, (old_value, _new) in zip(rows, results):
            entry = self._entry_for(
                _proxy_td(table_disguise, table),
                row,
                OP_MODIFY,
                {"column": column, "old": old_value, "new": None},
                owner=self._owner(table_disguise, row),
            )
            if entry is not None:
                entries.append(entry)
        self._emit(entries)

    def _remove_run(
        self, table_disguise: TableDisguise, table: str, rows: list[Any]
    ) -> None:
        entries = []
        for row in rows:
            entry = self._entry_for(
                _proxy_td(table_disguise, table),
                row,
                OP_REMOVE,
                {"row": dict(row)},
                owner=self._owner(table_disguise, row),
            )
            if entry is not None:
                entries.append(entry)
        self._emit(entries)
        pk_col = self.db.table(table).schema.primary_key
        self.db.delete_many(table, [row[pk_col] for row in rows])
        self.report.rows_removed += len(rows)
        if table != table_disguise.table:
            self.report.cascades += len(rows)

    # -- removal ordering --------------------------------------------------------------

    def _removal_order(self) -> list[TableDisguise]:
        """Spec tables with Remove ops, children before parents.

        Sorted by descending rank in the schema's topological order;
        tables on an FK cycle share a rank and keep their spec order.
        """
        removing = [
            table_disguise
            for table_disguise in self.spec.tables
            if any(isinstance(t, Remove) for t in table_disguise.transformations)
        ]
        if len(removing) <= 1:
            return removing
        rank = self.executor.schema.topological_order()
        # A table the schema lacks sorts last; its Remove then raises.
        return sorted(removing, key=lambda td: -rank.get(td.table, 0))


def _proxy_td(table_disguise: TableDisguise, table: str) -> TableDisguise:
    """A lightweight stand-in so cascade entries on *other* tables carry the
    right table name (owner routing already resolved by the caller)."""
    if table == table_disguise.table:
        return table_disguise
    return TableDisguise(table=table)

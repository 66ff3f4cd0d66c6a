"""Disguise reversal (paper §4.2, "Reverting disguises").

Revealing disguise D permanently restores the data D transformed — but
"other disguises may have affected the database contents in the interval
between the original disguising and the explicit reveal". The engine
therefore:

1. Collects D's vault entries, plus every *later* entry (any active
   disguise) on the same rows — these form per-row chains of physical
   changes.
2. Reverses all involved entries newest-first: later disguises' changes
   unwind temporarily, then D's unwind permanently (D's entries are
   consumed).
3. Re-executes the later entries oldest-first, so the other disguises
   re-assert themselves on the revealed data with fresh placeholders and
   updated vault entries.
4. Re-applies, at spec level, every other active disguise to the rows D's
   reversal restored — excluding, per disguise, rows it just re-asserted
   through a chain entry in step 3. This is the paper's "re-applies
   disguises from the relevant log interval to the revealed data"
   (reversal of GDPR must not reintroduce identifiable reviews if
   ConfAnon has occurred). The restored rows are read once and each
   disguise's predicates tested against them in memory first; only a
   disguise that selects one of them is actually run.
5. Re-removes restored rows whose parent another active disguise removed
   (the cascade the parent's removal would have performed had this row
   existed then), attributing the removal to that disguise so its own
   later reveal restores the row. Any dangling reference that survives
   all of this aborts the reveal.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.apply import SpecRunner
from repro.core.history import DisguiseHistory, HistoryRecord
from repro.core.physical import (
    OpExecutor,
    PlaceholderFactory,
    VaultJournal,
    in_list,
)
from repro.core.stats import DisguiseReport, RevealReport
from repro.errors import DisguiseError, StorageError, VaultError
from repro.spec.disguise import DisguiseSpec, USER_PARAM
from repro.storage.compile import compile_predicate
from repro.vault.base import VaultStore
from repro.vault.entry import OP_DECORRELATE, OP_MODIFY, OP_REMOVE, VaultEntry

__all__ = ["run_reveal"]


def run_reveal(
    executor: OpExecutor,
    history: DisguiseHistory,
    vault: VaultStore,
    journal: VaultJournal,
    factory: PlaceholderFactory,
    spec_lookup: Callable[[int], DisguiseSpec],
    spec_by_name: Callable[[str], DisguiseSpec],
    record: HistoryRecord,
    report: RevealReport,
) -> None:
    """Reverse disguise *record* inside the engine's open transaction."""
    if not record.reversible:
        raise DisguiseError(
            f"disguise {record.did} ({record.name}) was applied irreversibly"
        )
    did = record.did
    d_entries, pool = _gather_entries(vault, record)
    if not d_entries:
        if record.entries == 0:
            # The disguise never changed anything (e.g. the user's data was
            # already disguised); revealing it is a no-op.
            journal.deactivate(did)
            return
        raise DisguiseError(
            f"disguise {did} ({record.name}) wrote {record.entries} vault "
            f"entries but none remain (expired?); it is no longer reversible"
        )

    # Per-row chains: a later entry is involved if it touches a row D
    # touched and came after D's first change to that row.
    cutoff: dict[tuple[str, Any], int] = {}
    for entry in d_entries:
        key = (entry.table, entry.pk)
        cutoff[key] = min(cutoff.get(key, entry.seq), entry.seq)
    involved_later = [
        entry
        for entry in pool
        if (entry.table, entry.pk) in cutoff
        and entry.seq > cutoff[(entry.table, entry.pk)]
    ]

    # Phases 1+2: reverse everything involved, newest first. FK checks are
    # deferred for the duration: chains pass through transient states (a
    # restored FK whose parent only reappears, or whose child is only
    # re-removed, later in this same transaction); the soundness gate at
    # the end re-validates every touched row.
    executor.defer_fk = True
    restored: dict[str, list[Any]] = {}
    reinserted: dict[str, list[Any]] = {}
    for entry in sorted(
        d_entries + involved_later, key=lambda e: e.seq, reverse=True
    ):
        outcome = executor.reverse_entry(entry)
        is_mine = entry.disguise_id == did
        if outcome.status == "restored":
            if is_mine:
                restored.setdefault(entry.table, []).append(entry.pk)
            if entry.op == OP_REMOVE:
                report.rows_reinserted += int(is_mine)
                if is_mine:
                    reinserted.setdefault(entry.table, []).append(entry.pk)
            elif entry.op == OP_DECORRELATE:
                report.fks_restored += int(is_mine)
                report.placeholders_deleted += int(outcome.placeholder_deleted)
            elif entry.op == OP_MODIFY:
                report.values_restored += int(is_mine)
            if not is_mine:
                report.chain_reversed += 1
        elif outcome.status == "missing" and is_mine and entry.op in (
            OP_DECORRELATE,
            OP_MODIFY,
        ):
            # The row only exists inside another active disguise's
            # REMOVE payload; apply the reveal function to that vaulted
            # copy, so the row comes back correctly when *that*
            # disguise is revealed.
            if _restore_into_holder(
                executor, history, vault, journal, entry, did
            ):
                if entry.op == OP_DECORRELATE:
                    report.fks_restored += 1
                else:
                    report.values_restored += 1
        if is_mine:
            journal.delete(entry)
            report.entries_consumed += 1

    # Phase 3: later entries re-assert themselves, oldest first.
    # Rows they cover are excluded from that disguise's spec re-application.
    reasserted: dict[int, set[tuple[str, Any]]] = {}
    re_removed: list[tuple[str, Any]] = []
    for entry in sorted(involved_later, key=lambda e: e.seq):
        owning_spec = spec_lookup(entry.disguise_id)
        new_entry = executor.reexecute_entry(
            entry, owning_spec, factory, history.next_seq()
        )
        if new_entry is None:
            journal.delete(entry)
        else:
            journal.replace(entry, new_entry)
            report.chain_reapplied += 1
            if new_entry.op == OP_REMOVE:
                re_removed.append((entry.table, entry.pk))
        reasserted.setdefault(entry.disguise_id, set()).add((entry.table, entry.pk))

    # Phase 4: spec-level re-application of every other active disguise to
    # the restored rows it has no chain entry for.
    if restored:
        # Dedupe pk lists (a row can appear via several of D's entries).
        for table in restored:
            restored[table] = list(dict.fromkeys(restored[table]))
        # Most other disguises select none of the restored rows (another
        # user's GDPR disguise, say), and a spec run whose transformations
        # select nothing changes nothing — so no later transformation of
        # that run can select anything either. Each disguise's predicates
        # are therefore tested against the restored rows in memory first,
        # and only a disguise that selects one of them is run.
        rows = _RestoredRows(executor.db, restored)
        for other in history.records(active_only=True):
            if other.did == did:
                continue
            spec = spec_by_name(other.name)
            excluded = reasserted.get(other.did, set())
            restrict = {
                table: [pk for pk in pks if (table, pk) not in excluded]
                for table, pks in restored.items()
                if spec.table_disguise(table) is not None
            }
            if not any(restrict.values()):
                continue
            params = {USER_PARAM: other.uid} if other.uid is not None else {}
            if not _selects_any(spec, restrict, params, rows):
                continue
            sub_report = DisguiseReport(
                disguise_id=other.did, name=other.name, uid=other.uid
            )
            runner = SpecRunner(
                executor=executor,
                history=history,
                journal=journal,
                factory=factory,
                spec=spec,
                did=other.did,
                epoch=other.epoch,
                uid=other.uid,
                params=params,
                reversible=other.reversible,
                report=sub_report,
            )
            runner.run(restrict=restrict)
            report.spec_reapplied += sub_report.rows_touched
            rows.forget()  # the run may have written: read the rows afresh

    # Phase 5: cascade re-removal. A restored row whose parent an active
    # disguise removed would have been cascaded away had it existed at
    # that disguise's application time; perform that cascade now,
    # attributed to the removing disguise.
    _cascade_orphans(
        executor, history, vault, journal, restored, did, report
    )

    executor.defer_fk = False

    # Final soundness gate: the whole reveal ran with deferred FK checks,
    # so every row it touched must now be clean.
    touched: set[tuple[str, Any]] = set()
    for table, pks in restored.items():
        touched.update((table, pk) for pk in pks)
    touched.update((entry.table, entry.pk) for entry in involved_later)
    dangling = []
    for table, pk in sorted(touched, key=repr):
        dangling.extend(executor.db.check_row_fks(table, pk))
    # Rows re-removed in phase 3 had incoming-reference resolution deferred;
    # any row still pointing at them now is a dangle.
    for table, pk in re_removed:
        if executor.db.get(table, pk) is not None:
            continue  # reinserted again later in the chain — fine
        for child_schema, fk in executor.schema.referencing(table):
            for child_row in executor.db.table(child_schema.name).referencing_rows(
                fk.column, pk
            ):
                dangling.append(
                    f"{child_schema.name}.{fk.column}={pk!r} references "
                    f"re-removed {table} row"
                )
    if dangling:
        raise DisguiseError(
            f"reveal of disguise {did} would break referential integrity "
            f"({len(dangling)} dangling reference(s), e.g. {dangling[0]}); "
            f"an active disguise removed a parent row and its spec does not "
            f"cover the revealed child"
        )

    journal.deactivate(did)
    journal.checkpoint(did)


class _RestoredRows:
    """The restored rows as phase 4 tests them.

    Each table's rows are read with one locked select, on first use and
    again only after :meth:`forget` (a spec run may have written); each
    transformation predicate is compiled once per reveal, then bound per
    disguise.
    """

    def __init__(self, db: Any, restored: dict[str, list[Any]]) -> None:
        self.db = db
        self.restored = restored
        self._rows: dict[str, dict[Any, Any]] = {}
        self._compiled: dict[int, Any] = {}

    def of(self, table: str) -> dict[Any, Any]:
        """pk -> current row, for the restored rows of *table* still present."""
        current = self._rows.get(table)
        if current is None:
            pk_col = self.db.table(table).schema.primary_key
            current = self._rows[table] = {
                row[pk_col]: row
                for row in self.db.select(
                    table, in_list(pk_col, self.restored[table])
                )
            }
        return current

    def forget(self) -> None:
        self._rows.clear()

    def matcher(self, pred: Any, params: dict[str, Any]) -> Callable[[Any], Any]:
        """``row -> True/False/None`` for *pred* bound to *params*."""
        key = id(pred)
        if key not in self._compiled:
            self._compiled[key] = compile_predicate(pred)
        compiled = self._compiled[key]
        if compiled is None:
            return lambda row: pred.test(row, params)
        return compiled.bind(params)


def _selects_any(
    spec: DisguiseSpec,
    restrict: dict[str, list[Any]],
    params: dict[str, Any],
    rows: _RestoredRows,
) -> bool:
    """Whether any transformation of *spec* selects a row of *restrict*.

    A predicate whose evaluation raises counts as selecting, so the runner
    meets (and reports) the error exactly as it would have.
    """
    for table, pks in restrict.items():
        if not pks:
            continue
        current = rows.of(table)
        live = [current[pk] for pk in pks if pk in current]
        if not live:
            continue
        for transformation in spec.table_disguise(table).transformations:
            match = rows.matcher(transformation.pred, params)
            try:
                for row in live:
                    if match(row) is True:
                        return True
            except StorageError:
                return True
    return False


def _cascade_orphans(
    executor: OpExecutor,
    history: DisguiseHistory,
    vault: VaultStore,
    journal: VaultJournal,
    restored: dict[str, list[Any]],
    revealing_did: int,
    report: RevealReport,
) -> None:
    db = executor.db
    for table, pks in restored.items():
        for pk in pks:
            # A view avoids copying the whole row just to probe its FK
            # columns; the dict() copy below happens only for the rare row
            # that actually gets re-removed into a vault payload.
            row = db.table(table).view(pk)
            if row is None:
                continue
            schema = db.table(table).schema
            for fk in schema.foreign_keys:
                value = row[fk.column]
                if value is None or db.table(fk.parent_table).rid_of(value) is not None:
                    continue
                remover = _find_remover(
                    vault, history, journal, fk.parent_table, value, revealing_did
                )
                if remover is None:
                    continue  # the final soundness gate will report it
                entry = VaultEntry(
                    entry_id=history.next_entry_id(),
                    disguise_id=remover.did,
                    seq=history.next_seq(),
                    epoch=remover.epoch,
                    owner=remover.uid,
                    table=table,
                    pk=pk,
                    op=OP_REMOVE,
                    payload={"row": dict(row)},
                )
                journal.put(entry)
                db.delete_by_pk(table, pk)
                report.spec_reapplied += 1
                break  # row is gone; no need to examine its other FKs


def _find_remover(
    vault: VaultStore,
    history: DisguiseHistory,
    journal: VaultJournal,
    table: str,
    pk: Any,
    revealing_did: int,
) -> HistoryRecord | None:
    """The active disguise whose vault records removing (table, pk)."""
    found = _find_holder_entry(vault, history, journal, table, pk, revealing_did)
    return found[0] if found is not None else None


def _find_holder_entry(
    vault: VaultStore,
    history: DisguiseHistory,
    journal: VaultJournal,
    table: str,
    pk: Any,
    revealing_did: int,
) -> tuple[HistoryRecord, VaultEntry] | None:
    """The active (record, REMOVE entry) holding the vaulted copy of a row."""
    for candidate in history.records(active_only=True):
        if candidate.did == revealing_did:
            continue
        owners = [candidate.uid] if candidate.uid is not None else [None]
        for owner in owners:
            try:
                entries = vault.entries_for(
                    owner, disguise_id=candidate.did, table=table, op=OP_REMOVE
                )
            except VaultError:
                continue  # locked per-user vault: cannot attribute through it
            for entry in entries:
                # Vault deletes are deferred to post-commit, so an entry
                # consumed earlier in this reveal is still enumerable;
                # it no longer holds anything.
                if entry.pk == pk and not journal.pending_delete(entry):
                    return candidate, entry
    return None


def _restore_into_holder(
    executor: OpExecutor,
    history: DisguiseHistory,
    vault: VaultStore,
    journal: VaultJournal,
    entry: VaultEntry,
    revealing_did: int,
) -> bool:
    """Apply *entry*'s reveal function to the vaulted copy of its row.

    The row was removed by another active disguise after *entry* disguised
    it; the only live copy sits in that disguise's REMOVE payload. Editing
    the payload makes the eventual reveal of the remover reinsert the row
    in its true pre-disguise state — e.g. a comment decorrelated by a
    scrub, then cascaded away by a paper deletion, comes back pointing at
    its real author once both disguises are reversed.
    """
    found = _find_holder_entry(
        vault, history, journal, entry.table, entry.pk, revealing_did
    )
    if found is None:
        return False
    _, holder = found
    row = holder.removed_row
    if row.get(entry.column) != entry.new_value:
        return False  # an intervening change we do not own; leave it
    row[entry.column] = entry.old_value
    updated = holder.with_payload(holder.seq, row=row)
    journal.replace(holder, updated)
    if entry.op == OP_DECORRELATE:
        executor.delete_placeholder_if_unreferenced(
            entry.placeholder_table, entry.placeholder_pk
        )
    return True


def _gather_entries(
    vault: VaultStore, record: HistoryRecord
) -> tuple[list[VaultEntry], list[VaultEntry]]:
    """D's own entries and the pool of other entries to chain against.

    A user disguise needs only that user's vault (plus the global one); a
    global disguise needs every vault — which per-user encrypted
    deployments refuse unless unlocked, reproducing the paper's point that
    complete ConfAnon reversal is infeasible there (§4.2).
    """
    if record.uid is not None:
        mine = vault.entries_for(record.uid, disguise_id=record.did)
        pool = [
            entry
            for entry in vault.entries_for(record.uid) + vault.entries_for(None)
            if entry.disguise_id != record.did
        ]
        return mine, pool
    every = vault.all_entries()
    mine = [entry for entry in every if entry.disguise_id == record.did]
    pool = [entry for entry in every if entry.disguise_id != record.did]
    return mine, pool

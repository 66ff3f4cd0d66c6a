"""The persistent disguise history log (paper §5).

"Edna also keeps a disguise history table that logs all disguises
performed." The log lives in the application database (table
``_disguise_history``) so it is transactional with disguise application:
a rolled-back disguise leaves no history row.

Reveal uses the log two ways (§4.2): to find a disguise's epoch, and to
enumerate the *later* still-active disguises whose operations must be
re-applied to revealed data.

The engine writes a disguise's row at most once per transaction: the
transaction's :class:`~repro.core.physical.VaultJournal` stages the row's
changes (entry count, ``active`` flag, ``last_seq``) and hands them to
:meth:`DisguiseHistory.write` just before commit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import DisguiseError
from repro.storage.database import Database
from repro.storage.predicate import ColumnRef, Comparison, Literal
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType

__all__ = ["DisguiseHistory", "HistoryRecord"]

HISTORY_TABLE = "_disguise_history"
JOBS_TABLE = "_applied_jobs"

# Served by the index on ``active``: reading the active disguises examines
# those rows only, not every disguise ever applied.
_ACTIVE = Comparison("=", ColumnRef("active"), Literal(True))


def _jobs_schema() -> TableSchema:
    return TableSchema(
        JOBS_TABLE,
        [
            Column("job", ColumnType.TEXT, nullable=False),
            Column("did", ColumnType.INTEGER, nullable=False),
        ],
        primary_key="job",
    )


def _history_schema() -> TableSchema:
    return TableSchema(
        HISTORY_TABLE,
        [
            Column("did", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("uid", ColumnType.TEXT),  # str(user id); NULL for global
            Column("epoch", ColumnType.INTEGER, nullable=False),
            Column("active", ColumnType.BOOL, nullable=False, default=True),
            Column("reversible", ColumnType.BOOL, nullable=False, default=True),
            Column("user_invoked", ColumnType.BOOL, nullable=False, default=False),
            Column("last_seq", ColumnType.INTEGER, nullable=False, default=0),
            Column("entries", ColumnType.INTEGER, nullable=False, default=0),
        ],
        primary_key="did",
    )


@dataclass(frozen=True)
class HistoryRecord:
    """One applied disguise, as recorded in the log."""

    did: int
    name: str
    uid: Any
    epoch: int
    active: bool
    reversible: bool
    user_invoked: bool
    entries: int

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "HistoryRecord":
        uid = row["uid"]
        if isinstance(uid, str) and uid.isdigit():
            uid = int(uid)
        return cls(
            did=row["did"],
            name=row["name"],
            uid=uid,
            epoch=row["epoch"],
            active=row["active"],
            reversible=row["reversible"],
            user_invoked=row["user_invoked"],
            entries=row.get("entries", 0),
        )


class DisguiseHistory:
    """Log of all disguises applied to one database, plus id allocation.

    Sequence numbers (``seq``) totally order physical changes across
    disguises; entry ids uniquely name vault entries. Both counters are
    kept in memory and checkpointed onto each disguise's history row
    (``last_seq``), so a fresh engine attached to an existing database
    resumes numbering correctly.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        if not db.has_table(HISTORY_TABLE):
            db.create_table(_history_schema())
        if not db.has_table(JOBS_TABLE):
            db.create_table(_jobs_schema())
        # Indexes are not persisted; (re)create on every attach. No-op
        # when present.
        db.table(HISTORY_TABLE).create_index("active")
        self._next_did = 1
        self._next_seq = 1
        # Concurrent workers share one history; id allocation is the only
        # in-memory state, so a mutex over the counters suffices (rows are
        # written through the locked/latched Database statement API).
        self._alloc_mu = threading.Lock()
        for row in db.table(HISTORY_TABLE).rows():
            self._next_did = max(self._next_did, row["did"] + 1)
            self._next_seq = max(self._next_seq, row["last_seq"] + 1)

    # -- id allocation -----------------------------------------------------------

    def next_seq(self) -> int:
        with self._alloc_mu:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    # Entry ids share the seq counter: both need only global uniqueness and
    # monotonicity, and one counter means one checkpoint.
    next_entry_id = next_seq

    def seq_high_water(self) -> int:
        """The last seq handed out: what a checkpoint records as ``last_seq``."""
        return self._next_seq - 1

    def resume_past(self, entries: Iterable[Any]) -> None:
        """Advance the id counters past every vault entry in *entries*.

        The engine calls this at start with every entry it finds in the
        vaults. The vault journals durably *inside* the apply transaction,
        so a crash between the vault append and the WAL commit strands
        entries whose disguise/entry ids were never committed to a history
        row. Resuming the counters from history alone would re-issue those
        ids: the next disguise would alias the stranded entries (their
        stale values would masquerade as its own vault state), and
        re-used entry ids collide in the per-owner journals. Found by
        the deterministic simulation harness.
        """
        with self._alloc_mu:
            for entry in entries:
                self._next_did = max(self._next_did, entry.disguise_id + 1)
                self._next_seq = max(
                    self._next_seq, max(entry.entry_id, entry.seq) + 1
                )

    # -- log records --------------------------------------------------------------

    def new_row(
        self,
        name: str,
        uid: Any,
        reversible: bool,
        user_invoked: bool,
    ) -> dict[str, Any]:
        """Allocate a disguise id; return its (unwritten) history row.

        The epoch of a disguise equals its id: ids are allocated in
        application order, so comparisons on epoch give log order.
        """
        with self._alloc_mu:
            did = self._next_did
            self._next_did += 1
        return {
            "did": did,
            "name": name,
            "uid": None if uid is None else str(uid),
            "epoch": did,
            "active": True,
            "reversible": reversible,
            "user_invoked": user_invoked,
            "last_seq": 0,
            "entries": 0,
        }

    def open(
        self,
        name: str,
        uid: Any,
        reversible: bool,
        user_invoked: bool,
    ) -> int:
        """Append a new in-progress disguise now; returns its disguise id.

        The engine opens disguises through its transaction's journal
        instead, which writes the row once, at commit time."""
        row = self.new_row(name, uid, reversible, user_invoked)
        self.write(row["did"], row, new=True)
        return row["did"]

    def write(self, did: int, changes: Mapping[str, Any], new: bool = False) -> None:
        """One write of a disguise's row: the insert of the whole row
        *changes* when *new*, else an update of the named columns."""
        if new:
            self.db.insert(HISTORY_TABLE, dict(changes))
        else:
            self.db.update_by_pk(HISTORY_TABLE, did, changes)

    def live_entries(self, did: int) -> int | None:
        """A disguise's recorded vault-entry count; None if it has no row."""
        row = self.db.get(HISTORY_TABLE, did)
        return None if row is None else row["entries"]

    def checkpoint(self, did: int, entries_written: int | None = None) -> None:
        """Record the seq high-water mark (and optionally the number of
        vault entries the disguise wrote) on the disguise's row.

        The entry count lets reveal distinguish a disguise that legitimately
        changed nothing (reveal is a no-op) from one whose vault entries
        expired (reveal is impossible, §4.2)."""
        changes: dict = {"last_seq": self.seq_high_water()}
        if entries_written is not None:
            changes["entries"] = entries_written
        self.write(did, changes)

    def adjust_entries(self, did: int, delta: int) -> None:
        """Maintain the live vault-entry count for a disguise.

        ``entries`` always reflects what remains in the vaults: composition
        may consume another disguise's entries (the rows it would reverse
        are gone), and reveal must treat that as "nothing left to do", not
        "expired". The engine's journal stages these counts per transaction
        (:meth:`repro.core.physical.VaultJournal.put`); this is the direct
        one-off form.
        """
        entries = self.live_entries(did)
        if entries is not None:
            self.write(did, {"entries": max(0, entries + delta)})

    def record_job(self, job: str, did: int) -> None:
        """Bind a service job token to the disguise it applied.

        Written inside the apply transaction, so the binding is exactly as
        durable as the apply: a job that re-runs after a crash (its queue
        ack was lost) finds the binding and completes as a no-op instead
        of applying the disguise a second time."""
        self.db.insert(JOBS_TABLE, {"job": job, "did": did})

    def job_applied(self, job: str) -> int | None:
        """The disguise id *job* already applied, or None."""
        row = self.db.get(JOBS_TABLE, job)
        return None if row is None else int(row["did"])

    def get(self, did: int) -> HistoryRecord:
        row = self.db.get(HISTORY_TABLE, did)
        if row is None:
            raise DisguiseError(f"no disguise with id {did}")
        return HistoryRecord.from_row(row)

    def deactivate(self, did: int) -> None:
        """Mark a disguise as reversed (it no longer affects the database)."""
        self.write(did, {"active": False})

    def records(self, active_only: bool = False) -> list[HistoryRecord]:
        """History records in log order; ``active_only`` reads just the
        active rows through the ``active`` index, O(active disguises)."""
        rows = self.db.select(HISTORY_TABLE, _ACTIVE if active_only else None)
        return sorted(
            (HistoryRecord.from_row(row) for row in rows),
            key=lambda record: record.epoch,
        )

    def active_after(self, epoch: int) -> list[HistoryRecord]:
        """Active disguises applied after *epoch*, in log order — the
        "relevant log interval" whose operations reveal must re-apply."""
        return [
            record
            for record in self.records(active_only=True)
            if record.epoch > epoch
        ]

    def active_for_user(self, uid: Any, before_epoch: int | None = None) -> list[HistoryRecord]:
        """Active disguises that may hold vault state for *uid*: the user's
        own disguises plus all global ones."""
        out = []
        for record in self.records(active_only=True):
            if before_epoch is not None and record.epoch >= before_epoch:
                continue
            if record.uid is None or record.uid == uid:
                out.append(record)
        return out

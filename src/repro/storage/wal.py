"""Write-ahead logging: O(delta) durability for snapshot-backed databases.

:func:`~repro.storage.persist.save_database` rewrites every row of every
table per save — an O(database) cost per command that the ROADMAP's
"as fast as the hardware allows" target cannot afford. This module adds
the standard journal/checkpoint/recovery shape instead:

* **Redo log** — an append-only file of length+CRC32-framed JSON records,
  one record per batched statement. The log is a *redo mirror* of the
  :class:`~repro.storage.database.Database` undo log: wherever the engine
  logs an undo closure, it also hands the attached WAL a redo record
  describing the physical change (post-normalization rows, so replay is
  deterministic).
* **Group commit** — statement records buffer in memory per transaction
  and hit the file only when the top-level transaction commits, as one
  commit unit terminated by a commit frame. The fsync policy is pluggable:
  ``always`` (fsync per commit — nothing acked is ever lost), ``batch``
  (fsync every ``batch_commits`` commits and on close), ``never`` (leave
  it to the OS).
* **Checkpoint** — snapshot the database via the existing
  :mod:`~repro.storage.persist` format (written to a temp file, fsynced,
  atomically renamed), then truncate the log. Recovery cost is bounded by
  the log written since the last checkpoint, not by history. Snapshot and
  log each carry a *checkpoint generation* stamp; the snapshot (with the
  generation bumped) is installed first, so a crash between the two steps
  leaves a log whose generation predates the snapshot — recovery sees the
  stale stamp and skips the replay instead of double-applying changes
  already folded in.
* **Recovery** — load the last checkpoint snapshot and replay the log's
  commit units in order. A torn tail (an incomplete final frame, a
  CRC-failing final frame, or trailing statement records with no commit
  frame) is the expected crash signature and is discarded; a CRC failure
  *before* well-formed frames is real corruption and raises
  :class:`WalCorruptionError`. Opening a log for *writing* physically
  truncates the discarded tail first, so new commit units land after the
  last sealed frame rather than after damaged bytes.

Framing: each frame is ``<u32 length LE> <u32 crc32 LE> <payload>`` where
``payload`` is UTF-8 JSON and the CRC covers the payload bytes only.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from repro.errors import NoSuchRowError, StorageError
from repro.obs.trace import TRACER as _TRACER
from repro.simtest.clock import resolve_clock
from repro.storage import fsio
from repro.storage.database import Database
from repro.storage.persist import (
    _decode_value,
    _encode_value,
    _fsync_dir,
    _schema_from_json,
    _schema_to_json,
    read_snapshot_generation,
    save_database_atomic,
)
from repro.storage.schema import Schema
from repro.storage.stats import DEFERRED

__all__ = [
    "WalCorruptionError",
    "WriteAheadLog",
    "WalDatabase",
    "recover_database",
    "replay_into",
    "default_wal_path",
    "FSYNC_POLICIES",
]

_FRAME_HEADER = struct.Struct("<II")  # payload length, CRC32(payload)
_WAL_VERSION = 1
# Record-format version, stamped in the header as "fmt" (the framing
# "version" above is unchanged). fmt 3 logs every update as pk-keyed
# changed-column deltas ("deltas", or "set" + "set_pks"); a renumbered
# row's delta carries its new pk. Readers accept exactly _WAL_FORMAT: a
# log from an earlier release (no "fmt", or fmt 1-2, which could hold
# full-row update records) must be folded into its snapshot by that
# release's ``checkpoint`` and then deleted.
_WAL_FORMAT = 3
FSYNC_POLICIES = ("always", "batch", "never")

# Frame types.
_T_HEADER = "header"
_T_STMT = "stmt"
_T_COMMIT = "commit"

# Redo ops that survive rollback (mirroring the undo log's DDL rule).
_DDL_OPS = ("create_table", "drop_table")


class WalCorruptionError(StorageError):
    """The log is damaged somewhere other than its torn tail."""


# -- value (de)serialization ---------------------------------------------------------


def _encode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {k: _encode_value(v) for k, v in row.items()}


def _decode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {k: _decode_value(v) for k, v in row.items()}


def _encode_record(record: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe copy of a redo record (BLOB values hex-wrapped)."""
    out: dict[str, Any] = {"t": _T_STMT, "op": record["op"]}
    if "table" in record:
        out["table"] = record["table"]
    if "rows" in record:  # insert: list of full rows
        out["rows"] = [_encode_row(r) for r in record["rows"]]
    if "deltas" in record:  # update: list of [pk, changed-column map]
        out["deltas"] = [
            [_encode_value(pk), _encode_row(delta)] for pk, delta in record["deltas"]
        ]
    if "set" in record:  # update: one shared delta for many pks
        out["set"] = _encode_row(record["set"])
        out["set_pks"] = [_encode_value(pk) for pk in record["set_pks"]]
    if "pks" in record:  # delete: list of pks
        out["pks"] = [_encode_value(pk) for pk in record["pks"]]
    if "schema" in record:  # create_table
        out["schema"] = _schema_to_json(record["schema"])
    if "name" in record:  # drop_table
        out["name"] = record["name"]
    return out


# -- frame IO ------------------------------------------------------------------------


def _write_frame(handle: BinaryIO, payload: dict[str, Any]) -> int:
    """Append one frame; returns the number of bytes written."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    handle.write(_FRAME_HEADER.pack(len(body), zlib.crc32(body)))
    handle.write(body)
    return _FRAME_HEADER.size + len(body)


def _iter_frames(blob: bytes, path: Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(end_offset, frame)``; stop silently at a torn tail, raise mid-log.

    The tail is torn when the final frame is incomplete (header or payload
    cut short by a crash) or fails its CRC; either way nothing well-formed
    follows it, so recovery discards it. A CRC failure *followed by* more
    parseable frames means the damage is not a crash artifact — raise.
    """
    offset = 0
    end = len(blob)
    while offset < end:
        if offset + _FRAME_HEADER.size > end:
            return  # torn: header cut short
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        start = offset + _FRAME_HEADER.size
        if start + length > end:
            return  # torn: payload cut short
        body = blob[start : start + length]
        if zlib.crc32(body) != crc:
            # Damaged frame. Torn tail only if nothing well-formed follows.
            if _has_valid_frame(blob, start + length):
                raise WalCorruptionError(
                    f"{path}: CRC mismatch at byte {offset} with valid frames after it"
                )
            return
        try:
            yield start + length, json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if _has_valid_frame(blob, start + length):
                raise WalCorruptionError(
                    f"{path}: undecodable frame at byte {offset}: {exc}"
                ) from None
            return
        offset = start + length


def _scan_log(
    blob: bytes, path: Path
) -> Iterator[tuple[int, list[dict[str, Any]] | None, int]]:
    """Parse a log lazily: yield ``(generation, unit, sealed-prefix length)``.

    The header yields first, with ``unit=None``; then each committed unit
    yields as soon as its commit frame is read, so a reader can apply the
    log one unit at a time instead of holding every decoded unit at once.
    The sealed-prefix length is the byte offset just past the last frame
    that is *durably meaningful* — the header or a commit frame. Everything
    after it (a torn frame, or statement frames never sealed by a commit)
    is crash debris that a writer must trim before appending.

    Raises :class:`WalCorruptionError` for mid-log damage or a first frame
    that is not a valid header; an empty or headerless-torn blob yields
    nothing.
    """
    pending: list[dict[str, Any]] = []
    generation = 0
    saw_header = False
    for end, frame in _iter_frames(blob, path):
        kind = frame.get("t")
        if not saw_header:
            if kind != _T_HEADER or frame.get("version") != _WAL_VERSION:
                raise WalCorruptionError(f"{path}: not a v{_WAL_VERSION} WAL")
            fmt = int(frame.get("fmt", 1))
            if fmt > _WAL_FORMAT:
                raise WalCorruptionError(
                    f"{path}: record format {fmt} is newer than the supported "
                    f"format {_WAL_FORMAT}"
                )
            if fmt < _WAL_FORMAT:
                raise WalCorruptionError(
                    f"{path}: record format {fmt} was written by an earlier "
                    f"release; run `checkpoint` with that release to fold the "
                    f"log into its snapshot, then delete {path.name}"
                )
            generation = int(frame.get("gen", 0))
            saw_header = True
            yield generation, None, end
        elif kind == _T_STMT:
            pending.append(frame)
        elif kind == _T_COMMIT:
            yield generation, pending, end
            pending = []
        else:
            raise WalCorruptionError(f"{path}: unexpected frame {kind!r}")
    # A trailing run of statement frames without a commit frame is an
    # unacked transaction cut off by the crash: it is never yielded.


def _has_valid_frame(blob: bytes, offset: int) -> bool:
    """Does a complete CRC-passing frame start at *offset*?"""
    if offset + _FRAME_HEADER.size > len(blob):
        return False
    length, crc = _FRAME_HEADER.unpack_from(blob, offset)
    start = offset + _FRAME_HEADER.size
    if start + length > len(blob):
        return False
    return zlib.crc32(blob[start : start + length]) == crc


# -- the log -------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only redo log with buffered group commit.

    Implements the :class:`~repro.storage.database.Database` redo-hook
    protocol (``on_statement`` / ``on_begin`` / ``on_commit`` /
    ``on_rollback``), buffering statement records per transaction level —
    mirroring the undo stack — and appending a commit unit per top-level
    commit. Statements executed outside any transaction auto-commit as a
    unit of their own.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: str = "batch",
        batch_commits: int = 8,
        generation: int | None = None,
        sync_delay: float = 0.0,
        clock: Any = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = fsio.as_path(path)
        self._clock = resolve_clock(clock)
        self.fsync = fsync
        self.batch_commits = max(1, batch_commits)
        # Transaction-level buffers mirror Database._undo_stack and, like
        # it, live per thread — each service worker commits its own units.
        self._tls = threading.local()
        # Appends are serialized; commit units are numbered as appended
        # and leader/follower group commit tracks the durable frontier:
        # one committer fsyncs on behalf of everyone appended before it.
        self._append_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._appended_seq = 0
        self._synced_seq = 0
        self._sync_leader = False
        # Artificial pre-fsync latency for the group-commit leader. CI
        # filesystems ack fsync from the page cache in ~0.1ms, which hides
        # exactly the cost group commit exists to amortize; benchmarks set
        # a disk-class value (1-2ms) to measure the sharing honestly.
        self.sync_delay = sync_delay
        self.bytes_written = 0
        self.commits_appended = 0
        self.syncs = 0
        # Attach for writing. An existing log may end in crash debris — a
        # torn frame or statement frames never sealed by a commit — which
        # recovery discards *logically*; appending after it would bury new
        # commits behind bytes every future recovery stops at (or worse,
        # let a new commit frame seal stale unacked statements). So the
        # debris is physically trimmed before the first append. A log whose
        # generation predates *generation* (a checkpoint installed its
        # snapshot but crashed before truncating) is superseded wholesale;
        # one from a *newer* snapshot than the caller has means the base it
        # was logged against is gone — refuse.
        blob = self.path.read_bytes() if self.path.exists() else b""
        log_gen = sealed_end = 0
        for log_gen, _unit, sealed_end in _scan_log(blob, self.path):
            pass
        if generation is None:
            generation = log_gen
        elif log_gen > generation:
            raise WalCorruptionError(
                f"{self.path}: log generation {log_gen} is newer than the "
                f"snapshot's {generation}; its base snapshot is missing"
            )
        self.generation = generation
        if blob and log_gen < generation:
            _write_fresh_log(self.path, generation)
            self._handle: BinaryIO = self.path.open("ab")
        elif sealed_end > 0:
            self._handle = self.path.open("ab")
            self._trim_crash_debris(blob, sealed_end)
        else:
            # Missing, empty, or so torn not even the header survived.
            self._handle = self.path.open("ab")
            if blob:
                self._handle.truncate(0)
            _write_frame(
                self._handle,
                {"t": _T_HEADER, "version": _WAL_VERSION,
                 "fmt": _WAL_FORMAT, "gen": generation},
            )
            self._handle.flush()

    def _trim_crash_debris(self, blob: bytes, sealed_end: int) -> None:
        """Physically drop everything past the sealed prefix before the
        first append. A hook method so the simulation harness can
        re-introduce the pre-fix behavior (appending after a torn tail)
        and prove the model-checking oracle catches it.
        """
        if sealed_end < len(blob):
            self._handle.truncate(sealed_end)
            self._handle.flush()
            fsio.fsync_handle(self._handle)

    @property
    def defer_sync(self) -> bool:
        """Whether *this thread's* commits skip the policy fsync.

        Thread-scoped by design: a service worker sets it at thread start,
        releases its table locks at commit, and then calls
        :meth:`commit_barrier` so one leader fsync covers many workers.
        Any other thread committing through the same log never calls the
        barrier, so it must keep the configured ``fsync`` policy — a
        process-wide flag would silently strip its durability while the
        service runs.
        """
        return getattr(self._tls, "defer_sync", False)

    @defer_sync.setter
    def defer_sync(self, value: bool) -> None:
        self._tls.defer_sync = bool(value)

    @property
    def _tx_stack(self) -> list[list[dict[str, Any]]]:
        """This thread's transaction-level record buffers."""
        try:
            return self._tls.tx_stack
        except AttributeError:
            stack = self._tls.tx_stack = []
            return stack

    @property
    def _unsynced_commits(self) -> int:
        return self._appended_seq - self._synced_seq

    # -- observability -----------------------------------------------------------------

    def register_metrics(self, registry: Any) -> None:
        """Expose WAL counters as ``wal.*`` gauges in *registry*.

        Called by :meth:`Database.set_redo_hook` when the log is attached;
        the gauges read the live attributes lazily, so the append path
        pays nothing for being observable.
        """
        registry.gauge("wal.appends", lambda: self.commits_appended)
        registry.gauge("wal.fsyncs", lambda: self.syncs)
        registry.gauge("wal.bytes_written", lambda: self.bytes_written)
        registry.gauge("wal.appended_seq", lambda: self._appended_seq)
        registry.gauge("wal.synced_seq", lambda: self._synced_seq)
        registry.gauge("wal.unsynced_commits", lambda: self._unsynced_commits)

    # -- redo-hook protocol ----------------------------------------------------------

    def on_begin(self) -> None:
        self._tx_stack.append([])

    def pending_records(self) -> int:
        """Records buffered by this thread's open transaction (0 outside one)."""
        return sum(len(level) for level in self._tx_stack)

    def tag_transaction(self, marker: dict[str, Any]) -> None:
        """Prepend *marker* to this thread's open transaction.

        The marker is written as the unit's first record at commit. The
        sharded group commit uses it to stamp every participating shard's
        unit with one transaction id, so recovery can tell a fully
        durable cross-shard transaction from one torn across logs.
        """
        stack = self._tx_stack
        if not stack:
            raise StorageError("tag_transaction outside a transaction")
        stack[0].insert(0, dict(marker))

    def on_commit(self) -> None:
        records = self._tx_stack.pop()
        if self._tx_stack:
            self._tx_stack[-1].extend(records)
        elif records:
            self._append_unit(records)

    def on_rollback(self) -> None:
        # DML in the rolled-back level is discarded, but DDL is not undone
        # by rollback, so its records survive — in order, at the point the
        # rollback made them permanent.
        ddl = [r for r in self._tx_stack.pop() if r["op"] in _DDL_OPS]
        if not ddl:
            return
        if self._tx_stack:
            self._tx_stack[-1].extend(ddl)
        else:
            self._append_unit(ddl)

    def on_statement(self, record: dict[str, Any]) -> None:
        encoded = _encode_record(record)
        if not self._tx_stack:
            self._append_unit([encoded])
            return
        level = self._tx_stack[-1]
        last = level[-1] if level else None
        if (
            last is not None
            and encoded["op"] == "insert"
            and last["op"] == "insert"
            and last["table"] == encoded["table"]
        ):
            # Back-to-back inserts into one table (reveal reinserting a
            # removal's rows one entry at a time) replay as one batch:
            # one record instead of one per row.
            last["rows"].extend(encoded["rows"])
        else:
            level.append(encoded)

    def on_ddl(self, record: dict[str, Any]) -> None:
        """DDL buffers in statement order mid-transaction (a transaction
        that fills a table and then drops it must not replay as drop-then-
        insert); :meth:`on_rollback` retains it when the DML is discarded.
        Outside a transaction it commits as a unit of its own."""
        if self._tx_stack:
            self._tx_stack[-1].append(_encode_record(record))
        else:
            self._append_unit([_encode_record(record)])

    # -- appending ---------------------------------------------------------------------

    def _append_unit(self, records: list[dict[str, Any]]) -> None:
        if self._handle.closed:
            raise StorageError(f"{self.path}: write-ahead log is closed")
        self._clock.tick("wal.append")
        with _TRACER.span("wal.append", records=len(records)) as sp, \
                self._append_lock:
            written = 0
            for record in records:
                written += _write_frame(self._handle, record)
            written += _write_frame(self._handle, {"t": _T_COMMIT, "n": len(records)})
            self._handle.flush()
            # Counters and the append/sync sequence frontier are only ever
            # advanced under _append_lock (appends) or _sync_cond (sync
            # frontier), so concurrent committers cannot double-count; see
            # _sync_to for the frontier half of the invariant.
            self.bytes_written += written
            self.commits_appended += 1
            self._appended_seq += 1
            seq = self._appended_seq
            sp.set("bytes", written)
        self._tls.last_seq = seq
        if self.defer_sync:
            return
        if self.fsync == "always":
            self._sync_to(seq)
        elif self.fsync == "batch":
            if self._appended_seq - self._synced_seq >= self.batch_commits:
                self._sync_to(self._appended_seq)

    def commit_barrier(self) -> None:
        """Block until this thread's last committed unit is durable.

        The deferred half of early lock release: with ``defer_sync`` on,
        commits append their unit and release locks without waiting for
        the disk; the worker calls this *after* unlocking, and whichever
        barrier caller becomes the leader fsyncs once for every unit
        appended so far. No-op under ``fsync='never'``.
        """
        if self.fsync == "never":
            return
        seq = getattr(self._tls, "last_seq", 0)
        if seq:
            self._sync_to(seq)

    def _sync_to(self, seq: int) -> None:
        """Leader/follower group fsync: return once unit *seq* is durable."""
        self._clock.tick("wal.fsync")
        cond = self._sync_cond
        with cond:
            # Truncation resets the sequence space; a stale thread-local
            # seq from before it can never be pending again.
            seq = min(seq, self._appended_seq)
            while self._synced_seq < seq:
                if not self._sync_leader:
                    self._sync_leader = True
                    break
                self._clock.wait(cond)
            else:
                return
        try:
            if self.sync_delay:
                self._clock.sleep(self.sync_delay)
            # Units numbered <= _appended_seq are flushed to the kernel
            # (both happen under the append lock), so one fsync makes all
            # of them durable — including followers that appended while
            # the leader slept. Snapshot the target *before* fsyncing.
            target = self._appended_seq
            with _TRACER.span("wal.fsync", role="leader") as sp:
                fsio.fsync_handle(self._handle)
                sp.set("units", target - self._synced_seq)
            self.syncs += 1
        except BaseException:
            with cond:
                self._sync_leader = False
                self._clock.notify_all(cond)
            raise
        with cond:
            self._sync_leader = False
            if target > self._synced_seq:
                self._synced_seq = target
            self._clock.notify_all(cond)

    def _fsync(self) -> None:
        target = self._appended_seq
        with _TRACER.span("wal.fsync", role="direct"):
            fsio.fsync_handle(self._handle)
        self.syncs += 1
        with self._sync_cond:
            if target > self._synced_seq:
                self._synced_seq = target
            self._clock.notify_all(self._sync_cond)

    def sync(self) -> None:
        """Flush buffers and force bytes to stable storage."""
        if not self._handle.closed:
            self._handle.flush()
            self._fsync()

    def sync_appended(self) -> None:
        """Make every appended unit durable — a cross-thread barrier.

        Unlike :meth:`commit_barrier` (which waits only on the calling
        thread's last commit), this waits on the append frontier itself,
        covering units other threads committed under ``defer_sync`` and
        never followed with their own barrier. No-op when the frontier is
        already durable, or under ``fsync='never'``.
        """
        if self.fsync == "never":
            return
        with self._sync_cond:
            seq = self._appended_seq
        if seq > self._synced_seq:
            self._sync_to(seq)

    def close(self) -> None:
        """Flush (and, unless ``fsync='never'``, sync) then close the file."""
        if self._handle.closed:
            return
        self._handle.flush()
        if self.fsync != "never" and self._unsynced_commits:
            self._fsync()
        self._handle.close()

    @property
    def in_transaction(self) -> bool:
        return bool(self._tx_stack)

    def truncate(self, generation: int | None = None) -> None:
        """Reset the log to an empty (header-only) file, durably.

        ``generation`` restamps the header — :meth:`WalDatabase.checkpoint`
        passes the new snapshot's generation so log and snapshot move to
        the new epoch together.
        """
        if generation is not None:
            self.generation = generation
        self._handle.close()
        _write_fresh_log(self.path, self.generation)
        self._handle = self.path.open("ab")
        with self._sync_cond:
            self._appended_seq = 0
            self._synced_seq = 0
            self._clock.notify_all(self._sync_cond)

    # -- reading -----------------------------------------------------------------------

    @staticmethod
    def read_log(path: str | Path) -> tuple[int, list[list[dict[str, Any]]]]:
        """``(generation, committed units oldest first)``, tolerating a torn
        tail.

        Raises :class:`WalCorruptionError` for mid-log damage or a missing
        or wrong-version header on a non-empty log.
        """
        path = fsio.as_path(path)
        generation, units = 0, []
        for generation, unit, _sealed_end in _scan_log(path.read_bytes(), path):
            if unit is not None:
                units.append(unit)
        return generation, units

    @staticmethod
    def read_units(path: str | Path) -> list[list[dict[str, Any]]]:
        """Just the committed units of :meth:`read_log`."""
        return WriteAheadLog.read_log(path)[1]


def _write_fresh_log(path: Any, generation: int) -> None:
    """Atomically replace *path* with a header-only log at *generation*."""
    rewrite_log(path, generation, [])


def rewrite_log(
    path: Any, generation: int, units: list[list[dict[str, Any]]]
) -> None:
    """Atomically replace *path* with a log holding exactly *units*.

    Sharded recovery uses this to scrub units of transactions torn
    across shard logs: the units are physically removed, so a later
    recovery (which sees only this log) cannot resurrect them.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as handle:
        _write_frame(
            handle,
            {"t": _T_HEADER, "version": _WAL_VERSION,
             "fmt": _WAL_FORMAT, "gen": generation},
        )
        for unit in units:
            for record in unit:
                _write_frame(handle, record)
            _write_frame(handle, {"t": _T_COMMIT, "n": len(unit)})
        handle.flush()
        fsio.fsync_handle(handle)
    fsio.replace(tmp, path)
    _fsync_dir(path.parent)


# -- replay --------------------------------------------------------------------------


def replay_into(db: Database, units: Iterable[list[dict[str, Any]]]) -> int:
    """Apply committed redo units to *db*; returns statements replayed.

    Records are applied at the physical table layer (FK enforcement and
    cascades already ran before the records were written; replaying them
    through the statement API would double-apply cascade effects). Integer
    primary-key watermarks are advanced so id allocation never hands out a
    replayed id again. *units* may be a lazy iterable (recovery streams
    them from the log). Planner statistics of every table the replay
    writes are rebuilt once at the end, not maintained per replayed row.
    """
    applied = 0
    deferred: set[str] = set()
    try:
        for unit in units:
            for record in unit:
                name = record.get("table")
                if name is not None and name not in deferred and db.has_table(name):
                    deferred.add(name)
                    db.table(name).statistics = DEFERRED
                _apply_record(db, record)
                applied += 1
    finally:
        for name in deferred:
            if db.has_table(name):
                db.table(name).rebuild_statistics()
    return applied


def _apply_record(db: Database, record: dict[str, Any]) -> None:
    op = record.get("op")
    if op == "txn":
        return  # group-commit marker: replay metadata, not a statement
    try:
        if op == "insert":
            table = db.table(record["table"])
            rows = [_decode_row(r) for r in record["rows"]]
            table.insert_rows(rows)
            _bump_watermark(db, record["table"], (r[table.schema.primary_key] for r in rows))
        elif op == "update":
            _replay_update(db, record)
        elif op == "delete":
            db.table(record["table"]).delete_pks(
                [_decode_value(pk) for pk in record["pks"]]
            )
        elif op == "create_table":
            db.create_table(_schema_from_json(record["schema"]))
        elif op == "drop_table":
            db.drop_table(record["name"])
        else:
            raise WalCorruptionError(f"unknown redo op {op!r}")
    except WalCorruptionError:
        raise
    except StorageError as exc:
        raise WalCorruptionError(f"replaying {op} on {record.get('table')!r}: {exc}") from exc


def _replay_update(db: Database, record: dict[str, Any]) -> None:
    """Apply one update record's pk-keyed deltas, in logged order."""
    table = db.table(record["table"])
    pk_col = table.schema.primary_key
    updates = [
        (_decode_value(pk), table.coerce_changes(_decode_row(delta)))
        for pk, delta in record.get("deltas", ())
    ]
    if "set" in record:
        shared = table.coerce_changes(_decode_row(record["set"]))
        updates.extend((_decode_value(pk), shared) for pk in record["set_pks"])
    _bump_watermark(db, table.name, (delta.get(pk_col, pk) for pk, delta in updates))
    if any(pk_col in delta for _pk, delta in updates):
        # A renumbered row: update_by_pk re-keys it and keeps its rid.
        for pk, delta in updates:
            table.update_by_pk(pk, delta)
        return
    deltas = []
    for pk, delta in updates:
        rid = table.rid_of(pk)
        if rid is None:
            raise NoSuchRowError(f"{table.name}: no row with {pk_col}={pk!r}")
        deltas.append((rid, delta))
    table.apply_updates(deltas)


def _bump_watermark(db: Database, table: str, pks: Any) -> None:
    top = max((pk for pk in pks if isinstance(pk, int)), default=0)
    if top > db._id_watermark.get(table, 0):
        db._id_watermark[table] = top


# -- recovery / checkpoint / open ----------------------------------------------------


def default_wal_path(snapshot_path: str | Path) -> Any:
    path = fsio.as_path(snapshot_path)
    return path.with_name(path.name + ".wal")


def recover_database(
    snapshot_path: str | Path,
    wal_path: str | Path | None = None,
    verify: bool = True,
) -> Database:
    """Rebuild the database: last checkpoint snapshot + redo-log replay.

    Missing snapshot means the log started from an empty database (DDL
    records bootstrap the schema); a missing log means the snapshot alone
    is current. A torn log tail is discarded; mid-log corruption raises.

    Generation gate: the log replays only when its generation stamp
    matches the snapshot's. A *lower* stamp means the log's changes were
    already folded into the snapshot (a checkpoint or non-WAL rewrite
    crashed before discarding the log) — replaying them again would
    double-apply, so the stale log is skipped. A *higher* stamp means the
    snapshot the log was written against is gone: that is corruption.
    """
    from repro.storage.persist import load_database

    snapshot_path = fsio.as_path(snapshot_path)
    wal_path = (
        fsio.as_path(wal_path) if wal_path is not None else default_wal_path(snapshot_path)
    )
    snapshot_gen = read_snapshot_generation(snapshot_path)
    if snapshot_path.exists():
        db = load_database(snapshot_path, verify=False)
    else:
        db = Database(Schema())
    if wal_path.exists():
        # Committed units are applied as the scan seals them: recovery never
        # holds more than one decoded unit of the log.
        scan = _scan_log(wal_path.read_bytes(), wal_path)
        header = next(scan, None)
        wal_gen = header[0] if header is not None else 0
        units = (unit for _gen, unit, _end in scan)
        if wal_gen == snapshot_gen:
            replay_into(db, units)
        else:
            for _unit in units:
                pass  # still validated: mid-log damage raises either way
            if wal_gen > snapshot_gen:
                raise WalCorruptionError(
                    f"{wal_path}: log generation {wal_gen} is newer than snapshot "
                    f"generation {snapshot_gen}; its base snapshot is missing"
                )
            # wal_gen < snapshot_gen: already folded into the snapshot — skip.
    if verify:
        db.assert_integrity()
    return db


class WalDatabase:
    """A database opened in place: snapshot + live write-ahead log.

    Opening recovers the committed state, attaches the log to the
    database's redo hook, and from then on every committed statement costs
    O(changes) in the log instead of an O(database) snapshot rewrite.
    Call :meth:`checkpoint` to fold the log back into the snapshot, and
    :meth:`close` when done (flushes per the fsync policy).
    """

    def __init__(
        self,
        snapshot_path: str | Path,
        wal_path: str | Path | None = None,
        fsync: str = "batch",
        batch_commits: int = 8,
        verify: bool = True,
        sync_delay: float = 0.0,
        clock: Any = None,
        wal_cls: type["WriteAheadLog"] | None = None,
    ) -> None:
        self.snapshot_path = fsio.as_path(snapshot_path)
        self.wal_path = (
            fsio.as_path(wal_path)
            if wal_path is not None
            else default_wal_path(snapshot_path)
        )
        self.db = recover_database(self.snapshot_path, self.wal_path, verify=verify)
        self.wal = (wal_cls or WriteAheadLog)(
            self.wal_path,
            fsync=fsync,
            batch_commits=batch_commits,
            generation=read_snapshot_generation(self.snapshot_path),
            sync_delay=sync_delay,
            clock=clock,
        )
        self.db.set_redo_hook(self.wal)

    def checkpoint(self) -> None:
        """Durably snapshot the current state, then truncate the log.

        The snapshot is installed (atomically) with the generation bumped
        *before* the log is truncated: if we crash in between, the log's
        older stamp marks it as already-folded-in and recovery skips it.
        """
        if self.db.in_transaction:
            raise StorageError("cannot checkpoint inside an open transaction")
        self.wal.sync()
        new_generation = self.wal.generation + 1
        save_database_atomic(self.db, self.snapshot_path, generation=new_generation)
        self.wal.truncate(generation=new_generation)

    def close(self) -> None:
        self.db.set_redo_hook(None)
        self.wal.close()

    def __enter__(self) -> "WalDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


"""The durable stack every workload runs against, and its recovery.

Real files in a work directory inside the checkout; ``fsync="always"`` WAL
with no modelled ``sync_delay``; an encrypted file vault fsyncing every
append, every owner registered and unlocked; a service queue fsyncing every
transition; ``repro.obs`` tracing left disabled. Flush latency is whatever
the sandbox gives (see :func:`fsync_probe_ms`), never a modelled device.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.engine import Disguiser
from repro.crypto.cipher import SecretKey
from repro.service import DisguiseService
from repro.service.queue import DEAD, DONE, JobQueue
from repro.shard import (
    ShardedDisguiseService,
    ShardedVault,
    ShardGroupWal,
    replay_shard_logs,
    shard_database,
)
from repro.spec.disguise import DisguiseSpec
from repro.storage.database import Database
from repro.storage.persist import load_database, read_snapshot_generation, save_database
from repro.storage.wal import WalDatabase, WriteAheadLog, recover_database
from repro.vault.encrypted import EncryptedVault
from repro.vault.file_vault import FileVault

__all__ = [
    "Stack",
    "Recovered",
    "build",
    "digest",
    "engines_of",
    "fsync_probe_ms",
    "job_states",
    "process_bytes_written",
    "recover",
]


@dataclass
class Stack:
    """One assembled service over one database, plus what recovery needs."""

    workdir: Path
    seed: int
    shards: int                       # 0 = monolith
    spec: DisguiseSpec
    user_table: str
    uids: list[Any]
    db: Any                           # Database | ShardedDatabase
    wal: Any                          # WriteAheadLog | ShardGroupWal
    vault: EncryptedVault
    engine: Disguiser
    service: DisguiseService
    validate_s: float                 # engine.register(spec): spec validation
    _closers: list[Callable[[], None]] = field(default_factory=list)

    @property
    def queue(self) -> JobQueue:
        return self.service.queue

    def close(self) -> None:
        """Stop the service and close the logs — no checkpoint, so the next
        open has the whole run's WAL to replay."""
        self.service.shutdown()
        for closer in self._closers:
            closer()


def engines_of(db: Any) -> list[Database]:
    """The storage engines behind *db* (its shards, or itself)."""
    return list(getattr(db, "shards", None) or [db])


def _owner_key(seed: int, owner: Any) -> SecretKey:
    return SecretKey(hashlib.sha256(f"e2e-bench:{seed}:{owner}".encode()).digest())


def _vault(workdir: Path, seed: int, uids: list[Any], shard_map: Any = None) -> EncryptedVault:
    if shard_map is None:
        inner: Any = FileVault(workdir / "vault", sync_appends=True)
    else:
        inner = ShardedVault(
            [
                FileVault(workdir / f"vault-s{index}", sync_appends=True)
                for index in range(shard_map.n_shards)
            ],
            shard_map,
        )
    vault = EncryptedVault(inner)
    for uid in uids:
        key = _owner_key(seed, uid)
        vault.register_owner(uid, key)
        vault.unlock(uid, key)
    return vault


def build(
    workdir: Path,
    generate: Callable[[], Database],
    spec: DisguiseSpec,
    user_table: str,
    seed: int,
    workers: int,
    shards: int = 0,
) -> Stack:
    """Generate the data, snapshot it, and start the service over it."""
    workdir.mkdir(parents=True)
    snapshot = workdir / "db.jsonl"
    source = generate()
    pk = source.table(user_table).schema.primary_key
    uids = sorted(row[pk] for row in source.table(user_table).rows())
    save_database(source, snapshot)
    closers: list[Callable[[], None]] = []
    if shards:
        generation = read_snapshot_generation(snapshot)
        # The shard map stays in memory: persisting it from two committing
        # workers races in ShardMap.save and strands a committed disguise
        # without its vault entries (README finding 5). Placement is the
        # owner hash alone, so recovery rebuilds the same map.
        db: Any = shard_database(load_database(snapshot), shards, user_table=user_table)
        wal: Any = ShardGroupWal([
            WriteAheadLog(workdir / f"db.s{index}.wal", fsync="always",
                          generation=generation)
            for index in range(shards)
        ])
        db.set_redo_hook(wal)
        vault = _vault(workdir, seed, uids, db.shard_map)
        service_cls: Any = ShardedDisguiseService
        closers += [wal.close, db.close]
    else:
        handle = WalDatabase(snapshot, fsync="always")
        db, wal = handle.db, handle.wal
        vault = _vault(workdir, seed, uids)
        service_cls = DisguiseService
        closers.append(handle.close)
    engine = Disguiser(db, vault=vault, seed=seed)
    started = time.perf_counter()
    engine.register(spec)
    validate_s = time.perf_counter() - started
    # Eight attempts, not the default three: two sharded reveals homed on
    # different shards deadlock often enough that three in a row happens
    # (README finding 6), and a deadlock victim is supposed to retry.
    service = service_cls(
        engine, workdir / "queue.jobs", workers=workers, wal=wal,
        queue_fsync=True, max_attempts=8,
    )
    service.start()
    return Stack(
        workdir=workdir, seed=seed, shards=shards, spec=spec,
        user_table=user_table, uids=uids, db=db, wal=wal, vault=vault,
        engine=engine, service=service, validate_s=validate_s,
        _closers=closers,
    )


@dataclass
class Recovered:
    """What a restart after :meth:`Stack.close` finds on disk."""

    seconds: float
    db: Any
    queue: JobQueue
    engine: Disguiser

    def close(self) -> None:
        self.queue.close()
        close = getattr(self.db, "close", None)
        if close is not None:
            close()


def recover(stack: Stack) -> Recovered:
    """Reopen everything from the files alone, timing the whole restart:
    snapshot load + WAL replay, job-queue journal fold, and an engine
    constructed over the on-disk vault (which scans every owner's journal)."""
    workdir = stack.workdir
    snapshot = workdir / "db.jsonl"
    started = time.perf_counter()
    if stack.shards:
        generation = read_snapshot_generation(snapshot)
        db: Any = shard_database(
            load_database(snapshot), stack.shards, user_table=stack.user_table
        )
        replay_shard_logs(
            db.shards,
            [workdir / f"db.s{index}.wal" for index in range(stack.shards)],
            generation,
        )
        vault = _vault(workdir, stack.seed, stack.uids, db.shard_map)
    else:
        db = recover_database(snapshot)
        vault = _vault(workdir, stack.seed, stack.uids)
    queue = JobQueue(workdir / "queue.jobs")
    engine = Disguiser(db, vault=vault, seed=stack.seed)
    seconds = time.perf_counter() - started
    return Recovered(seconds=seconds, db=db, queue=queue, engine=engine)


def job_states(queue: JobQueue) -> tuple[int, int, list[str]]:
    """``(dead, unfinished, errors)`` over every job the queue knows;
    *errors* are the distinct messages of failed attempts, dead or retried."""
    dead = unfinished = 0
    errors: dict[str, None] = {}
    for job in sorted(queue.jobs(), key=lambda job: job.state != DEAD):
        if job.state == DEAD:
            dead += 1
        elif job.state != DONE:
            unfinished += 1
        if job.error:
            errors[f"{job.kind} {job.state} after {job.attempts}: {job.error}"] = None
    return dead, unfinished, list(errors)


def digest(db: Any, exclude: dict[str, set[Any]] | None = None) -> dict[str, str]:
    """Per-table content hash of the application tables.

    System tables (``_``-prefixed: disguise history, job bindings) are left
    out — they legitimately remember disguises that were applied and
    revealed. *exclude* names primary keys to skip per table (rows the
    application client inserted on purpose).
    """
    exclude = exclude or {}
    out: dict[str, str] = {}
    for name in sorted(schema.name for schema in db.schema):
        if name.startswith("_"):
            continue
        table = db.table(name)
        pk = table.schema.primary_key
        skip = exclude.get(name, ())
        rows = sorted(
            (repr(sorted(row.items())) for row in table.rows() if row[pk] not in skip)
        )
        out[name] = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return out


def fsync_probe_ms(workdir: Path, samples: int = 40) -> float:
    """Median latency of a 4 KiB append + fsync in the work directory."""
    path = workdir / "fsync.probe"
    block = b"\0" * 4096
    times = []
    with path.open("ab") as handle:
        for _ in range(samples):
            started = time.perf_counter()
            handle.write(block)
            handle.flush()
            os.fsync(handle.fileno())
            times.append(time.perf_counter() - started)
    path.unlink()
    return statistics.median(times) * 1e3


def process_bytes_written() -> int:
    """Bytes this process has passed to ``write`` so far (``/proc/self/io``).

    During a measured phase the only files written are the WAL, the vault
    journals (compaction rewrites included) and the queue journal, so the
    delta is the durable bytes the phase cost — counted by the kernel, with
    no wrapper in the way of the untraced run.
    """
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")

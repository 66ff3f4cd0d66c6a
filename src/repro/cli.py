"""Command-line disguising tool (paper Figure 1).

"Developers provide disguise specifications to an external disguising
tool, which computes the necessary database changes and applies them to
the application's database backend." This module is that external tool for
snapshot-backed databases: it loads the application database from a JSON
snapshot, keeps vaults in a directory (:class:`~repro.vault.FileVault`),
applies or reveals disguises, and journals the changes next to it.

Usage::

    python -m repro.cli apply   --db app.jsonl --vault-dir vaults \
                                --spec scrub.json --uid 19
    python -m repro.cli reveal  --db app.jsonl --vault-dir vaults \
                                --spec scrub.json --did 1
    python -m repro.cli explain --db app.jsonl --vault-dir vaults \
                                --spec scrub.json --uid 19
    python -m repro.cli history --db app.jsonl
    python -m repro.cli vault   --vault-dir vaults --owner 19
    python -m repro.cli check   --db app.jsonl
    python -m repro.cli checkpoint --db app.jsonl
    python -m repro.cli submit  --db app.jsonl apply --spec-name scrub --uid 19
    python -m repro.cli submit  --db app.jsonl reveal --did 1
    python -m repro.cli jobs    --db app.jsonl
    python -m repro.cli serve   --db app.jsonl --vault-dir vaults \
                                --spec scrub.json --workers 4
    python -m repro.cli serve   --db app.jsonl --vault-dir vaults \
                                --spec scrub.json --workers 4 --shards 4
    python -m repro.cli shards  --db app.jsonl
    python -m repro.cli shards  --db app.jsonl --owner 19 --migrate-to 2 \
                                --vault-dir vaults

``apply``, ``reveal`` and ``serve`` open the snapshot in place: they
append the disguise's changes to ``<db>.wal`` (O(changes); ``--fsync``
selects the durability/throughput trade-off) and leave the snapshot's
bytes alone. ``checkpoint`` is the only command that rewrites the
snapshot, folding the log back in. Every read command reads through a
pending log; ``explain`` and ``trace`` write to neither file.

``submit`` appends a request to the durable job queue (``<db>.jobs``)
without touching the database; ``serve`` starts the concurrent disguise
service (:mod:`repro.service`) over the snapshot, drains the queue with
``--workers`` worker threads under two-phase table locking, prints a
metrics report, and exits; ``jobs`` lists the queue. Apply submissions
name a spec by its registered name — resolution happens when ``serve``
runs with that spec's ``--spec`` document, and an unresolvable job
retries and dead-letters like any other failure.

``serve --shards N`` partitions the snapshot into N owner-hash shards
(:mod:`repro.shard`) for the run: each shard journals to its own WAL
(``<db>.s<i>.wal``) and keeps its own vault (``<vault-dir>/shard-<i>``),
owner-rooted jobs lock and fsync only their owner's home shard, and the
placement map persists at ``<db>.shardmap``. Shutdown folds the shards
back into the snapshot (an implicit checkpoint); a crash mid-run
recovers by re-partitioning the snapshot — placement is deterministic —
and replaying each shard's log. ``shards`` inspects the layout
(``--owner`` for one owner's placement) or, with ``--migrate-to``,
moves an owner's subtree between shards offline under the journaled
migration protocol of :mod:`repro.shard.rebalance`.

Exit status: 0 on success, 1 on a disguise/storage error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.engine import Disguiser
from repro.core.history import HISTORY_TABLE
from repro.errors import ReproError
from repro.service.executor import JOB_APPLY, JOB_EXPIRE, JOB_REVEAL
from repro.service.queue import JOB_STATES, JobQueue
from repro.service.server import DisguiseService, default_queue_path
from repro.spec.parser import spec_from_json
from repro.storage.persist import (
    load_database,
    read_snapshot_generation,
    save_database_atomic,
)
from repro.storage.wal import (
    FSYNC_POLICIES,
    WalDatabase,
    default_wal_path,
    recover_database,
)
from repro.vault.file_vault import FileVault

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Data disguising tool: apply/reveal privacy transformations "
        "on a snapshot-backed database.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p):
        p.add_argument("--db", required=True, help="application database snapshot (JSON lines)")

    def add_fsync(p):
        p.add_argument(
            "--fsync",
            choices=FSYNC_POLICIES,
            default="batch",
            help="WAL fsync policy: 'always' never loses an acked commit, "
            "'batch' groups syncs, 'never' leaves it to the OS (default: batch)",
        )

    def add_vault(p):
        p.add_argument("--vault-dir", required=True, help="vault directory (one file per user)")

    def add_specs(p):
        p.add_argument(
            "--spec",
            action="append",
            required=True,
            help="disguise spec JSON document (repeatable; all are registered)",
        )

    p_apply = sub.add_parser("apply", help="apply a disguise")
    add_db(p_apply)
    add_vault(p_apply)
    add_specs(p_apply)
    p_apply.add_argument("--name", help="disguise to apply (default: first --spec)")
    p_apply.add_argument("--uid", type=int, help="user id for $UID disguises")
    p_apply.add_argument("--irreversible", action="store_true", help="write no vault entries")
    p_apply.add_argument("--no-compose", action="store_true", help="disable vault recorrelation")
    p_apply.add_argument("--no-optimize", action="store_true", help="disable the redundancy optimizer")
    p_apply.add_argument("--check-integrity", action="store_true")
    add_fsync(p_apply)

    p_reveal = sub.add_parser("reveal", help="reverse a previously applied disguise")
    add_db(p_reveal)
    add_vault(p_reveal)
    add_specs(p_reveal)
    p_reveal.add_argument("--did", type=int, required=True, help="disguise id to reveal")
    p_reveal.add_argument("--check-integrity", action="store_true")
    add_fsync(p_reveal)

    p_explain = sub.add_parser("explain", help="dry-run: what would apply do?")
    add_db(p_explain)
    add_vault(p_explain)
    add_specs(p_explain)
    p_explain.add_argument("--name", help="disguise to explain (default: first --spec)")
    p_explain.add_argument("--uid", type=int)
    p_explain.add_argument("--no-optimize", action="store_true")

    p_history = sub.add_parser("history", help="show the disguise history log")
    add_db(p_history)

    p_vault = sub.add_parser("vault", help="inspect a user's vault")
    add_vault(p_vault)
    p_vault.add_argument("--owner", type=int, help="user id (omit for the global vault)")

    p_check = sub.add_parser("check", help="referential-integrity check")
    add_db(p_check)

    p_checkpoint = sub.add_parser(
        "checkpoint",
        help="fold <db>.wal back into the snapshot and truncate the log",
    )
    add_db(p_checkpoint)

    p_audit = sub.add_parser(
        "audit", help="DELF-style erasure audit: traces of a user after disguising"
    )
    add_db(p_audit)
    p_audit.add_argument("--user-table", required=True, help="the user/account table")
    p_audit.add_argument("--uid", type=int, required=True)
    p_audit.add_argument(
        "--identifier",
        action="append",
        default=[],
        help="known identifier string to grep for (repeatable)",
    )

    p_pii = sub.add_parser("scan-pii", help="sweep all text columns for PII-shaped values")
    add_db(p_pii)

    def add_queue(p):
        p.add_argument("--queue", help="job queue journal (default: <db>.jobs)")

    p_serve = sub.add_parser(
        "serve",
        help="start the concurrent disguise service and drain the job queue",
    )
    add_db(p_serve)
    add_vault(p_serve)
    add_specs(p_serve)
    add_queue(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    p_serve.add_argument(
        "--lock-timeout",
        type=float,
        default=10.0,
        help="seconds a job waits for a table lock before failing (default: 10)",
    )
    p_serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts before a job dead-letters (default: 3)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="give up draining after this many seconds (default: wait forever)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the database into N owner-hash shards for the run: "
        "per-shard WALs, per-shard vaults, owner-rooted jobs confined to "
        "one shard (default: 1, unsharded)",
    )
    add_fsync(p_serve)

    p_submit = sub.add_parser(
        "submit", help="append a job to the durable queue (no workers run)"
    )
    add_db(p_submit)
    add_queue(p_submit)
    sub_submit = p_submit.add_subparsers(dest="kind", required=True)
    ps_apply = sub_submit.add_parser("apply", help="queue a disguise application")
    ps_apply.add_argument(
        "--spec-name", required=True, help="registered name of the disguise spec"
    )
    ps_apply.add_argument("--uid", type=int, help="user id for $UID disguises")
    ps_apply.add_argument("--irreversible", action="store_true")
    ps_reveal = sub_submit.add_parser("reveal", help="queue a disguise reversal")
    ps_reveal.add_argument("--did", type=int, required=True, help="disguise id")
    ps_expire = sub_submit.add_parser("expire", help="queue a vault expiration")
    ps_expire.add_argument(
        "--epoch", type=int, required=True, help="drop vault entries older than this"
    )

    p_jobs = sub.add_parser("jobs", help="list the job queue")
    add_db(p_jobs)
    add_queue(p_jobs)
    p_jobs.add_argument(
        "--state",
        action="append",
        choices=JOB_STATES,
        help="only these states (repeatable; default: all)",
    )

    p_metrics = sub.add_parser(
        "metrics",
        help="print the database's metrics registry (dotted-name schema)",
    )
    add_db(p_metrics)
    p_metrics.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_shards = sub.add_parser(
        "shards",
        help="inspect or rebalance the owner-hash shard layout",
    )
    add_db(p_shards)
    p_shards.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count (default: read from <db>.shardmap)",
    )
    p_shards.add_argument(
        "--owner", type=int, help="show (or migrate) this owner's placement"
    )
    p_shards.add_argument(
        "--migrate-to",
        type=int,
        default=None,
        help="offline rebalance: move --owner's subtree onto this shard, "
        "flip the shard map, and checkpoint the snapshot",
    )
    p_shards.add_argument(
        "--vault-dir",
        help="vault directory; the owner's vault entries migrate with the rows",
    )
    p_shards.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_trace = sub.add_parser(
        "trace",
        help="dry-run a disguise with trace spans: apply against throwaway "
        "WAL/vault copies, print the span tree, persist nothing",
    )
    add_db(p_trace)
    add_specs(p_trace)
    p_trace.add_argument("--name", help="disguise to trace (default: first --spec)")
    p_trace.add_argument("--uid", type=int, help="user id for $UID disguises")
    p_trace.add_argument(
        "--json", action="store_true", help="emit spans as JSONL instead of a tree"
    )
    p_trace.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-op budget in milliseconds; over-budget statements and "
        "disguises are reported with their captured span trees",
    )

    p_simtest = sub.add_parser(
        "simtest",
        help="deterministic simulation: run seeded randomized workloads on "
        "an in-memory crash-consistency substrate and check recovery "
        "invariants (same seed replays the same run, byte for byte)",
    )
    p_simtest.add_argument(
        "--seed", type=int, default=None, help="run this one seed"
    )
    p_simtest.add_argument(
        "--seeds",
        default=None,
        help="half-open seed range A:B for a sweep (e.g. 0:200)",
    )
    p_simtest.add_argument(
        "--steps", type=int, default=300, help="scheduler steps per run"
    )
    p_simtest.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count (0 = monolithic WAL database)",
    )
    p_simtest.add_argument(
        "--workers", type=int, default=2, help="simulated service workers"
    )
    p_simtest.add_argument(
        "--app",
        choices=("lobsters", "hotcrp", "mixed"),
        default="mixed",
        help="workload spec family; 'mixed' alternates by seed parity",
    )
    p_simtest.add_argument(
        "--crashes",
        type=int,
        default=None,
        help="power cuts per run (default: the plan RNG decides)",
    )
    p_simtest.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default="batch",
        help="WAL fsync policy under simulation (default: batch)",
    )
    p_simtest.add_argument(
        "--fault-keep-all",
        type=float,
        default=0.5,
        metavar="P",
        help="probability a crash keeps all un-fsynced bytes; 0.0 tears "
        "every crash-caught append (default: 0.5)",
    )
    p_simtest.add_argument(
        "--shrink",
        action="store_true",
        help="on failure, delta-debug the plan to a minimal reproduction "
        "and print its trace",
    )
    p_simtest.add_argument(
        "--trace", action="store_true", help="print the full schedule trace"
    )
    p_simtest.add_argument(
        "--trace-file",
        default=None,
        help="write the failing run's trace (shrunken when --shrink) to "
        "this path as JSON",
    )

    return parser


def _read_db(args, verify: bool = True):
    """Load the snapshot for a read-only command, folding in a pending WAL."""
    if default_wal_path(args.db).exists():
        return recover_database(args.db, verify=verify)
    return load_database(args.db, verify=verify)


def _engine(args, db) -> Disguiser:
    engine = Disguiser(db, vault=FileVault(args.vault_dir))
    for spec_path in args.spec:
        document = Path(spec_path).read_text(encoding="utf-8")
        engine.register(spec_from_json(document))
    return engine


def _open_db(args, fsync: str = "batch") -> WalDatabase:
    """The database opened in place: committed changes append to
    ``<db>.wal``; only ``checkpoint`` rewrites the snapshot."""
    if not Path(args.db).exists() and not default_wal_path(args.db).exists():
        # Opening would start a log for an empty database beside a typo.
        raise ReproError(f"no database snapshot at {args.db}")
    return WalDatabase(args.db, fsync=fsync)


def _open_engine(args) -> tuple[Disguiser, WalDatabase]:
    """An engine over the database opened in place, plus its WAL handle."""
    handle = _open_db(args, args.fsync)
    try:
        return _engine(args, handle.db), handle
    except BaseException:
        handle.close()
        raise


def _spec_name(engine: Disguiser, args) -> str:
    if getattr(args, "name", None):
        return args.name
    first = Path(args.spec[0]).read_text(encoding="utf-8")
    return spec_from_json(first).name


def cmd_apply(args) -> int:
    engine, handle = _open_engine(args)
    with handle:
        name = _spec_name(engine, args)
        report = engine.apply(
            name,
            uid=args.uid,
            reversible=not args.irreversible,
            compose=not args.no_compose,
            optimize=not args.no_optimize,
            check_integrity=args.check_integrity,
        )
    print(report.summary())
    print(f"disguise id: {report.disguise_id}")
    return 0


def cmd_reveal(args) -> int:
    engine, handle = _open_engine(args)
    with handle:
        report = engine.reveal(args.did, check_integrity=args.check_integrity)
    print(report.summary())
    return 0


def cmd_explain(args) -> int:
    # A dry run: the engine works on an in-memory copy with no log attached.
    engine = _engine(args, _read_db(args))
    name = _spec_name(engine, args)
    plan = engine.explain(name, uid=args.uid, optimize=not args.no_optimize)
    print(plan.describe())
    return 0 if plan.is_applicable else 1


def cmd_history(args) -> int:
    db = _read_db(args)
    if not db.has_table(HISTORY_TABLE):
        print("no disguise history")
        return 0
    rows = sorted(db.select(HISTORY_TABLE), key=lambda r: r["did"])
    if not rows:
        print("no disguises applied")
        return 0
    print(f"{'did':>4}  {'name':24}  {'uid':>6}  {'active':6}  {'reversible':10}")
    for row in rows:
        print(
            f"{row['did']:>4}  {row['name']:24}  {str(row['uid'] or '-'):>6}  "
            f"{'yes' if row['active'] else 'no':6}  "
            f"{'yes' if row['reversible'] else 'no':10}"
        )
    return 0


def cmd_vault(args) -> int:
    vault = FileVault(args.vault_dir)
    owner = args.owner
    entries = vault.entries_for(owner)
    label = f"user {owner}" if owner is not None else "global vault"
    print(f"{len(entries)} entr(y/ies) for {label}")
    for entry in entries:
        print(
            json.dumps(
                {
                    "entry_id": entry.entry_id,
                    "disguise_id": entry.disguise_id,
                    "seq": entry.seq,
                    "table": entry.table,
                    "pk": entry.pk,
                    "op": entry.op,
                }
            )
        )
    return 0


def cmd_check(args) -> int:
    db = _read_db(args, verify=False)
    problems = db.check_integrity()
    if problems:
        for problem in problems:
            print(f"VIOLATION: {problem}")
        return 1
    print(f"ok: {db.total_rows()} rows, no dangling references")
    return 0


def cmd_audit(args) -> int:
    from repro.core.audit import audit_user_erasure

    db = _read_db(args, verify=False)
    findings = audit_user_erasure(
        db, args.user_table, args.uid, identifiers=args.identifier
    )
    if findings:
        for finding in findings:
            print(f"LEAK: {finding}")
        return 1
    print(f"clean: no traces of {args.user_table}.{args.uid}")
    return 0


def cmd_scan_pii(args) -> int:
    from repro.core.audit import scan_for_pii

    db = _read_db(args, verify=False)
    findings = scan_for_pii(db)
    if findings:
        for finding in findings:
            print(f"PII: {finding}")
        return 1
    print("clean: no PII-shaped values found")
    return 0


def _queue_path(args) -> Path:
    return Path(args.queue) if args.queue else default_queue_path(args.db)


def _shard_map_path(db_path: str | Path) -> Path:
    path = Path(db_path)
    return path.with_name(path.name + ".shardmap")


def _shard_wal_path(db_path: str | Path, index: int) -> Path:
    path = Path(db_path)
    return path.with_name(path.name + f".s{index}.wal")


def _open_sharded(args, n_shards: int):
    """Shard the snapshot and fold in any pending per-shard WALs.

    Partitioning is deterministic (sha256 owner tokens + the persisted
    shard map), so re-sharding the same snapshot reproduces the exact
    per-shard layout a crashed run journaled against — the shard WALs
    then replay as a group (multi-shard transactions all-or-nothing,
    torn ones scrubbed; see :func:`repro.shard.replay_shard_logs`).
    Stale logs (generation behind the snapshot's) were already folded in
    by a checkpoint and are skipped.
    """
    from repro.shard import replay_shard_logs, shard_database

    db = _read_db(args)
    generation = read_snapshot_generation(args.db)
    sdb = shard_database(db, n_shards, map_path=_shard_map_path(args.db))
    wal_paths = [_shard_wal_path(args.db, index) for index in range(n_shards)]
    replayed, next_txn = replay_shard_logs(sdb.shards, wal_paths, generation)
    if replayed == 0:
        # A fresh partition placed every non-overridden owner at its hash
        # home, so dirty flags carried over from the previous run (which
        # force owner-eq reads to scatter) no longer describe anything.
        # Replayed WAL records, by contrast, land rows wherever the
        # crashed run put them — then the flags must stay.
        sdb.shard_map.dirty.clear()
    return sdb, generation, next_txn


def _sharded_vault(args, sdb):
    from repro.shard import ShardedVault

    stores = [
        FileVault(Path(args.vault_dir) / f"shard-{index}")
        for index in range(sdb.n_shards)
    ]
    return ShardedVault(stores, sdb.shard_map)


def _checkpoint_sharded(args, sdb, generation: int) -> None:
    """Fold the sharded run back into the snapshot and retire shard logs.

    Same crash discipline as :meth:`WalDatabase.checkpoint`: the merged
    snapshot installs atomically with a bumped generation, so shard logs
    that survive a crash before the unlinks are recognized as already
    folded in (their generation is now stale) rather than replayed.
    """
    from repro.shard import collapse

    save_database_atomic(collapse(sdb), args.db, generation=generation + 1)
    for index in range(sdb.n_shards):
        _shard_wal_path(args.db, index).unlink(missing_ok=True)
    default_wal_path(args.db).unlink(missing_ok=True)
    if sdb.shard_map.path is not None:
        sdb.shard_map.save()


def _serve_sharded(args) -> int:
    from repro.shard import (
        ShardedDisguiseService,
        ShardGroupWal,
        recover_migration,
    )
    from repro.storage.wal import WriteAheadLog

    sdb, generation, next_txn = _open_sharded(args, args.shards)
    wals = [
        WriteAheadLog(
            _shard_wal_path(args.db, index),
            fsync=args.fsync,
            generation=generation,
        )
        for index in range(args.shards)
    ]
    group = ShardGroupWal(wals, next_txn=next_txn)
    sdb.set_redo_hook(group)
    vault = _sharded_vault(args, sdb)
    try:
        recover_migration(sdb, vault)
        engine = Disguiser(sdb, vault=vault)
        for spec_path in args.spec or []:
            document = Path(spec_path).read_text(encoding="utf-8")
            engine.register(spec_from_json(document))
        service = ShardedDisguiseService(
            engine,
            _queue_path(args),
            workers=args.workers,
            wal=group,
            lock_timeout=args.lock_timeout,
            max_attempts=args.max_attempts,
        )
        with service:
            drained = service.drain(timeout=args.drain_timeout)
    except BaseException:
        group.close()
        sdb.close()
        raise
    _checkpoint_sharded(args, sdb, generation)
    group.close()
    sdb.close()
    print(json.dumps(service.metrics(), indent=2, sort_keys=True))
    if not drained:
        print("warning: drain timed out with jobs still queued", file=sys.stderr)
        return 1
    dead = service.queue.counts()["dead"]
    if dead:
        print(f"warning: {dead} job(s) dead-lettered", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    if args.shards > 1:
        return _serve_sharded(args)
    engine, handle = _open_engine(args)
    with handle:
        service = DisguiseService(
            engine,
            _queue_path(args),
            workers=args.workers,
            wal=handle.wal,
            lock_timeout=args.lock_timeout,
            max_attempts=args.max_attempts,
        )
        with service:
            drained = service.drain(timeout=args.drain_timeout)
    print(json.dumps(service.metrics(), indent=2, sort_keys=True))
    if not drained:
        print("warning: drain timed out with jobs still queued", file=sys.stderr)
        return 1
    dead = service.queue.counts()["dead"]
    if dead:
        print(f"warning: {dead} job(s) dead-lettered", file=sys.stderr)
        return 1
    return 0


def cmd_submit(args) -> int:
    queue = JobQueue(_queue_path(args))
    try:
        if args.kind == "apply":
            job = queue.submit(
                JOB_APPLY,
                {
                    "spec": args.spec_name,
                    "uid": args.uid,
                    "reversible": not args.irreversible,
                },
            )
        elif args.kind == "reveal":
            job = queue.submit(JOB_REVEAL, {"did": args.did})
        else:
            job = queue.submit(JOB_EXPIRE, {"epoch": args.epoch})
    finally:
        queue.close()
    print(f"queued job {job.job_id}: {args.kind}")
    return 0


def cmd_jobs(args) -> int:
    path = _queue_path(args)
    if not path.exists():
        print("no job queue")
        return 0
    queue = JobQueue(path)
    try:
        jobs = queue.jobs(states=args.state)
    finally:
        queue.close()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(json.dumps(job.describe(), sort_keys=True))
    return 0


def cmd_metrics(args) -> int:
    db = _read_db(args, verify=False)
    data = db.metrics()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
        return 0
    width = max((len(name) for name in data), default=0)
    for name in sorted(data):
        print(f"{name:<{width}}  {data[name]}")
    return 0


def cmd_shards(args) -> int:
    from repro.shard import ShardMap, migrate_owner, owner_token, recover_migration

    map_path = _shard_map_path(args.db)
    n_shards = args.shards
    if n_shards is None:
        if not map_path.exists():
            raise ReproError(
                f"no shard map at {map_path}; pass --shards N to choose a layout"
            )
        n_shards = ShardMap.load(map_path).n_shards
    sdb, generation, _next_txn = _open_sharded(args, n_shards)
    vault = _sharded_vault(args, sdb) if args.vault_dir else None
    recovered = recover_migration(sdb, vault)
    if recovered is not None:
        print(
            f"recovered torn migration: owner {recovered['owner']} "
            f"rolled back to source shard",
            file=sys.stderr,
        )

    if args.migrate_to is not None:
        if args.owner is None:
            raise ReproError("--migrate-to needs --owner")
        summary = migrate_owner(sdb, args.owner, args.migrate_to, vault=vault)
        # The move is physical, not logical — collapse() is unchanged —
        # but checkpointing here retires any pending shard WALs so the
        # next serve re-partitions with the flipped map from a clean base.
        _checkpoint_sharded(args, sdb, generation)
        print(
            f"moved owner {args.owner} to shard {args.migrate_to}: "
            f"{summary['rows']} row(s), {summary['vault_entries']} vault entr(y/ies)"
        )
        return 0

    router = sdb.router
    shard_map = sdb.shard_map
    if args.owner is not None:
        root = router.analyzer.user_table
        info = {
            "owner": args.owner,
            "home_shard": shard_map.shard_of(args.owner),
            "clean": shard_map.is_clean(args.owner),
            "override": shard_map.overrides.get(owner_token(args.owner)),
            "present_on": [
                index
                for index in range(sdb.n_shards)
                if sdb.shards[index].table(root).rid_of(args.owner) is not None
            ],
        }
        if args.json:
            print(json.dumps(info, sort_keys=True))
        else:
            for key in ("owner", "home_shard", "clean", "override", "present_on"):
                print(f"{key}: {info[key]}")
        return 0

    placements = {
        ts.name: router.placement(ts.name).kind for ts in sdb.schema
    }
    report = {
        "shards": sdb.n_shards,
        "rows_per_shard": [shard.total_rows() for shard in sdb.shards],
        "dirty_owners": len(shard_map.dirty),
        "overrides": len(shard_map.overrides),
        "migrations_done": shard_map.migrations_done,
        "migration_in_flight": shard_map.migration,
        "placements": placements,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"{sdb.n_shards} shard(s), map at {map_path}")
    for index, rows in enumerate(report["rows_per_shard"]):
        print(f"  shard {index}: {rows} row(s)")
    print(
        f"dirty owners: {report['dirty_owners']}, "
        f"overrides: {report['overrides']}, "
        f"migrations done: {report['migrations_done']}"
    )
    if shard_map.migration is not None:
        print(f"migration in flight: {shard_map.migration}")
    width = max((len(name) for name in placements), default=0)
    for name in sorted(placements):
        print(f"  {name:<{width}}  {placements[name]}")
    return 0


def cmd_trace(args) -> int:
    import tempfile

    from repro.obs import disable_tracing, enable_tracing, render_spans, spans_to_jsonl
    from repro.storage.wal import WriteAheadLog

    db = _read_db(args)
    threshold = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    with tempfile.TemporaryDirectory() as tmp:
        # Every layer the apply would touch is attached for real — WAL with
        # per-commit fsync, file vault — but against throwaway files, and
        # the in-memory database is never written back: the span tree shows
        # the true shape and cost of the disguise without persisting it.
        wal = WriteAheadLog(Path(tmp) / "trace.wal", fsync="always")
        db.set_redo_hook(wal)
        engine = Disguiser(db, vault=FileVault(Path(tmp) / "vaults"))
        for spec_path in args.spec:
            document = Path(spec_path).read_text(encoding="utf-8")
            engine.register(spec_from_json(document))
        name = _spec_name(engine, args)
        tracer = enable_tracing(threshold)
        try:
            report = engine.apply(name, uid=args.uid)
        finally:
            disable_tracing()
            db.set_redo_hook(None)
            wal.close()
        roots = tracer.take()
        slow_ops = list(tracer.slow_ops)
    if args.json:
        print(spans_to_jsonl(roots))
    else:
        print(render_spans(roots))
        print(
            f"(dry run: disguise {report.disguise_id} traced, nothing persisted)"
        )
    for slow in slow_ops:
        print(slow.render(), file=sys.stderr)
    return 0


def _simtest_seeds(args) -> list[int]:
    if args.seeds is not None:
        lo, _, hi = args.seeds.partition(":")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise ReproError(f"--seeds wants A:B, got {args.seeds!r}") from None
        if stop <= start:
            raise ReproError(f"--seeds range {args.seeds!r} is empty")
        return list(range(start, stop))
    if args.seed is None:
        raise ReproError("simtest needs --seed N or --seeds A:B")
    return [args.seed]


def cmd_simtest(args) -> int:
    import json as _json

    from repro.simtest import SimConfig, run_sim, shrink_failure

    seeds = _simtest_seeds(args)
    failures = 0
    for seed in seeds:
        app = args.app
        if app == "mixed":
            app = "lobsters" if seed % 2 == 0 else "hotcrp"
        config = SimConfig(
            seed=seed,
            steps=args.steps,
            shards=args.shards,
            workers=args.workers,
            app=app,
            wal_fsync=args.fsync,
            crashes=args.crashes,
            fault_keep_all=args.fault_keep_all,
        )
        result = run_sim(config)
        print(result.report())
        if result.ok:
            if args.trace:
                for line in result.trace:
                    print(f"  | {line}")
            continue
        failures += 1
        plan, trace = result.plan, result.trace
        if args.shrink:
            shrunk = shrink_failure(config, result.plan)
            if shrunk is not None:
                plan, small = shrunk[0], shrunk[1]
                trace = small.trace
                print(
                    f"  shrunk: {len(result.plan.events)} -> "
                    f"{len(plan.events)} event(s), {plan.steps} step(s)"
                )
                for event in plan.events:
                    print(f"    @{event.at} {event.kind} {dict(event.payload)}")
        if args.trace or args.trace_file:
            dump = {
                "seed": seed,
                "app": app,
                "steps": plan.steps,
                "shards": args.shards,
                "workers": args.workers,
                "fsync": args.fsync,
                "events": [
                    {"at": e.at, "kind": e.kind, "payload": list(e.payload)}
                    for e in plan.events
                ],
                "violations": [str(v) for v in result.violations],
                "trace": trace,
            }
            if args.trace_file:
                target = args.trace_file
                if len(seeds) > 1:  # one file per failing seed in a sweep
                    target = f"{target}.seed{seed}"
                Path(target).write_text(
                    _json.dumps(dump, indent=2), encoding="utf-8"
                )
                print(f"  trace written to {target}")
            if args.trace:
                for line in trace:
                    print(f"  | {line}")
    if len(seeds) > 1:
        print(f"simtest: {len(seeds) - failures}/{len(seeds)} seed(s) OK")
    return 1 if failures else 0


def cmd_checkpoint(args) -> int:
    wal_path = default_wal_path(args.db)
    pending = wal_path.stat().st_size if wal_path.exists() else 0
    with _open_db(args) as handle:
        handle.checkpoint()
        rows = handle.db.total_rows()
    print(f"checkpointed {args.db}: {rows} rows, folded {pending} WAL byte(s)")
    return 0


_COMMANDS = {
    "apply": cmd_apply,
    "reveal": cmd_reveal,
    "explain": cmd_explain,
    "history": cmd_history,
    "vault": cmd_vault,
    "check": cmd_check,
    "checkpoint": cmd_checkpoint,
    "audit": cmd_audit,
    "scan-pii": cmd_scan_pii,
    "serve": cmd_serve,
    "shards": cmd_shards,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "simtest": cmd_simtest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Parallel disguise execution across shards.

Owner-rooted disguises are the payoff of owner-hash placement: a spec
whose footprint is anchored to ``$UID`` touches exactly one shard, so its
lock footprint is shard-local (``s{home}/<table>`` names) and its
durability cost is one group-commit barrier on that shard's WAL. K
service workers applying disguises for K different owners on different
shards never share a lock and never share an fsync queue — independent
owners scale out instead of serializing on one log.

Pieces:

* :class:`ShardGroupWal` — the redo hook a :class:`ShardedDatabase`
  accepts: one :class:`~repro.storage.wal.WriteAheadLog` per shard, with
  fan-out ``defer_sync``, group-commit markers that make multi-shard
  transactions atomic at replay (see :func:`replay_shard_logs`), and a
  ``commit_barrier()`` that makes every log's appended frontier durable
  (a log with nothing pending returns immediately).
* :class:`ShardedWorkerPool` — the executor subclass that computes a
  job's home shard from its uid, prelocks the footprint *on that shard
  only*, and runs the job under :meth:`ShardedDatabase.routing_bias` so
  rows the disguise creates (placeholder users) land on the shard whose
  locks the job already holds.
* :class:`ShardedDisguiseService` — :class:`DisguiseService` with the
  sharded pool substituted; everything else (queue, lock manager,
  metrics, drain/shutdown) is inherited unchanged.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import DisguiseError, ShardError
from repro.service.executor import JOB_APPLY, JOB_REVEAL, WorkerPool
from repro.service.locks import MODE_X, is_system_table
from repro.service.queue import Job
from repro.service.server import DisguiseService
from repro.shard.engine import ShardedDatabase, shard_lock_name
from repro.shard.router import (
    DIRECT,
    GLOBAL,
    ROOT,
    SYSTEM,
    Router,
)
from repro.simtest.clock import resolve_clock
from repro.spec.disguise import USER_PARAM, DisguiseSpec
from repro.storage.predicate import ColumnRef, Comparison, Param, conjuncts

__all__ = [
    "ShardGroupWal",
    "ShardedWorkerPool",
    "ShardedDisguiseService",
    "replay_shard_logs",
    "spec_owner_rooted",
]


def _pins_anchor_to_uid(pred: Any, anchor: str) -> bool:
    """True if a top-level conjunct is ``anchor = $UID``."""
    for node in conjuncts(pred):
        if not (isinstance(node, Comparison) and node.op == "="):
            continue
        left, right = node.left, node.right
        for col, other in ((left, right), (right, left)):
            if (
                isinstance(col, ColumnRef)
                and col.name == anchor
                and isinstance(other, Param)
                and other.name == USER_PARAM
            ):
                return True
    return False


def spec_owner_rooted(spec: DisguiseSpec, router: Router) -> bool:
    """Whether every statement of *spec* stays on the invoking owner's shard.

    True when each disguised table is owner-anchored (root or direct)
    and every transformation's predicate pins that table's **anchor
    column** to ``$UID`` — then applying for owner *u* only ever reads
    and writes rows placed on ``home(u)``, so the service can confine
    the job's lock footprint to that one shard. A single transformation
    predicated on some *other* user column (the GDPR spec's
    "decorrelate messages I authored", say) makes the spec cross-shard:
    those rows belong to other owners and live on other shards.
    """
    for table_disguise in spec.tables:
        placement = router.placement(table_disguise.table)
        if placement.kind not in (ROOT, DIRECT):
            return False
        anchor = placement.anchor
        for transformation in table_disguise.transformations:
            if not _pins_anchor_to_uid(transformation.pred, anchor):
                return False
    return True


class ShardGroupWal:
    """One write-ahead log per shard, presented as one redo hook group.

    A transaction that touched several shards appends one unit per
    shard — physically independent writes that a crash can tear apart
    (one shard's unit durable, another's lost), leaving a half-committed
    transaction no single log can detect. The group therefore stamps
    every multi-shard transaction with a marker record (``op: "txn"``,
    one id, the participant list) via :meth:`tag_commit`, and
    :func:`replay_shard_logs` replays only transactions whose units
    survived on *every* participant, scrubbing the rest.

    ``next_txn`` seeds the marker id counter; recovery passes
    ``max_txn + 1`` from the replayed logs so ids stay unique within a
    generation.
    """

    def __init__(self, wals: list[Any], clock: Any = None, next_txn: int = 1) -> None:
        if not wals:
            raise ShardError("a shard WAL group needs at least one log")
        self.wals = list(wals)
        self._clock = resolve_clock(clock)
        self._txn_mu = threading.Lock()
        self._next_txn = next_txn

    @property
    def defer_sync(self) -> bool:
        return all(getattr(wal, "defer_sync", False) for wal in self.wals)

    @defer_sync.setter
    def defer_sync(self, value: bool) -> None:
        # Thread-scoped on each inner WAL: only the calling thread's
        # commits defer; other committers keep their fsync policy.
        for wal in self.wals:
            wal.defer_sync = value

    def tag_commit(self) -> bool:
        """Stamp this thread's about-to-commit transaction with a marker.

        Called by :meth:`ShardedDatabase.commit` just before the shard
        commits append their units; returns whether a marker was
        stamped. Transactions confined to one shard need no marker — a
        single log's unit is already atomic.
        """
        participants = [
            index for index, wal in enumerate(self.wals) if wal.pending_records()
        ]
        if len(participants) <= 1:
            return False
        with self._txn_mu:
            txn_id = self._next_txn
            self._next_txn += 1
        marker = {"t": "stmt", "op": "txn", "id": txn_id, "shards": participants}
        for index in participants:
            self.wals[index].tag_transaction(marker)
        return True

    def commit_barrier(self) -> None:
        """Group-commit barrier: every appended unit on every log, durable.

        An ack must cover the acking thread's units on every log its
        transaction touched; syncing each log's full appended frontier
        is a superset of that and keeps group commit batching (one
        fsync retires everyone's pending units). A log whose frontier
        is already durable returns immediately.
        """
        self._clock.tick("shard.barrier")
        for wal in self.wals:
            wal.sync_appended()

    def sync(self) -> None:
        for wal in self.wals:
            wal.sync()

    def close(self) -> None:
        for wal in self.wals:
            wal.close()

    def truncate(self, generation: int | None = None) -> None:
        for wal in self.wals:
            wal.truncate(generation)

    def register_metrics(self, registry: Any, prefix: str = "wal") -> None:
        """Aggregate ``wal.*`` gauges over the per-shard logs."""

        def total(attr: str):
            return lambda: sum(getattr(wal, attr, 0) for wal in self.wals)

        registry.gauge(f"{prefix}.appends", total("commits_appended"))
        registry.gauge(f"{prefix}.fsyncs", total("syncs"))
        registry.gauge(f"{prefix}.bytes", total("bytes_written"))
        registry.gauge(f"{prefix}.logs", lambda: len(self.wals))


def _txn_marker(unit: list[dict[str, Any]]) -> dict[str, Any] | None:
    """The group-commit marker of a replay unit, if it carries one."""
    if unit and unit[0].get("op") == "txn":
        return unit[0]
    return None


def replay_shard_logs(
    shards: list[Any],
    wal_paths: list[Any],
    generation: int,
    *,
    scrub: bool = True,
) -> tuple[int, int]:
    """Replay per-shard WALs as a group; returns ``(replayed, next_txn)``.

    A multi-shard transaction appends one unit per participating shard,
    each stamped (by :meth:`ShardGroupWal.tag_commit`) with a marker
    naming the transaction id and the full participant set. A crash can
    make an arbitrary subset of those units durable; replaying each log
    independently would then resurrect half a transaction. Here a
    marked transaction is committed iff *every* shard in its
    participant list still holds its unit; units of torn transactions
    are dropped on the shards where they did survive.

    Dropping by presence (rather than cutting each log at the tear) is
    sound because :meth:`ShardedDatabase.commit` makes a multi-shard
    transaction durable on all participants *before releasing its
    locks* — a torn transaction never published its writes, so no
    surviving unit can depend on one.

    With ``scrub`` (the default), logs that lost units are atomically
    rewritten without them, so a later recovery of any single log
    cannot resurrect a dropped unit. Pass ``scrub=False`` for
    read-only checks against live logs.

    ``next_txn`` is one past the highest marker id seen anywhere
    (including dropped units) — seed :class:`ShardGroupWal` with it so
    fresh markers never collide with ids already in the logs.
    """
    from repro.storage.wal import WriteAheadLog, replay_into, rewrite_log

    if len(shards) != len(wal_paths):
        raise ShardError(
            f"{len(shards)} shards but {len(wal_paths)} WAL paths"
        )
    unit_lists: list[list[list[dict[str, Any]]]] = []
    live: list[bool] = []  # current-generation log present on disk?
    max_txn = 0
    present: dict[int, set[int]] = {}
    needed: dict[int, set[int]] = {}
    for index, path in enumerate(wal_paths):
        units: list[list[dict[str, Any]]] = []
        current = False
        if path is not None and path.exists():
            log_generation, read = WriteAheadLog.read_log(path)
            if log_generation == generation:
                units = read
                current = True
        for unit in units:
            marker = _txn_marker(unit)
            if marker is not None:
                txn_id = int(marker["id"])
                max_txn = max(max_txn, txn_id)
                present.setdefault(txn_id, set()).add(index)
                needed[txn_id] = set(int(s) for s in marker["shards"])
        unit_lists.append(units)
        live.append(current)

    torn = {
        txn_id for txn_id, shards_needed in needed.items()
        if not shards_needed <= present.get(txn_id, set())
    }

    replayed = 0
    for index, (shard, units) in enumerate(zip(shards, unit_lists)):
        survivors = [
            unit for unit in units
            if (marker := _txn_marker(unit)) is None
            or int(marker["id"]) not in torn
        ]
        if scrub and live[index] and len(survivors) < len(units):
            rewrite_log(wal_paths[index], generation, survivors)
        if survivors:
            replayed += replay_into(shard, survivors)
    return replayed, max_txn + 1


class ShardedWorkerPool(WorkerPool):
    """Worker pool whose prelocks and placement follow owner routing.

    Requires the pool's engines to sit over a :class:`ShardedDatabase`.
    Jobs with a uid prelock their footprint on the uid's home shard and
    run with a routing bias pinned there; global jobs (no uid, or a
    footprint containing global tables) prelock every shard's copy of
    the footprint, still in one globally sorted order.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._routing_tls = threading.local()

    def _sdb(self) -> ShardedDatabase:
        return self._engines[0].db

    def _job_routing(self, engine: Any, job: Job) -> tuple[int | None, bool]:
        """(home shard, owner-rooted?) for a job, best-effort.

        Lookup failures (unknown disguise id, unregistered spec) return
        the conservative ``(None, False)`` — the real dispatch raises
        the proper error afterwards.
        """
        payload = job.payload
        uid: Any = None
        spec = None
        try:
            if job.kind == JOB_APPLY:
                uid = payload.get("uid")
                spec = engine.spec(str(payload["spec"]))
            elif job.kind == JOB_REVEAL:
                record = engine.history.get(int(payload["did"]))
                uid = record.uid
                spec = engine.spec(record.name)
        except (DisguiseError, KeyError, ValueError):
            return None, False
        if uid is None or spec is None:
            return None, False
        router = self._sdb().router
        return router.home_shard(uid), spec_owner_rooted(spec, router)

    def _dispatch(self, engine: Any, job: Job, token: str) -> dict[str, Any]:
        home, rooted = self._job_routing(engine, job)
        # Thread-local: each worker's prelock must see its own job's home.
        self._routing_tls.home = home
        self._routing_tls.rooted = rooted
        sdb = self._sdb()
        try:
            if home is None:
                return super()._dispatch(engine, job, token)
            # Bias even cross-shard jobs: placeholder rows still land on
            # the shard most of the job's locks live on.
            with sdb.routing_bias(home):
                return super()._dispatch(engine, job, token)
        finally:
            self._routing_tls.home = None
            self._routing_tls.rooted = False

    def _prelock(self, token: str, tables: tuple[str, ...]) -> None:
        sdb = self._sdb()
        home = getattr(self._routing_tls, "home", None)
        rooted = getattr(self._routing_tls, "rooted", False)
        names: list[str] = []
        for table in tables:
            if is_system_table(table):
                continue  # latched per statement, never 2PL-prelocked
            kind = sdb.router.placement(table).kind
            if home is not None and rooted and kind not in (GLOBAL, SYSTEM):
                shard_indices: Any = (home,)
            else:
                # Cross-shard footprint: X-lock the table on every shard,
                # still in one globally sorted order — concurrent
                # cross-shard jobs serialize up front instead of
                # deadlocking in the middle.
                shard_indices = range(sdb.n_shards)
            names.extend(shard_lock_name(i, table) for i in shard_indices)
        for name in sorted(names):
            self.hook.manager.acquire(
                token, name, MODE_X, timeout=self.hook.timeout
            )


class ShardedDisguiseService(DisguiseService):
    """The disguise service over a sharded engine.

    Construct with a :class:`~repro.core.engine.Disguiser` whose ``db``
    is a :class:`ShardedDatabase` and (optionally) a
    :class:`ShardGroupWal` as ``wal``. Lock names are shard-qualified by
    the database's lock-hook adapter, so the inherited lock manager,
    deadlock detector, and metrics work unchanged.
    """

    _pool_class = ShardedWorkerPool

    def __init__(self, engine: Any, queue_path: Any, **kwargs: Any) -> None:
        if not isinstance(engine.db, ShardedDatabase):
            raise ShardError(
                "ShardedDisguiseService needs an engine over a ShardedDatabase"
            )
        super().__init__(engine, queue_path, **kwargs)

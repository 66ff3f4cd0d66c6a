"""The disguise service façade: submit / status / drain / shutdown.

:class:`DisguiseService` assembles the concurrency stack over one
database:

* a :class:`~repro.service.locks.LockManager` +
  :class:`~repro.service.locks.LockHook` attached to the database, so
  every statement any worker runs participates in two-phase locking;
* a :class:`~repro.service.queue.JobQueue` journaling requests durably;
* a :class:`~repro.service.executor.WorkerPool` of K engines sharing the
  database, vault, and history;
* when the database is WAL-backed, deferred group commit: workers release
  locks at commit and meet at a leader/follower fsync barrier.

The façade is what the CLI ``serve`` command and in-process embedders
use. It deliberately has no network listener — the paper's tool sits
*beside* the application, and a wire protocol would add nothing to what
this PR exercises (the job queue is the public boundary).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from repro.core.engine import Disguiser
from repro.errors import ServiceError
from repro.service.executor import JOB_APPLY, JOB_EXPIRE, JOB_REVEAL, WorkerPool
from repro.service.locks import LockHook, LockManager
from repro.service.queue import DONE, Job, JobQueue
from repro.simtest.clock import resolve_clock
from repro.spec.disguise import DisguiseSpec

__all__ = ["DisguiseService", "default_queue_path"]


def default_queue_path(snapshot_path: str | Path) -> Any:
    from repro.storage import fsio

    path = fsio.as_path(snapshot_path)
    return path.with_name(path.name + ".jobs")


class DisguiseService:
    """A concurrent disguise server over one database.

    ``engine`` supplies the shared database/vault/history; ``wal`` (a
    :class:`~repro.storage.wal.WriteAheadLog`, optional) enables the
    deferred group-commit path. The service owns the queue and the
    workers; the engine and its database remain owned by the caller —
    ``shutdown()`` detaches the lock hook and leaves both usable.
    """

    def __init__(
        self,
        engine: Disguiser,
        queue_path: str | Path,
        workers: int = 4,
        wal: Any = None,
        lock_timeout: float | None = 10.0,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        queue_fsync: bool = True,
        poll_interval: float = 0.05,
        clock: Any = None,
    ) -> None:
        self.engine = engine
        self.wal = wal
        self._clock = resolve_clock(clock)
        self.locks = LockManager(default_timeout=lock_timeout, clock=clock)
        self.hook = LockHook(self.locks, timeout=lock_timeout)
        self.queue = JobQueue(
            queue_path,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            fsync=queue_fsync,
            clock=clock,
        )
        self.pool = self._pool_class(
            self.queue,
            engine,
            self.hook,
            workers=workers,
            wal=wal,
            poll_interval=poll_interval,
            clock=clock,
        )
        self._started = False
        self._stopped = False

    #: Worker-pool implementation — subclasses (the sharded service)
    #: substitute a pool with different prelock/dispatch routing.
    _pool_class = WorkerPool

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "DisguiseService":
        if self._started:
            raise ServiceError("service already started")
        self.engine.db.set_lock_hook(self.hook)
        self._register_metrics(self.engine.db.obs)
        self.pool.start()
        self._started = True
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every queued job reaches DONE or DEAD."""
        return self.queue.wait_idle(timeout)

    def shutdown(self, timeout: float | None = 30.0) -> None:
        """Stop claiming, finish in-flight jobs, release everything."""
        if self._stopped:
            return
        self._stopped = True
        # Workers stop first, against a live queue: an in-flight job's
        # done-ack must land in the journal. Closing the queue before the
        # join would drop finishing jobs' acks (they would re-run after
        # restart) and make claims race a closed journal file.
        self.pool.stop(timeout)
        self.queue.close()          # stops claims; submit now fails
        if self.wal is not None:
            self.wal.sync()
        self.engine.db.set_lock_hook(None)

    def __enter__(self) -> "DisguiseService":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- submission --------------------------------------------------------------

    def register(self, specs: Iterable[DisguiseSpec]) -> None:
        for spec in specs:
            self.engine.register(spec)

    def submit_apply(
        self,
        spec: DisguiseSpec | str,
        uid: Any = None,
        reversible: bool = True,
        max_attempts: int | None = None,
    ) -> Job:
        name = spec if isinstance(spec, str) else spec.name
        self.engine.spec(name)  # fail fast on unregistered specs
        return self.queue.submit(
            JOB_APPLY,
            {"spec": name, "uid": uid, "reversible": reversible},
            max_attempts=max_attempts,
        )

    def submit_reveal(self, did: int, max_attempts: int | None = None) -> Job:
        return self.queue.submit(
            JOB_REVEAL, {"did": int(did)}, max_attempts=max_attempts
        )

    def submit_expire(self, epoch: int) -> Job:
        return self.queue.submit(JOB_EXPIRE, {"epoch": int(epoch)})

    # -- introspection -----------------------------------------------------------

    def status(self, job_id: int) -> dict[str, Any]:
        return self.queue.get(job_id).describe()

    def wait_for(self, job: Job | int, timeout: float | None = None) -> dict[str, Any]:
        """Block until one job finishes; returns its description."""
        job_id = job.job_id if isinstance(job, Job) else int(job)
        deadline = None if timeout is None else self._clock.monotonic() + timeout
        while True:
            described = self.status(job_id)
            if described["state"] in (DONE, "dead"):
                return described
            if deadline is not None and self._clock.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")
            self._clock.sleep(0.01)

    def _register_metrics(self, registry: Any) -> None:
        """Register ``service.*`` gauges over the pool/queue/lock state."""
        pool = self.pool
        clock = self._clock

        def jobs_per_s() -> float:
            elapsed = (
                clock.monotonic() - pool.started_at if pool.started_at else 0.0
            )
            return (pool.jobs_done / elapsed) if elapsed > 0 else 0.0

        registry.gauge("service.workers", lambda: pool.workers)
        registry.gauge("service.jobs_done", lambda: pool.jobs_done)
        registry.gauge("service.jobs_failed", lambda: pool.jobs_failed)
        registry.gauge("service.jobs_dead", lambda: pool.jobs_dead)
        registry.gauge("service.jobs_per_s", jobs_per_s)
        registry.gauge("service.queue_depth", self.queue.depth)
        registry.gauge("service.queue_counts", self.queue.counts)
        registry.gauge(
            "service.lock_acquisitions", lambda: self.locks.stats.acquisitions
        )
        registry.gauge("service.lock_waits", lambda: self.locks.stats.waits)
        registry.gauge(
            "service.lock_wait_s",
            lambda: round(self.locks.stats.wait_time_s, 6),
        )
        registry.gauge("service.deadlocks", lambda: self.locks.stats.deadlocks)
        registry.gauge("service.lock_timeouts", lambda: self.locks.stats.timeouts)
        registry.gauge(
            "service.job_p50_s",
            lambda: round(pool.latency.percentiles(50.0)[50.0], 6),
        )
        registry.gauge(
            "service.job_p99_s",
            lambda: round(pool.latency.percentiles(99.0)[99.0], 6),
        )

    def metrics(self) -> dict[str, Any]:
        """Service metrics snapshot: throughput, depth, waits, latency.

        The database's registry restricted to ``service.*`` and ``wal.*``.
        """
        if not self._started:
            # The gauges register at start(); a pre-start snapshot would
            # silently be empty, which no caller means to ask for.
            self._register_metrics(self.engine.db.obs)
        return self.engine.db.obs.snapshot(("service", "wal"))

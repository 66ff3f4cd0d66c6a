"""End-to-end service tests: stress, determinism, crash recovery, metrics.

The acceptance workload mirrors the paper's service framing: many users'
deletion (GDPR) and return (reveal) requests land on one Lobsters database
at once, and the service must keep referential integrity, lose no job, and
leave each user's data exactly as a serial execution would.
"""

import threading

import pytest

from repro.apps.lobsters import (
    LobstersPopulation,
    check_invariants,
    generate_lobsters,
    lobsters_gdpr,
)
from repro.core.engine import Disguiser
from repro.core.scheduler import ExpirationPolicy, PolicyScheduler, SimClock
from repro.errors import DisguiseError
from repro.service import DisguiseService
from repro.service.locks import LockHook, LockManager
from repro.storage.persist import save_database
from repro.storage.wal import WalDatabase, recover_database

from tests.conftest import blog_scrub_spec, make_blog_db


def app_rows(db):
    """Application-table contents, order-independent (system tables excluded)."""
    return {
        table: sorted(
            (tuple(sorted(row.items())) for row in db.select(table)), key=str
        )
        for table in db.table_names
        if not table.startswith("_")
    }


def blog_service(tmp_path, workers=2, **kw):
    engine = Disguiser(make_blog_db(), seed=1)
    engine.register(blog_scrub_spec())
    kw.setdefault("queue_fsync", False)
    return DisguiseService(engine, tmp_path / "q.jobs", workers=workers, **kw)


class TestServiceBasics:
    def test_apply_and_reveal_jobs(self, tmp_path):
        service = blog_service(tmp_path)
        baseline = app_rows(service.engine.db)
        with service:
            job = service.submit_apply("BlogScrub", uid=2)
            done = service.wait_for(job, timeout=30.0)
            assert done["state"] == "done"
            assert service.engine.db.get("users", 2) is None
            reveal = service.submit_reveal(done["result"]["did"])
            assert service.wait_for(reveal, timeout=30.0)["state"] == "done"
        assert app_rows(service.engine.db) == baseline
        assert service.engine.db.check_integrity() == []

    def test_submit_unregistered_spec_fails_fast(self, tmp_path):
        service = blog_service(tmp_path)
        with service:
            with pytest.raises(DisguiseError):
                service.submit_apply("NoSuchSpec", uid=1)
        assert service.queue.depth() == 0

    def test_failing_job_retries_then_dead_letters(self, tmp_path):
        service = blog_service(
            tmp_path, max_attempts=2, backoff_base=0.0
        )
        with service:
            job = service.submit_reveal(999)  # no such disguise: always fails
            described = service.wait_for(job, timeout=30.0)
        assert described["state"] == "dead"
        assert described["attempts"] == 2
        metrics = service.metrics()
        assert metrics["service.jobs_dead"] == 1
        assert metrics["service.jobs_failed"] == 2

    def test_shutdown_detaches_hook_and_leaves_engine_usable(self, tmp_path):
        service = blog_service(tmp_path)
        with service:
            service.submit_apply("BlogScrub", uid=3)
            assert service.drain(timeout=30.0)
        report = service.engine.apply("BlogScrub", uid=2)  # inline, post-service
        assert report.disguise_id > 0

    def test_metrics_shape(self, tmp_path):
        service = blog_service(tmp_path)
        with service:
            service.submit_apply("BlogScrub", uid=2)
            assert service.drain(timeout=30.0)
        metrics = service.metrics()
        assert metrics["service.workers"] == 2
        assert metrics["service.jobs_done"] == 1
        assert metrics["service.jobs_per_s"] > 0
        assert metrics["service.queue_depth"] == 0
        assert metrics["service.lock_acquisitions"] > 0
        assert metrics["service.job_p99_s"] >= metrics["service.job_p50_s"] >= 0


class TestLobstersStress:
    def test_mixed_workload_integrity_and_determinism(self, tmp_path):
        """≥200 mixed jobs on 4 workers: no loss, no violation, exact undo."""
        db = generate_lobsters(
            population=LobstersPopulation(users=50, stories=100, comments=250),
            seed=7,
        )
        uids = sorted(row["id"] for row in db.select("users"))
        baseline = app_rows(db)
        engine = Disguiser(db, seed=3)
        engine.register(lobsters_gdpr())
        service = DisguiseService(
            engine,
            tmp_path / "q.jobs",
            workers=4,
            queue_fsync=False,
            lock_timeout=120.0,
        )
        total = 0
        with service:
            for _ in range(2):
                applies = [
                    service.submit_apply("Lobsters-GDPR", uid=uid) for uid in uids
                ]
                assert service.drain(timeout=600.0)
                dids = []
                for job in applies:
                    described = service.status(job.job_id)
                    assert described["state"] == "done", described
                    dids.append(described["result"]["did"])
                reveals = [service.submit_reveal(did) for did in dids]
                assert service.drain(timeout=600.0)
                for job in reveals:
                    assert service.status(job.job_id)["state"] == "done"
                total += len(applies) + len(reveals)
        assert total >= 200
        counts = service.queue.counts()
        assert counts["done"] == total  # every job accounted for, none lost
        assert counts["dead"] == counts["pending"] == counts["running"] == 0
        # Jobs X-prelock their tables in sorted order: waits, never cycles.
        assert service.metrics()["service.deadlocks"] == 0
        assert check_invariants(db) == []
        assert db.check_integrity() == []
        # Disjoint users, apply-all then reveal-all: exact round trip.
        assert app_rows(db) == baseline


class TestCrashRecovery:
    def test_acked_jobs_stay_done_unacked_rerun(self, tmp_path):
        """Crash after WAL sync but before the queue ack: re-run is a no-op."""
        queue_path = tmp_path / "q.jobs"
        engine = Disguiser(make_blog_db(), seed=1)
        engine.register(blog_scrub_spec())
        baseline = app_rows(engine.db)
        service = DisguiseService(engine, queue_path, workers=2)
        with service:
            applies = [service.submit_apply("BlogScrub", uid=u) for u in (1, 2, 3)]
            assert service.drain(timeout=60.0)
            dids = [
                service.status(j.job_id)["result"]["did"] for j in applies
            ]
            reveals = [service.submit_reveal(did) for did in dids]
            assert service.drain(timeout=60.0)
        done_before = {
            j.job_id: service.status(j.job_id)["result"]
            for j in applies + reveals
        }

        # Crash simulation: the last journal line is the final reveal's ack;
        # dropping it re-creates "engine committed, queue ack lost".
        lines = queue_path.read_bytes().splitlines(keepends=True)
        assert b'"ev":"done"' in lines[-1]
        queue_path.write_bytes(b"".join(lines[:-1]))

        revived = DisguiseService(engine, queue_path, workers=2)
        assert revived.queue.requeued_on_recovery == 1
        # Every acked job survived the crash with its result intact.
        lost_id = next(
            j.job_id
            for j in reveals
            if revived.queue.get(j.job_id).state == "pending"
        )
        for job_id, result in done_before.items():
            if job_id != lost_id:
                described = revived.status(job_id)
                assert described["state"] == "done"
                assert described["result"] == result
        with revived:
            assert revived.drain(timeout=60.0)
        described = revived.status(lost_id)
        assert described["state"] == "done"
        # The disguise was already revealed before the crash: idempotent no-op.
        assert described["result"].get("noop") is True
        assert app_rows(engine.db) == baseline
        assert engine.db.check_integrity() == []


class TestSchedulerRouting:
    def test_policies_enqueue_and_resolve(self, tmp_path):
        activity = {1: 100.0, 2: 100.0}
        engine = Disguiser(make_blog_db(), seed=1)
        engine.register(blog_scrub_spec())
        clock = SimClock(0.0)
        service = DisguiseService(
            engine, tmp_path / "q.jobs", workers=2, queue_fsync=False
        )
        scheduler = PolicyScheduler(engine, clock, service=service)
        scheduler.add(
            ExpirationPolicy(
                "expire-idle",
                "BlogScrub",
                inactive_for=50.0,
                activity=lambda db: dict(activity),
            )
        )
        with service:
            clock.advance(200.0)  # both users idle for 100s
            actions = scheduler.tick()
            assert sorted(a.kind for a in actions) == ["enqueue-apply"] * 2
            assert scheduler.in_force("expire-idle", "BlogScrub", 1)
            assert scheduler.tick() == []  # in flight: no duplicate firing
            assert service.drain(timeout=60.0)
            assert engine.db.get("users", 1) is None

            activity[1] = 190.0  # user 1 returns (idle 10s < 50s)
            actions = scheduler.tick()
            assert [a.kind for a in actions] == ["enqueue-reveal"]
            assert actions[0].uid == 1
            assert not scheduler.in_force("expire-idle", "BlogScrub", 1)
            assert service.drain(timeout=60.0)
        assert engine.db.get("users", 1)["name"] == "Ada"
        assert engine.db.get("users", 2) is None  # still expired
        assert engine.db.check_integrity() == []

    def test_reveal_deferred_while_apply_in_flight(self, tmp_path):
        """A user returning before their apply job ran must not race it."""
        activity = {1: 100.0}
        engine = Disguiser(make_blog_db(), seed=1)
        engine.register(blog_scrub_spec())
        clock = SimClock(200.0)
        service = DisguiseService(
            engine, tmp_path / "q.jobs", workers=1, queue_fsync=False
        )
        scheduler = PolicyScheduler(engine, clock, service=service)
        scheduler.add(
            ExpirationPolicy(
                "expire-idle",
                "BlogScrub",
                inactive_for=50.0,
                activity=lambda db: dict(activity),
            )
        )
        # Workers are not started: the apply job stays queued.
        actions = scheduler.tick()
        assert [a.kind for a in actions] == ["enqueue-apply"]
        activity[1] = 199.0  # user returns while the job is still pending
        assert scheduler.tick() == []  # reveal deferred, stage still in force
        assert scheduler.in_force("expire-idle", "BlogScrub", 1)
        with service:
            assert service.drain(timeout=60.0)
            actions = scheduler.tick()  # now resolved: the reveal fires
            assert [a.kind for a in actions] == ["enqueue-reveal"]
            assert service.drain(timeout=60.0)
        assert engine.db.get("users", 1)["name"] == "Ada"


class TestConcurrencyPrimitives:
    def test_group_commit_shares_fsyncs(self, tmp_path):
        """Many threads' commits must ride fewer leader fsyncs."""
        snapshot = tmp_path / "db.jsonl"
        save_database(make_blog_db(), snapshot)
        handle = WalDatabase(snapshot, fsync="always", sync_delay=0.004)
        db, wal = handle.db, handle.wal
        db.set_lock_hook(LockHook(LockManager()))
        threads, per_thread = 8, 5
        barrier = threading.Barrier(threads)

        def worker(worker_id):
            wal.defer_sync = True  # per-thread: each committer opts in
            barrier.wait()
            for n in range(per_thread):
                db.begin()
                db.insert(
                    "follows",
                    {
                        "id": 5000 + worker_id * 100 + n,
                        "follower_id": 1,
                        "followee_id": 3,
                    },
                )
                db.commit()  # appends the unit, releases locks...
                wal.commit_barrier()  # ...then waits at the shared fsync

        pool = [
            threading.Thread(target=worker, args=(n,), daemon=True)
            for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60.0)
        total = threads * per_thread
        assert wal.commits_appended == total
        assert 0 < wal.syncs < total  # leaders fsynced for followers
        db.set_lock_hook(None)
        handle.close()
        recovered = recover_database(snapshot)
        assert len(recovered.select("follows")) == 2 + total

    def test_query_counters_exact_under_threads(self, tmp_path):
        db = make_blog_db()
        db.set_lock_hook(LockHook(LockManager()))

        def one_round(base_id):
            db.select("posts")
            db.count("users")
            db.insert(
                "follows",
                {"id": base_id, "follower_id": 1, "followee_id": 3},
            )
            db.delete_by_pk("follows", base_id)

        db.stats.reset()
        one_round(9000)
        unit = db.stats.snapshot()
        assert unit.total > 0 and unit.statements > 0

        db.stats.reset()
        threads, per_thread = 8, 25
        barrier = threading.Barrier(threads)

        def worker(worker_id):
            barrier.wait()
            for n in range(per_thread):
                one_round(10_000 + worker_id * 1000 + n)

        pool = [
            threading.Thread(target=worker, args=(n,), daemon=True)
            for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60.0)
        rounds = threads * per_thread
        assert db.stats.selects == unit.selects * rounds
        assert db.stats.inserts == unit.inserts * rounds
        assert db.stats.deletes == unit.deletes * rounds
        assert db.stats.statements == unit.statements * rounds
        db.set_lock_hook(None)


class TestShutdownOrdering:
    def test_shutdown_with_queued_jobs_keeps_acks_and_pending_jobs(self, tmp_path):
        """Shutdown before drain: the pool stops against a live queue.

        Regression for closing the queue before the worker join — finishing
        workers' done-acks then hit a closed journal, killing the threads
        and re-running acked jobs after restart. Now finished jobs stay
        DONE, unstarted ones stay PENDING, and a reopened service runs the
        remainder exactly once.
        """
        uids = (1, 2, 3)
        service = blog_service(tmp_path, workers=1)
        with service:
            jobs = [service.submit_apply("BlogScrub", uid=u) for u in uids]
            service.wait_for(jobs[0], timeout=30.0)
            # __exit__ shuts down with jobs still queued (the drain-timeout
            # -expired path of cmd_serve).
        counts = service.queue.counts()
        assert counts["running"] == counts["dead"] == counts["failed"] == 0
        assert counts["done"] >= 1
        assert counts["done"] + counts["pending"] == len(uids)

        revived = DisguiseService(
            service.engine, tmp_path / "q.jobs", workers=1, queue_fsync=False
        )
        with revived:
            assert revived.drain(timeout=60.0)
        for job in jobs:
            assert revived.status(job.job_id)["state"] == "done"
        # Exactly one application per user: nothing re-ran, nothing was lost.
        records = [
            r for r in service.engine.history.records() if r.name == "BlogScrub"
        ]
        assert sorted(r.uid for r in records) == sorted(uids)
        for uid in uids:
            assert service.engine.db.get("users", uid) is None
        assert service.engine.db.check_integrity() == []


class TestApplyDedupe:
    def test_apply_rerun_after_lost_ack_is_noop(self, tmp_path):
        """Crash between the WAL barrier and the queue ack must not apply
        the disguise a second time (duplicate history row, vault entries
        recorded over placeholder data)."""
        queue_path = tmp_path / "q.jobs"
        engine = Disguiser(make_blog_db(), seed=1)
        engine.register(blog_scrub_spec())
        baseline = app_rows(engine.db)
        service = DisguiseService(engine, queue_path, workers=1, queue_fsync=False)
        with service:
            job = service.submit_apply("BlogScrub", uid=2)
            done = service.wait_for(job, timeout=30.0)
        did = done["result"]["did"]
        history_rows = len(engine.history.records())
        vault_entries = len(engine.vault.entries_for(2))

        # Crash simulation: the apply committed durably, but its done-ack
        # never reached the queue journal.
        lines = queue_path.read_bytes().splitlines(keepends=True)
        assert b'"ev":"done"' in lines[-1]
        queue_path.write_bytes(b"".join(lines[:-1]))

        revived = DisguiseService(engine, queue_path, workers=1, queue_fsync=False)
        assert revived.queue.requeued_on_recovery == 1
        with revived:
            assert revived.drain(timeout=30.0)
        described = revived.status(job.job_id)
        assert described["state"] == "done"
        assert described["result"] == {"did": did, "noop": True}
        # First run's effects, and only them: one history row, no extra
        # vault entries, and the round trip still restores the baseline.
        assert len(engine.history.records()) == history_rows
        assert len(engine.vault.entries_for(2)) == vault_entries
        engine.reveal(did)
        assert app_rows(engine.db) == baseline
        assert engine.db.check_integrity() == []

"""The redesigned surfaces: every subsystem's counters read through the
registry, and a real disguise traces down to the WAL and vault leaves."""

import pytest

from repro.apps.lobsters import LobstersPopulation, generate_lobsters, lobsters_gdpr
from repro.core.engine import Disguiser
from repro.obs import disable_tracing, enable_tracing, TRACER
from repro.service.server import DisguiseService
from repro.storage.persist import save_database
from repro.storage.wal import WalDatabase
from repro.vault.file_vault import FileVault

from tests.conftest import make_blog_db


@pytest.fixture(autouse=True)
def _tracer_off():
    yield
    disable_tracing()
    TRACER.clear()


class TestLegacySurfacesResolveThroughRegistry:
    def test_database_metrics_view_carries_storage_and_plancache(self):
        db = make_blog_db()
        db.select("users")
        view = db.metrics()
        assert view["storage.selects"] == db.stats.selects
        assert view["storage.rows"] == db.total_rows()
        assert view["plancache.hits"] == db.plans.hits
        assert view["plancache.misses"] == db.plans.misses

    def test_wal_counters_surface_as_wal_gauges(self, tmp_path):
        snapshot = tmp_path / "app.jsonl"
        save_database(make_blog_db(), snapshot)
        with WalDatabase(snapshot, fsync="always") as handle:
            db = handle.db
            db.update_where("users", "id = 1", {"name": "x"})
            view = db.metrics()
            assert view["wal.appends"] == handle.wal.commits_appended > 0
            assert view["wal.fsyncs"] == handle.wal.syncs > 0
            assert view["wal.bytes_written"] == handle.wal.bytes_written > 0
            assert view["wal.unsynced_commits"] == 0  # fsync=always

    def test_vault_counters_surface_under_engine_database(self, tmp_path):
        db = make_blog_db()
        engine = Disguiser(db, vault=FileVault(tmp_path / "vaults"))
        from repro.spec.parser import spec_from_dict
        from tests.integration.test_cli import SCRUB_DOC

        engine.register(spec_from_dict(SCRUB_DOC))
        engine.apply("CliScrub", uid=2)
        view = db.metrics()
        assert view["vault.writes"] == engine.vault.stats.writes > 0
        assert view["vault.journal_appends"] == engine.vault.appends > 0
        assert view["vault.compactions"] == engine.vault.compactions

    def test_service_metrics_is_a_registry_view(self, tmp_path):
        db = make_blog_db()
        engine = Disguiser(db)
        service = DisguiseService(
            engine, tmp_path / "q.jobs", workers=2, queue_fsync=False
        )
        with service:
            metrics = service.metrics()
        assert metrics["service.workers"] == 2
        assert metrics["service.queue_depth"] == 0
        assert metrics["service.lock_wait_s"] >= 0.0
        # Only service.* and wal.* (no WAL attached here): no storage keys.
        assert all(name.startswith("service.") for name in metrics)

    def test_statement_latency_histogram_records_under_tracing(self):
        db = make_blog_db()
        enable_tracing()
        db.select("users")
        disable_tracing()
        snap = db.metrics()
        assert snap["storage.statement_s.count"] >= 1
        assert snap["storage.statement_s.sum"] > 0.0


class TestApplySpanTree:
    def test_lobsters_apply_traces_to_wal_and_vault_leaves(self, tmp_path):
        """Acceptance: a full apply yields one tree from disguise.apply
        down through per-table ops and statements to WAL/vault leaves."""
        snapshot = tmp_path / "app.jsonl"
        save_database(
            generate_lobsters(
                population=LobstersPopulation(users=20, stories=40, comments=80),
                seed=7,
            ),
            snapshot,
        )
        with WalDatabase(snapshot, fsync="always") as handle:
            engine = Disguiser(
                handle.db, vault=FileVault(tmp_path / "vaults")
            )
            engine.register(lobsters_gdpr())
            tracer = enable_tracing()
            try:
                report = engine.apply("Lobsters-GDPR", uid=3)
            finally:
                disable_tracing()
            roots = tracer.take()

        assert len(roots) == 1
        root = roots[0]
        assert root.name == "disguise.apply"
        assert root.attrs["spec"] == "Lobsters-GDPR"
        assert root.attrs["uid"] == 3
        assert root.attrs["did"] == report.disguise_id

        names = {span.name for span in root.walk()}
        # Ops...
        assert {"op.remove", "op.decorrelate"} <= names
        # ...statements...
        assert any(name.startswith("storage.") for name in names)
        # ...and the WAL and vault leaves.
        assert {"wal.append", "wal.fsync"} <= names
        assert "vault.put_many" in names
        assert "vault.journal_append" in names

        # Ops nest under the apply; statements nest under ops.
        op = root.find("op.decorrelate")
        assert op is not None and op.parent is root
        stmt = next(
            span for span in op.walk() if span.name.startswith("storage.")
        )
        assert stmt.attrs["table"]

        # The vault journal leaf hangs below the put that caused it.
        put = root.find("vault.put_many")
        assert put.find("vault.journal_append") is not None

    def test_reveal_traces_its_own_tree(self, tmp_path):
        db = make_blog_db()
        engine = Disguiser(db, vault=FileVault(tmp_path / "vaults"))
        from repro.spec.parser import spec_from_dict
        from tests.integration.test_cli import SCRUB_DOC

        engine.register(spec_from_dict(SCRUB_DOC))
        report = engine.apply("CliScrub", uid=2)
        tracer = enable_tracing()
        try:
            engine.reveal(report.disguise_id)
        finally:
            disable_tracing()
        roots = tracer.take()
        assert [root.name for root in roots] == ["disguise.reveal"]
        assert roots[0].attrs["did"] == report.disguise_id
        assert any(
            span.name.startswith("storage.") for span in roots[0].walk()
        )

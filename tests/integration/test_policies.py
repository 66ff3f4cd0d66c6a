"""Integration: expiration and decay policies over the HotCRP case study."""

import pytest

from repro import (
    DecayPolicy,
    DecayStage,
    Disguiser,
    ExpirationPolicy,
    PolicyScheduler,
    SimClock,
)
from repro.apps.hotcrp import (
    HotcrpPopulation,
    all_disguises,
    check_invariants,
    generate_hotcrp,
    user_activity,
)
from repro.core.exposure import measure_exposure


@pytest.fixture
def world():
    db = generate_hotcrp(
        population=HotcrpPopulation(users=20, pc_members=4, papers=12, reviews=36),
        seed=17,
    )
    engine = Disguiser(db, seed=6)
    for spec in all_disguises():
        engine.register(spec)
    clock = SimClock(start=100_000.0)
    scheduler = PolicyScheduler(engine, clock)
    return db, engine, clock, scheduler


class TestExpirationOnHotcrp:
    def test_inactive_users_scrubbed_and_restored_on_return(self, world):
        db, engine, clock, scheduler = world
        scheduler.add(
            ExpirationPolicy(
                "inactive-scrub",
                "HotCRP-GDPR+",
                inactive_for=150_000.0,
                activity=user_activity,
            )
        )
        assert scheduler.tick() == []  # nobody idle long enough yet
        clock.advance(200_000)
        actions = scheduler.tick()
        assert actions  # long-inactive users got scrubbed
        scrubbed = {a.uid for a in actions}
        for uid in scrubbed:
            assert db.get("ContactInfo", uid) is None
        assert check_invariants(db) == []
        # One scrubbed user returns: fake a fresh login signal.
        returning = sorted(scrubbed)[0]

        def activity_with_return(database):
            activity = dict(user_activity(database))
            activity[returning] = clock.now
            return activity

        scheduler._expirations[0].activity = activity_with_return
        actions = scheduler.tick()
        reveals = [a for a in actions if a.kind == "reveal"]
        assert [a.uid for a in reveals] == [returning]
        assert db.get("ContactInfo", returning) is not None
        assert check_invariants(db) == []


class TestDecayOnHotcrp:
    def test_two_stage_decay_composes(self, world):
        db, engine, clock, scheduler = world
        baseline = {uid: 100_000.0 for uid in (2, 3)}
        scheduler.add(
            DecayPolicy(
                "review-decay",
                stages=(
                    DecayStage(age=50_000.0, spec_name="HotCRP-GDPR+"),
                    DecayStage(age=90_000.0, spec_name="HotCRP-GDPR"),
                ),
                activity=lambda database: baseline,
            )
        )
        exposure = [measure_exposure(db, "ContactInfo").total]
        clock.advance(60_000)
        first = scheduler.tick()
        assert {(a.spec_name, a.uid) for a in first} == {
            ("HotCRP-GDPR+", 2), ("HotCRP-GDPR+", 3),
        }
        exposure.append(measure_exposure(db, "ContactInfo").total)
        reviews_mid = db.count("PaperReview")
        assert reviews_mid > 0  # stage 1 kept (decorrelated) reviews
        clock.advance(40_000)
        second = scheduler.tick()
        assert {(a.spec_name, a.uid) for a in second} == {
            ("HotCRP-GDPR", 2), ("HotCRP-GDPR", 3),
        }
        # stage 2 (hard GDPR) composed over stage 1, deleting the
        # previously decorrelated reviews via vault recorrelation
        assert db.count("PaperReview") < reviews_mid
        assert check_invariants(db) == []
        # What a breach would reveal falls with every decay stage.
        exposure.append(measure_exposure(db, "ContactInfo").total)
        assert exposure[0] > exposure[1] > exposure[2]

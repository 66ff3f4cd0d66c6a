"""Reveal phase 4: the in-memory pre-check changes cost, never outcome.

Phase 4 re-applies every other active disguise to the rows a reveal
restored. It first tests each disguise's predicates against those rows in
memory (``repro.core.reveal._selects_any``) and runs a disguise's spec
only when a predicate selects one of them. These tests hold that to
account:

* a differential over the blog schema and mini-HotCRP runs the same
  apply/reveal program twice — once as shipped, once with the pre-check
  forced to "always matches", so every disguise's spec runs — and
  requires identical tables, vault entries and history rows after every
  step;
* a HotCRP-GDPR reveal issues the same number of statements whether 10 or
  100 other disguises are outstanding.
"""

from __future__ import annotations

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import repro.core.reveal as reveal_mod
from repro import Disguiser

from tests.conftest import (
    blog_anon_spec,
    blog_delete_spec,
    blog_scrub_spec,
    examples,
    make_blog_db,
    make_mini_hotcrp,
)


def state(engine):
    """Every table (history and placeholder registry included) and every
    vault entry, in a comparable form."""
    db = engine.db
    tables = {
        name: sorted(repr(sorted(row.items())) for row in db.table(name).rows())
        for name in db.table_names
    }
    vault = sorted(entry.to_json() for entry in engine.vault.all_entries())
    return tables, vault


def always_matching():
    """Phase 4 without its pre-check: every other active disguise runs."""
    return patch.object(reveal_mod, "_selects_any", lambda *args, **kwargs: True)


def run_step(engine, step, active):
    """One program step; returns its outcome (disguise id or error type)."""
    kind, payload = step
    try:
        if kind == "apply":
            spec, uid, optimize = payload
            did = engine.apply(spec, uid=uid, optimize=optimize).disguise_id
            active.append(did)
            return ("applied", did)
        if not active:
            return ("idle",)
        did = active.pop(payload % len(active))
        engine.reveal(did)
        return ("revealed", did)
    except Exception as exc:  # both runs must fail alike
        return ("error", type(exc).__name__)


def assert_same_runs(build, program):
    """Run *program* on two fresh engines, with and without the pre-check,
    comparing outcome and full state after every step."""
    shipped, forced = build(), build()
    active_shipped: list[int] = []
    active_forced: list[int] = []
    for index, step in enumerate(program):
        got = run_step(shipped, step, active_shipped)
        with always_matching():
            want = run_step(forced, step, active_forced)
        assert got == want, f"step {index} {step}"
        assert state(shipped) == state(forced), f"after step {index} {step}"


def blog_engine():
    engine = Disguiser(make_blog_db(), seed=7)
    for spec in (blog_scrub_spec(), blog_delete_spec(), blog_anon_spec()):
        engine.register(spec)
    return engine


blog_programs = st.lists(
    st.one_of(
        st.tuples(
            st.just("apply"),
            st.tuples(
                st.sampled_from(["BlogScrub", "BlogDelete"]),
                st.sampled_from([1, 2, 3]),
                st.booleans(),
            ),
        ),
        st.tuples(st.just("apply"), st.tuples(st.just("BlogAnon"), st.none(), st.booleans())),
        st.tuples(st.just("reveal"), st.integers(0, 5)),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=examples(50), deadline=None)
@given(program=blog_programs)
def test_precheck_is_exact_on_blog(program):
    assert_same_runs(blog_engine, program)


def hotcrp_engine():
    return make_mini_hotcrp()[1]


# Two PC members, two authors; the mini conference numbers users from 1.
_HOTCRP_UIDS = [1, 2, 9, 17]

hotcrp_programs = st.lists(
    st.one_of(
        st.tuples(
            st.just("apply"),
            st.tuples(
                st.sampled_from(["HotCRP-GDPR", "HotCRP-GDPR+"]),
                st.sampled_from(_HOTCRP_UIDS),
                st.booleans(),
            ),
        ),
        st.tuples(
            st.just("apply"), st.tuples(st.just("HotCRP-ConfAnon"), st.none(), st.just(True))
        ),
        st.tuples(st.just("reveal"), st.integers(0, 4)),
    ),
    min_size=2,
    max_size=6,
)


@settings(max_examples=examples(15), deadline=None)
@given(program=hotcrp_programs)
def test_precheck_is_exact_on_mini_hotcrp(program):
    assert_same_runs(hotcrp_engine, program)


def test_precheck_skips_nonmatching_disguises(monkeypatch):
    """The differential is not vacuous: with other users' disguises
    outstanding the pre-check turns runs away, and a global disguise
    that covers the restored rows still runs."""
    calls = {"checked": 0, "ran": 0}
    real = reveal_mod._selects_any

    def counting(*args, **kwargs):
        calls["checked"] += 1
        selected = real(*args, **kwargs)
        calls["ran"] += int(selected)
        return selected

    monkeypatch.setattr(reveal_mod, "_selects_any", counting)
    engine = hotcrp_engine()
    for uid in (2, 9, 17):
        engine.apply("HotCRP-GDPR", uid=uid)
    engine.apply("HotCRP-ConfAnon")
    did = engine.apply("HotCRP-GDPR", uid=1).disguise_id
    engine.reveal(did)
    assert calls == {"checked": 4, "ran": 1}  # only ConfAnon covers user 1's rows


def _reveal_statements(others: int) -> int:
    """Statements of one HotCRP-GDPR reveal beside *others* outstanding
    GDPR disguises of users with an account and nothing else, so theirs
    cannot touch the revealed user's rows."""
    db, engine = make_mini_hotcrp()
    target = 1
    template = dict(db.get("ContactInfo", target))
    for _ in range(others):
        uid = db.next_id("ContactInfo")
        db.insert("ContactInfo", {**template, "contactId": uid, "email": f"u{uid}@x.io"})
        engine.apply("HotCRP-GDPR", uid=uid)
    did = engine.apply("HotCRP-GDPR", uid=target).disguise_id
    report = engine.reveal(did)
    assert report.rows_reinserted > 10
    return report.db_stats.statements


def test_reveal_statements_do_not_grow_with_outstanding_disguises():
    """A HotCRP-GDPR reveal issues the same statements beside 10 or 100
    other outstanding disguises."""
    few, many = _reveal_statements(10), _reveal_statements(100)
    assert few == many


def test_precheck_sees_what_earlier_runs_wrote():
    """A disguise run in phase 4 can make a restored row selectable by a
    later one: here redacting a name makes the row match a disguise that
    nulls the email of redacted accounts. The pre-check must test the
    rows as that run left them."""
    from repro import DisguiseSpec, Modify, TableDisguise, named_modifier

    def build():
        engine = blog_engine()
        redact, redact_label = named_modifier("redact")
        null, null_label = named_modifier("null")
        engine.register(DisguiseSpec("Redact", [TableDisguise(
            "users", transformations=[Modify("TRUE", column="name", fn=redact, label=redact_label)],
        )]))
        engine.register(DisguiseSpec("ForgetRedacted", [TableDisguise(
            "users", transformations=[
                Modify("name = '[redacted]'", column="email", fn=null, label=null_label)
            ],
        )]))
        return engine

    program = [
        ("apply", ("BlogScrub", 1, True)),
        ("apply", ("Redact", None, True)),
        ("apply", ("ForgetRedacted", None, True)),
        ("reveal", 0),
    ]
    assert_same_runs(build, program)
    shipped = build()
    active: list[int] = []
    for step in program:
        run_step(shipped, step, active)
    assert shipped.db.get("users", 1)["email"] is None

"""Shared fixtures: a small blog-like schema and a mini HotCRP instance."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import Database, Disguiser, Schema, parse_schema
from repro.apps.hotcrp import HotcrpPopulation, all_disguises, generate_hotcrp

# The nightly CI run loads this profile (`--hypothesis-profile=nightly`);
# property tests that size themselves with `examples()` then run 20x the
# examples they run in tier-1.
settings.register_profile(
    "nightly", max_examples=20 * settings.get_profile("default").max_examples
)


def examples(tier1: int) -> int:
    """*tier1* examples, scaled by the loaded profile's example budget."""
    return tier1 * settings().max_examples // settings.get_profile("default").max_examples

BLOG_DDL = """
CREATE TABLE users (
  id INT PRIMARY KEY,
  name TEXT PII,
  email TEXT PII,
  disabled BOOL NOT NULL DEFAULT FALSE,
  last_login DATETIME
);
CREATE TABLE posts (
  id INT PRIMARY KEY,
  user_id INT NOT NULL REFERENCES users(id),
  title TEXT NOT NULL,
  body TEXT,
  score INT NOT NULL DEFAULT 0
);
CREATE TABLE comments (
  id INT PRIMARY KEY,
  post_id INT NOT NULL REFERENCES posts(id) ON DELETE CASCADE,
  user_id INT NOT NULL REFERENCES users(id),
  body TEXT
);
CREATE TABLE follows (
  id INT PRIMARY KEY,
  follower_id INT NOT NULL REFERENCES users(id),
  followee_id INT NOT NULL REFERENCES users(id)
);
"""


def make_blog_db() -> Database:
    """A small populated blog database (3 users, 4 posts, comments)."""
    db = Database(Schema(parse_schema(BLOG_DDL)))
    users = [
        {"id": 1, "name": "Ada", "email": "ada@x.io", "last_login": 100.0},
        {"id": 2, "name": "Bea", "email": "bea@x.io", "last_login": 200.0},
        {"id": 3, "name": "Cal", "email": "cal@x.io", "last_login": 300.0},
    ]
    for user in users:
        db.insert("users", user)
    posts = [
        {"id": 10, "user_id": 1, "title": "p1", "body": "ada post", "score": 5},
        {"id": 11, "user_id": 2, "title": "p2", "body": "bea post", "score": 3},
        {"id": 12, "user_id": 2, "title": "p3", "body": "bea again", "score": 0},
        {"id": 13, "user_id": 3, "title": "p4", "body": "cal post", "score": 9},
    ]
    for post in posts:
        db.insert("posts", post)
    comments = [
        {"id": 100, "post_id": 10, "user_id": 2, "body": "nice"},
        {"id": 101, "post_id": 11, "user_id": 1, "body": "thanks"},
        {"id": 102, "post_id": 11, "user_id": 3, "body": "+1"},
        {"id": 103, "post_id": 13, "user_id": 2, "body": "hm"},
    ]
    for comment in comments:
        db.insert("comments", comment)
    db.insert("follows", {"id": 1000, "follower_id": 1, "followee_id": 2})
    db.insert("follows", {"id": 1001, "follower_id": 2, "followee_id": 3})
    db.stats.reset()
    return db


@pytest.fixture
def blog_db() -> Database:
    return make_blog_db()


def blog_scrub_spec():
    """User scrubbing for the blog app: remove account, decorrelate posts
    and comments, drop follow edges."""
    from repro import Decorrelate, Default, DisguiseSpec, FakeName, Remove, TableDisguise

    return DisguiseSpec(
        "BlogScrub",
        [
            TableDisguise(
                "users",
                transformations=[Remove("id = $UID")],
                generate_placeholder={
                    "name": FakeName(),
                    "email": Default(None),
                    "disabled": Default(True),
                },
            ),
            TableDisguise(
                "posts",
                transformations=[Decorrelate("user_id = $UID", foreign_key="user_id")],
            ),
            TableDisguise(
                "comments",
                transformations=[Decorrelate("user_id = $UID", foreign_key="user_id")],
            ),
            TableDisguise(
                "follows",
                transformations=[Remove("follower_id = $UID OR followee_id = $UID")],
            ),
        ],
    )


def blog_delete_spec():
    """Hard deletion: remove the user and everything they wrote."""
    from repro import DisguiseSpec, Remove, TableDisguise

    return DisguiseSpec(
        "BlogDelete",
        [
            TableDisguise("users", transformations=[Remove("id = $UID")]),
            TableDisguise("posts", transformations=[Remove("user_id = $UID")]),
            TableDisguise("comments", transformations=[Remove("user_id = $UID")]),
            TableDisguise(
                "follows",
                transformations=[Remove("follower_id = $UID OR followee_id = $UID")],
            ),
        ],
    )


def blog_anon_spec():
    """Global anonymization: redact names, decorrelate all posts."""
    from repro import (
        Default,
        DisguiseSpec,
        FakeName,
        Modify,
        Decorrelate,
        TableDisguise,
        named_modifier,
    )

    redact, redact_label = named_modifier("redact")
    return DisguiseSpec(
        "BlogAnon",
        [
            TableDisguise(
                "users",
                owner_column="id",
                transformations=[
                    Modify("TRUE", column="name", fn=redact, label=redact_label),
                    Modify("TRUE", column="email", fn=named_modifier("null")[0], label="null"),
                ],
                generate_placeholder={
                    "name": FakeName(),
                    "email": Default(None),
                    "disabled": Default(True),
                },
            ),
            TableDisguise(
                "posts",
                owner_column="user_id",
                transformations=[Decorrelate("TRUE", foreign_key="user_id")],
            ),
        ],
    )


def make_mini_hotcrp() -> tuple[Database, Disguiser]:
    """A small HotCRP conference with all three disguises registered."""
    db = generate_hotcrp(
        population=HotcrpPopulation(users=40, pc_members=6, papers=30, reviews=90),
        seed=3,
    )
    engine = Disguiser(db, seed=1)
    for spec in all_disguises():
        engine.register(spec)
    return db, engine


@pytest.fixture
def mini_hotcrp() -> tuple[Database, Disguiser]:
    return make_mini_hotcrp()

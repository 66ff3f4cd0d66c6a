"""Disguise specs the benchmark needs that the apps package does not ship."""

from __future__ import annotations

from repro.spec.disguise import DisguiseSpec, TableDisguise
from repro.spec.generate import Default, FakeName
from repro.spec.transform import Decorrelate, Modify, Remove, named_modifier

__all__ = ["lobsters_gdpr_rooted"]


def lobsters_gdpr_rooted() -> DisguiseSpec:
    """Lobsters GDPR scrub restricted to owner-anchored statements.

    ``lobsters_gdpr`` deletes the account row, which touches RESTRICT edges
    owned by *other* users (invitations, moderations), so it cannot stay on
    the owner's home shard. This variant scrubs the account in place and
    pins every other statement to ``<anchor> = $UID`` — the shape
    ``spec_owner_rooted`` accepts, and the one the sharded service locks
    and commits on a single shard.
    """
    null, label = named_modifier("null")

    def anchored_remove(table: str, column: str = "user_id") -> TableDisguise:
        return TableDisguise(table, transformations=[Remove(f"{column} = $UID")])

    def anchored_decorrelate(table: str) -> TableDisguise:
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
            anchored_decorrelate("stories"),
            anchored_decorrelate("comments"),
            anchored_remove("votes"),
            anchored_remove("saved_stories"),
            anchored_remove("hidden_stories"),
            anchored_remove("read_ribbons"),
            anchored_remove("messages", "recipient_user_id"),
        ],
    )

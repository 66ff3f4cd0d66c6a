"""Integration: the engine across vault deployment models (paper §4.2)."""

import pytest

from repro import Database, Disguiser
from repro.apps.hotcrp import (
    HotcrpPopulation,
    all_disguises,
    check_invariants,
    generate_hotcrp,
)
from repro.crypto.threshold import escrow_key
from repro.crypto.cipher import SecretKey
from repro.errors import DisguiseError, VaultError
from repro.vault import (
    EncryptedVault,
    FileVault,
    MemoryVault,
    MultiTierVault,
    TableVault,
)


def small_conference():
    return generate_hotcrp(
        population=HotcrpPopulation(users=25, pc_members=4, papers=15, reviews=45),
        seed=21,
    )


def engine_with(vault):
    db = small_conference()
    engine = Disguiser(db, vault=vault, seed=3)
    for spec in all_disguises():
        engine.register(spec)
    return db, engine


class TestAcrossDeployments:
    @pytest.mark.parametrize(
        "vault_factory",
        [
            lambda tmp: MemoryVault(),
            lambda tmp: TableVault(),
            lambda tmp: TableVault(Database()),
            lambda tmp: FileVault(tmp / "vaults"),
            lambda tmp: MultiTierVault(MemoryVault(), MemoryVault()),
        ],
        ids=["memory", "table", "table-own-db", "file", "multitier"],
    )
    def test_apply_and_reveal(self, vault_factory, tmp_path):
        db, engine = engine_with(vault_factory(tmp_path))
        report = engine.apply("HotCRP-GDPR+", uid=2)
        assert db.get("ContactInfo", 2) is None
        reveal = engine.reveal(report.disguise_id, check_integrity=True)
        assert db.get("ContactInfo", 2) is not None
        assert check_invariants(db) == []
        # Every backend yields the same logical outcome: all that was
        # vaulted, and nothing else, is consumed by the reveal.
        assert reveal.entries_consumed == report.vault_entries_written > 0


class TestEncryptedDeployment:
    def test_user_key_gates_reveal(self, tmp_path):
        vault = EncryptedVault(MemoryVault())
        key = vault.register_owner(2)
        db, engine = engine_with(vault)
        report = engine.apply("HotCRP-GDPR+", uid=2)  # writing needs no unlock
        with pytest.raises(VaultError):
            engine.reveal(report.disguise_id)  # reading does
        vault.unlock(2, key)
        reveal = engine.reveal(report.disguise_id, check_integrity=True)
        assert db.get("ContactInfo", 2) is not None
        assert reveal.entries_consumed == report.vault_entries_written > 0

    def test_escrow_recovers_lost_key(self):
        vault = EncryptedVault(MemoryVault())
        key = SecretKey.generate()
        vault.register_owner(2, key=key, escrow=escrow_key(key))
        db, engine = engine_with(vault)
        report = engine.apply("HotCRP-GDPR+", uid=2)
        vault.lock(2)
        del key  # the user lost it (footnote 1's scenario)
        vault.unlock_via_escrow(2, "app", "third_party")
        reveal = engine.reveal(report.disguise_id, check_integrity=True)
        assert db.get("ContactInfo", 2) is not None
        assert reveal.entries_consumed == report.vault_entries_written > 0

    def test_composition_requires_unlock_under_full_encryption(self):
        """With the user's prior disguise in an encrypted vault, composing a
        second disguise for them needs their key — the tension §4.2's
        multi-tier design resolves."""
        vault = EncryptedVault(MemoryVault())
        key = vault.register_owner(2)
        db, engine = engine_with(vault)
        engine.apply("HotCRP-GDPR+", uid=2)
        with pytest.raises(VaultError):
            engine.apply("HotCRP-GDPR", uid=2)  # compose reads the vault
        vault.unlock(2, key)
        engine.apply("HotCRP-GDPR", uid=2)


class TestMultiTierDeployment:
    def test_paper_layout(self):
        """First tier: global vault, tool-accessible. Second tier: per-user
        encrypted vaults for user-invoked disguises."""
        user_tier = EncryptedVault(MemoryVault())
        vault = MultiTierVault(user_tier, MemoryVault())
        for uid in range(1, 26):
            user_tier.register_owner(uid)
        db, engine = engine_with(vault)
        # ConfAnon (automatic) entries land in the accessible tier...
        engine.apply("HotCRP-ConfAnon")
        assert vault.shared_entries_for(2)
        # ...so composing a user's GDPR+ on top needs NO user key:
        report = engine.apply("HotCRP-GDPR+", uid=2, optimize=False)
        assert report.recorrelated > 0
        assert check_invariants(db) == []

    def test_global_reveal_infeasible_with_locked_user_tier(self):
        """Complete reversal of a user-invoked disguise class across all
        users' locked vaults fails — the §4.2 infeasibility argument."""
        user_tier = EncryptedVault(MemoryVault())
        vault = MultiTierVault(user_tier, MemoryVault())
        user_tier.register_owner(2)
        db, engine = engine_with(vault)
        report = engine.apply("HotCRP-GDPR+", uid=2)
        with pytest.raises(VaultError):
            engine.reveal(report.disguise_id)


class TestExpiry:
    def test_expired_disguise_becomes_irreversible(self):
        db, engine = engine_with(MemoryVault())
        r1 = engine.apply("HotCRP-GDPR+", uid=2)
        r2 = engine.apply("HotCRP-GDPR+", uid=3)
        # Retention policy: drop entries older than r2's epoch.
        dropped = engine.vault.expire_before(r2.disguise_id)
        assert dropped > 0
        with pytest.raises(DisguiseError):
            engine.reveal(r1.disguise_id)
        # r2 is still reversible.
        engine.reveal(r2.disguise_id, check_integrity=True)
        assert db.get("ContactInfo", 3) is not None

"""FileVault journal mode: O(delta) appends, tombstones, compaction.

The regression half of the suite pins the satellite fix for the old
load-all + rewrite-all ``_put``: appending entry N must neither re-read
the journal nor rewrite the N-1 entries already in it.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import VaultError
from repro.vault.entry import OP_MODIFY, VaultEntry
from repro.vault.file_vault import FileVault


def entry(entry_id, owner=19, seq=None):
    return VaultEntry(
        entry_id=entry_id,
        disguise_id=1,
        seq=seq if seq is not None else entry_id,
        epoch=1,
        owner=owner,
        table="users",
        pk=owner,
        op=OP_MODIFY,
        payload={"column": "c", "old": entry_id, "new": entry_id + 1},
    )


class TestAppendOnly:
    def test_put_appends_without_rereading(self, tmp_path, monkeypatch):
        """Entry N costs one append: no journal read, no rewrite of 1..N-1."""
        from pathlib import Path

        vault = FileVault(tmp_path / "v")
        vault.put(entry(1))  # hydrates the owner cache

        read_opens = []
        real_open = Path.open

        def spying_open(self, mode="r", *args, **kwargs):
            if "r" in mode and self.suffix == ".jsonl":
                read_opens.append((self, mode))
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spying_open)
        sizes = []
        path = tmp_path / "v" / "owner-19.jsonl"
        for n in range(2, 30):
            vault.put(entry(n))
            sizes.append(path.stat().st_size)
        assert read_opens == [], "put must append blind, never re-read the journal"
        # And the file grows by ~one line per put (no rewrite of 1..N-1).
        deltas = [b - a for a, b in zip(sizes, sizes[1:])]
        assert max(deltas) <= 2 * min(deltas), f"append cost not flat: {deltas}"

    def test_put_is_one_line_per_entry(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        path = tmp_path / "v" / "owner-19.jsonl"
        for n in range(1, 11):
            vault.put(entry(n))
            assert len(path.read_text().splitlines()) == n

    def test_file_not_reopened_for_reads_after_hydration(self, tmp_path, monkeypatch):
        vault = FileVault(tmp_path / "v")
        vault.put_many([entry(n) for n in range(1, 6)])
        opens = []
        real_path = FileVault._path

        def spying_path(self, owner):
            opens.append(owner)
            return real_path(self, owner)

        monkeypatch.setattr(FileVault, "_path", spying_path)
        assert len(vault.entries_for(19)) == 5
        assert len(vault.entries_for(19)) == 5
        assert opens == [], "reads after hydration must be cache hits"

    def test_put_many_single_append_per_owner(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put_many([entry(n, owner=19) for n in range(1, 4)]
                       + [entry(n, owner=20) for n in range(4, 6)])
        assert len(vault.entries_for(19)) == 3
        assert len(vault.entries_for(20)) == 2


class TestJournalSemantics:
    def test_replace_appends_and_last_record_wins(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put(entry(1))
        vault.replace(entry(1).with_payload(seq=50, new=99))
        path = tmp_path / "v" / "owner-19.jsonl"
        assert len(path.read_text().splitlines()) == 2
        # A fresh instance must resolve the replace from the journal alone.
        fresh = FileVault(tmp_path / "v")
        got = fresh.entries_for(19)
        assert len(got) == 1 and got[0].new_value == 99 and got[0].seq == 50

    def test_delete_appends_tombstone(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put(entry(1))
        vault.put(entry(2))
        assert vault.delete(19, [1]) == 1
        path = tmp_path / "v" / "owner-19.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) == 3 and json.loads(lines[-1]) == {"$del": [1]}
        fresh = FileVault(tmp_path / "v")
        assert [e.entry_id for e in fresh.entries_for(19)] == [2]

    def test_duplicate_rejected_across_reopen(self, tmp_path):
        FileVault(tmp_path / "v").put(entry(1))
        fresh = FileVault(tmp_path / "v")
        with pytest.raises(VaultError):
            fresh.put(entry(1))

    def test_round_trip_survives_many_generations(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put_many([entry(n) for n in range(1, 21)])
        vault.delete(19, range(1, 11))
        for n in range(11, 16):
            vault.replace(entry(n).with_payload(seq=100 + n, new=-n))
        fresh = FileVault(tmp_path / "v")
        got = {e.entry_id: e for e in fresh.entries_for(19)}
        assert sorted(got) == list(range(11, 21))
        assert all(got[n].new_value == -n for n in range(11, 16))


class TestCompaction:
    def test_threshold_triggers_compaction(self, tmp_path):
        vault = FileVault(tmp_path / "v", compact_threshold=8)
        vault.put_many([entry(n) for n in range(1, 8)])
        # Churn replaces until dead records exceed both the threshold and
        # the live count.
        for round_ in range(5):
            for n in range(1, 8):
                vault.replace(entry(n).with_payload(seq=1000 + round_ * 10 + n, new=round_))
        assert vault.compactions >= 1
        path = tmp_path / "v" / "owner-19.jsonl"
        # Compaction bounds the file to live entries plus sub-threshold churn
        # (42 records were appended in total).
        assert len(path.read_text().splitlines()) <= 7 + vault.compact_threshold + 1
        fresh = FileVault(tmp_path / "v")
        assert len(fresh.entries_for(19)) == 7

    def test_compacting_empty_vault_removes_file(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put(entry(1))
        vault.delete(19, [1])
        vault.compact(19)
        assert not (tmp_path / "v" / "owner-19.jsonl").exists()
        assert vault.entries_for(19) == []

    def test_compaction_preserves_seq_order(self, tmp_path):
        vault = FileVault(tmp_path / "v")
        vault.put(entry(1, seq=30))
        vault.put(entry(2, seq=10))
        vault.compact(19)
        fresh = FileVault(tmp_path / "v")
        assert [e.entry_id for e in fresh.entries_for(19)] == [2, 1]


class TestLegacyFilenames:
    """Owner filenames are percent-encoded tokens; a file named by the raw
    owner token (the layout before the encoding) is not read."""

    def test_owners_round_trip_through_filenames(self, tmp_path):
        owners = [7, "007", "50%off", "a/b"]
        vault = FileVault(tmp_path)
        for entry_id, owner in enumerate(owners, 1):
            vault.put(entry(entry_id, owner=owner))
        (tmp_path / "owner-user@example.com.jsonl").write_text(
            entry(9, owner="user@example.com").to_json() + "\n"
        )
        fresh = FileVault(tmp_path)
        listed = fresh.owners()
        assert sorted(listed, key=repr) == sorted(owners, key=repr)
        for entry_id, owner in enumerate(owners, 1):
            assert [e.entry_id for e in fresh.entries_for(owner)] == [entry_id]

    def test_encoded_and_plain_owners_coexist(self, tmp_path):
        vault = FileVault(tmp_path)
        vault.put(entry(1, owner="plain"))
        vault.put(entry(2, owner="user@example.com"))
        vault.put(entry(3, owner=19))
        assert sorted(FileVault(tmp_path).owners(), key=str) == sorted(
            [19, "plain", "user@example.com"], key=str
        )


class TestSyncAppends:
    def test_batch_put_fsyncs_once_per_owner_group(self, tmp_path, monkeypatch):
        import os as os_mod

        vault = FileVault(tmp_path, sync_appends=True)
        fsyncs = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(
            "repro.storage.fsio.os.fsync",
            lambda fd: (fsyncs.append(fd), real_fsync(fd))[1],
        )
        vault.put_many([entry(i, owner=19) for i in range(1, 9)])
        vault.put_many(
            [entry(10 + i, owner=19 + i % 2) for i in range(4)]
        )
        # one fsync for the first batch, two for the two-owner second batch
        assert len(fsyncs) == 3
        assert vault.syncs == 3

    def test_sync_appends_off_by_default(self, tmp_path):
        vault = FileVault(tmp_path)
        vault.put_many([entry(i) for i in range(1, 4)])
        assert vault.syncs == 0

    def test_synced_journal_reloads(self, tmp_path):
        vault = FileVault(tmp_path, sync_appends=True)
        vault.put_many([entry(i) for i in range(1, 6)])
        reloaded = FileVault(tmp_path)
        assert {e.entry_id for e in reloaded._entries(19)} == {1, 2, 3, 4, 5}

"""Offline-storage vault: one append-only journal file per owner.

This models the paper's "storing vaults in offline storage, which provides
a modicum of security, but makes access by the data disguising tool easy"
(§4.2). Each owner's file is a JSON-lines *journal*: a put appends one
entry line, a replace appends a superseding line for the same ``entry_id``
(last record wins on load), and a delete appends a tombstone line
``{"$del": [ids...]}``. Appending keeps every mutation O(delta) — the old
load-all + rewrite-all per put made a disguise writing N entries cost
O(N²) file bytes.

Dead records (superseded or tombstoned lines) accumulate until a
threshold-triggered compaction rewrites the file with only live entries
(atomic replace), or removes it when nothing is live. A per-owner
in-memory cache, hydrated once per owner per process, serves reads and
duplicate-id checks without re-reading the journal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable
from urllib.parse import quote, unquote

from repro.errors import VaultError
from repro.storage import fsio
from repro.obs.trace import TRACER as _TRACER
from repro.vault.base import GLOBAL_OWNER, VaultStore
from repro.vault.entry import VaultEntry

__all__ = ["FileVault"]

_GLOBAL_KEY = "__global__"  # cache key for the GLOBAL_OWNER (None) vault


class FileVault(VaultStore):
    """Vault entries journaled under ``directory/owner-<id>.jsonl``.

    ``compact_threshold``: compaction triggers when an owner's journal
    holds more than this many dead records *and* the dead outnumber the
    live — so small vaults never pay a rewrite, and large ones amortize it.

    ``sync_appends``: fsync the journal after each append. A batched put
    still pays one fsync per owner group rather than one per entry, which
    is what makes the pipelined write path cheap under durability.
    """

    def __init__(
        self,
        directory: str | Path,
        compact_threshold: int = 64,
        sync_appends: bool = False,
    ) -> None:
        super().__init__()
        self.directory = fsio.as_path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.compact_threshold = compact_threshold
        self.sync_appends = sync_appends
        # Per-owner live entries, hydrated lazily from the journal once.
        self._cache: dict[str, dict[int, VaultEntry]] = {}
        # Per-owner count of dead journal records (superseded + tombstones).
        self._dead: dict[str, int] = {}
        self.compactions = 0  # diagnostic, read by tests and benchmarks
        self.syncs = 0  # fsyncs issued by _append (diagnostic)
        self.appends = 0  # journal appends issued by _append (diagnostic)

    def register_metrics(self, registry: Any, prefix: str = "vault") -> None:
        super().register_metrics(registry, prefix)
        registry.gauge(f"{prefix}.journal_appends", lambda: self.appends)
        registry.gauge(f"{prefix}.fsyncs", lambda: self.syncs)
        registry.gauge(f"{prefix}.compactions", lambda: self.compactions)

    def _key(self, owner: Any) -> str:
        return _GLOBAL_KEY if owner is GLOBAL_OWNER else str(owner)

    def _path(self, owner: Any) -> Path:
        if owner is GLOBAL_OWNER:
            return self.directory / "global.jsonl"
        # Percent-encode so any owner string maps to exactly one safe
        # filename (no separators, NULs, or traversal; ints stay as-is).
        token = quote(str(owner), safe="")
        return self.directory / f"owner-{token}.jsonl"

    # -- journal IO ---------------------------------------------------------------

    def _load(self, owner: Any) -> dict[int, VaultEntry]:
        """The owner's live entries, reading the journal only on first use."""
        key = self._key(owner)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        entries: dict[int, VaultEntry] = {}
        dead = 0
        path = self._path(owner)
        if path.exists():
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    if line.startswith('{"$del"'):
                        doomed = json.loads(line)["$del"]
                        dead += 1
                        for entry_id in doomed:
                            if entries.pop(entry_id, None) is not None:
                                dead += 1
                        continue
                    entry = VaultEntry.from_json(line)
                    if entry.entry_id in entries:
                        dead += 1  # superseded by this replace record
                    entries[entry.entry_id] = entry
        self._cache[key] = entries
        self._dead[key] = dead
        return entries

    def _append(self, owner: Any, lines: list[str]) -> None:
        with _TRACER.span("vault.journal_append", lines=len(lines)), \
                self._path(owner).open("a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            self.appends += 1
            if self.sync_appends:
                handle.flush()
                fsio.fsync_handle(handle)
                self.syncs += 1

    def _maybe_compact(self, owner: Any) -> None:
        key = self._key(owner)
        dead = self._dead.get(key, 0)
        if dead > self.compact_threshold and dead > len(self._cache[key]):
            self.compact(owner)

    def compact(self, owner: Any) -> None:
        """Rewrite *owner*'s journal with live entries only (atomically)."""
        entries = self._load(owner)
        path = self._path(owner)
        if not entries:
            if path.exists():
                path.unlink()
            self._dead[self._key(owner)] = 0
            self.compactions += 1
            return
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for entry in sorted(entries.values(), key=lambda e: e.seq):
                handle.write(entry.to_json() + "\n")
        fsio.replace(tmp, path)
        self._dead[self._key(owner)] = 0
        self.compactions += 1

    # -- primitive operations -----------------------------------------------------

    def _put(self, entry: VaultEntry) -> None:
        entries = self._load(entry.owner)
        if entry.entry_id in entries:
            raise VaultError(f"duplicate vault entry id {entry.entry_id}")
        self._append(entry.owner, [entry.to_json()])
        entries[entry.entry_id] = entry

    def _put_many(self, batch: list[VaultEntry]) -> None:
        # Group by owner: one journal append (one open) per owner.
        by_owner: dict[str, list[VaultEntry]] = {}
        for entry in batch:
            by_owner.setdefault(self._key(entry.owner), []).append(entry)
        for group in by_owner.values():
            owner = group[0].owner
            entries = self._load(owner)
            for entry in group:
                if entry.entry_id in entries:
                    raise VaultError(f"duplicate vault entry id {entry.entry_id}")
            self._append(owner, [entry.to_json() for entry in group])
            for entry in group:
                entries[entry.entry_id] = entry

    def _replace(self, entry: VaultEntry) -> None:
        entries = self._load(entry.owner)
        if entry.entry_id not in entries:
            raise VaultError(f"no vault entry {entry.entry_id} to replace")
        self._append(entry.owner, [entry.to_json()])
        entries[entry.entry_id] = entry
        key = self._key(entry.owner)
        self._dead[key] = self._dead.get(key, 0) + 1
        self._maybe_compact(entry.owner)

    def _delete(self, owner: Any, entry_ids: Iterable[int]) -> int:
        entries = self._load(owner)
        doomed = [entry_id for entry_id in entry_ids if entry_id in entries]
        if not doomed:
            return 0
        self._append(owner, [json.dumps({"$del": doomed})])
        for entry_id in doomed:
            del entries[entry_id]
        key = self._key(owner)
        self._dead[key] = self._dead.get(key, 0) + 1 + len(doomed)
        self._maybe_compact(owner)
        return len(doomed)

    def _entries(self, owner: Any) -> list[VaultEntry]:
        return list(self._load(owner).values())

    def owners(self) -> list[Any]:
        out = []
        for path in self.directory.glob("owner-*.jsonl"):
            token = path.stem[len("owner-") :]
            name = unquote(token)
            if quote(name, safe="") != token:
                continue  # not a filename _path writes
            # An int owner is written as str(int): only names that print
            # back unchanged are ints ("007" stays a string).
            try:
                number = int(name)
            except ValueError:
                out.append(name)
            else:
                out.append(number if str(number) == name else name)
        return out

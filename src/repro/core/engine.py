"""The disguising tool's public API (the Python "Edna").

"Applications invoke an external data disguising tool's API to apply
disguises; the tool interprets the specification and applies the necessary
physical changes to the database" (paper §4). :class:`Disguiser` is that
tool: construct it over an application :class:`~repro.storage.Database`
and a vault store, register disguise specs, then ``apply`` and ``reveal``.

Each apply/reveal runs in one database transaction (§6: "Edna currently
applies these changes in one large SQL transaction"), with journaled vault
writes compensated if the transaction aborts.
"""

from __future__ import annotations

import random
import time
from typing import Any, Iterable, Mapping

from repro.core.apply import SpecRunner
from repro.core.assertions import PrivacyAssertion, check_assertions
from repro.core.compose import reapply_recorrelated, recorrelate_for_user
from repro.core.history import DisguiseHistory
from repro.core.physical import (
    OpExecutor,
    PlaceholderFactory,
    PlaceholderRegistry,
    VaultJournal,
)
from repro.core.reveal import run_reveal
from repro.core.stats import DisguiseReport, RevealReport
from repro.errors import AssertionFailure, DisguiseError, VaultError
from repro.obs.trace import TRACER as _TRACER
from repro.spec.analysis import validate_spec
from repro.spec.disguise import DisguiseSpec, USER_PARAM
from repro.storage.database import Database
from repro.vault.base import VaultStore
from repro.vault.memory_vault import MemoryVault

__all__ = ["Disguiser"]


class Disguiser:
    """Applies, composes, and reveals data disguises on one database."""

    def __init__(
        self,
        db: Database,
        vault: VaultStore | None = None,
        seed: int = 0,
        validate_specs: bool = True,
    ) -> None:
        self.db = db
        self.vault = vault if vault is not None else MemoryVault()
        # Surface the vault's counters through the database's metrics
        # registry: one Database.metrics() call reports the whole engine.
        if hasattr(self.vault, "register_metrics"):
            self.vault.register_metrics(db.obs)
        self.history = DisguiseHistory(db)
        self._recover_vault()
        self.registry = PlaceholderRegistry(db)
        self.executor = OpExecutor(db, db.schema, self.registry)
        self.rng = random.Random(seed)
        self.validate_specs = validate_specs
        self._specs: dict[str, DisguiseSpec] = {}

    def _recover_vault(self) -> None:
        """One pass over every owner's vault entries at engine start.

        * Crash recovery: stranded (pre-commit) vault entries must never
          have their disguise/entry ids re-issued — see
          :meth:`DisguiseHistory.resume_past`.
        * Entries of disguises already revealed are deleted. Reveal
          commits the history flip first and lands the physical vault
          deletes only after that commit is durable (see
          :meth:`VaultJournal.commit`); a crash between the two strands
          the consumed entries on disk. They are dead — the committed
          reveal already restored the data — so finish the deletion here,
          keeping the vault an exact mirror of the active history.
        """
        try:
            owners = self.vault.owners()
        except (NotImplementedError, VaultError):
            return  # non-enumerable deployments (encrypted, third-party)
        inactive = {
            record.did for record in self.history.records() if not record.active
        }
        for owner in owners:
            entries = self.vault.entries_for(owner)
            self.history.resume_past(entries)
            stale = [
                entry.entry_id for entry in entries if entry.disguise_id in inactive
            ]
            if stale:
                self.vault.delete(owner, stale)

    def share(self, seed: int | None = None) -> "Disguiser":
        """A worker-private engine over the same database and vault.

        The service runs one :class:`Disguiser` per worker thread: the
        database, vault, history, placeholder registry, and spec registry
        are shared (each already safe under the service's locks), while
        the :class:`OpExecutor` and RNG are private — the executor's
        ``defer_fk`` toggles mid-apply, and the RNG must not interleave
        draws across concurrent disguises.
        """
        clone = object.__new__(Disguiser)
        clone.db = self.db
        clone.vault = self.vault
        clone.history = self.history
        clone.registry = self.registry
        clone.executor = OpExecutor(self.db, self.db.schema, self.registry)
        clone.rng = random.Random(self.rng.randrange(2**63) if seed is None else seed)
        clone.validate_specs = self.validate_specs
        clone._specs = self._specs
        return clone

    # -- spec registry -----------------------------------------------------------

    def register(self, spec: DisguiseSpec) -> list:
        """Register a disguise spec; returns validation warnings.

        Registration is required before ``apply`` — reveal needs the spec
        object to re-execute operations, so specs must be resolvable by
        name for the lifetime of their disguises.
        """
        warnings = []
        if self.validate_specs:
            warnings = validate_spec(spec, self.db.schema)
        self._specs[spec.name] = spec
        return warnings

    def spec(self, name: str) -> DisguiseSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise DisguiseError(f"no registered disguise spec named {name!r}") from None

    def _spec_for_disguise(self, did: int) -> DisguiseSpec:
        return self.spec(self.history.get(did).name)

    def _resolve(self, spec: DisguiseSpec | str) -> DisguiseSpec:
        if isinstance(spec, str):
            return self.spec(spec)
        if spec.name not in self._specs:
            self.register(spec)
        return spec

    # -- apply ---------------------------------------------------------------------

    def apply(
        self,
        spec: DisguiseSpec | str,
        uid: Any = None,
        reversible: bool = True,
        compose: bool = True,
        optimize: bool = True,
        assertions: Iterable[PrivacyAssertion] = (),
        on_assertion_failure: str = "revert",
        check_integrity: bool = False,
        job: str | None = None,
    ) -> DisguiseReport:
        """Apply a disguise; returns a :class:`DisguiseReport`.

        ``uid`` binds the spec's ``$UID`` parameter (required for user
        disguises, forbidden for global ones). ``compose`` enables vault
        recorrelation against earlier disguises; ``optimize`` enables the
        redundant-decorrelation skip. ``reversible=False`` writes no vault
        entries, making the disguise permanent. Assertions are checked
        in-transaction; ``on_assertion_failure`` is ``"revert"``,
        ``"retry"`` (escalate mechanisms), or ``"notify"``. ``job`` is an
        optional service job token recorded transactionally with the
        apply, so a crash-induced re-run can detect the first run's
        durable effects and skip re-applying.
        """
        resolved = self._resolve(spec)
        if on_assertion_failure not in ("revert", "retry", "notify"):
            raise DisguiseError(
                f"unknown on_assertion_failure {on_assertion_failure!r}"
            )
        assertion_list = list(assertions)
        attempts = [(compose, optimize)]
        if on_assertion_failure == "retry":
            # Escalation ladder (§7 "try again with a different mechanism"):
            # enable composition if it was off, then disable the optimizer
            # so every original value is recorrelated.
            for escalation in ((True, optimize), (True, False)):
                if escalation not in attempts:
                    attempts.append(escalation)
        last_failures: list[str] = []
        for attempt_compose, attempt_optimize in attempts:
            try:
                # One span per attempt: each is its own transaction, and a
                # retry's escalated parameters show up as distinct attrs.
                with _TRACER.span(
                    "disguise.apply",
                    spec=resolved.name,
                    uid=uid,
                    compose=attempt_compose,
                    optimize=attempt_optimize,
                ):
                    return self._apply_once(
                        resolved,
                        uid,
                        reversible,
                        attempt_compose,
                        attempt_optimize,
                        assertion_list,
                        on_assertion_failure,
                        check_integrity,
                        job,
                    )
            except AssertionFailure as failure:
                last_failures = failure.args[1] if len(failure.args) > 1 else []
                continue
        raise AssertionFailure(
            f"disguise {resolved.name!r} failed its privacy assertions after "
            f"{len(attempts)} attempt(s): {last_failures}",
            last_failures,
        )

    def _apply_once(
        self,
        spec: DisguiseSpec,
        uid: Any,
        reversible: bool,
        compose: bool,
        optimize: bool,
        assertions: list[PrivacyAssertion],
        on_assertion_failure: str,
        check_integrity: bool,
        job: str | None = None,
    ) -> DisguiseReport:
        if spec.is_user_disguise and uid is None:
            raise DisguiseError(
                f"disguise {spec.name!r} is parameterized by $UID; pass uid="
            )
        params: Mapping[str, Any] = {USER_PARAM: uid} if uid is not None else {}
        db_before = self.db.stats.snapshot()
        vault_before = self.vault.stats.snapshot()
        started = time.perf_counter()
        journal = VaultJournal(self.vault, self.history)
        self.db.begin()
        try:
            did = journal.open(
                spec.name, uid, reversible, user_invoked=uid is not None
            )
            if _TRACER.enabled:
                current = _TRACER.current()
                if current is not None:
                    current.set("did", did)
            if job is not None:
                self.history.record_job(job, did)
            self.vault.note_disguise(did, user_invoked=uid is not None)
            factory = PlaceholderFactory(self.db, self.rng, self.registry, did)
            report = DisguiseReport(disguise_id=did, name=spec.name, uid=uid)
            recorrelated = []
            if compose and uid is not None:
                # Recorrelation may pass through transient states (restoring
                # a reference to a row an earlier disguise removed) that the
                # new disguise immediately re-handles; FK checks are deferred
                # until the recorrelated rows are re-validated below.
                self.executor.defer_fk = True
                recorrelated = recorrelate_for_user(
                    self.executor, self.vault, spec, uid, did, optimize, report
                )
                if not recorrelated:
                    self.executor.defer_fk = False
            runner = SpecRunner(
                executor=self.executor,
                history=self.history,
                journal=journal,
                factory=factory,
                spec=spec,
                did=did,
                epoch=did,
                uid=uid,
                params=params,
                reversible=reversible,
                report=report,
            )
            runner.run()
            if recorrelated:
                reapply_recorrelated(
                    self.executor,
                    self.history,
                    journal,
                    factory,
                    self._spec_for_disguise,
                    recorrelated,
                    report,
                )
                self.executor.defer_fk = False
                dangling = []
                seen_rows = set()
                for entry in recorrelated:
                    key = (entry.table, entry.pk)
                    if key not in seen_rows:
                        seen_rows.add(key)
                        dangling.extend(self.db.check_row_fks(entry.table, entry.pk))
                if dangling:
                    raise DisguiseError(
                        f"composing {spec.name!r} left {len(dangling)} dangling "
                        f"reference(s) (e.g. {dangling[0]}); the spec does not "
                        f"cover all recorrelated rows"
                    )
            failures = check_assertions(assertions, self.db, params)
            if failures:
                if on_assertion_failure == "notify":
                    report.assertion_failures = failures
                else:
                    raise AssertionFailure(
                        f"{spec.name}: {len(failures)} assertion(s) failed", failures
                    )
            if check_integrity:
                self.db.assert_integrity()
            journal.checkpoint(did)
            journal.write_history()
            self.db.commit()
        except BaseException:
            journal.compensate()
            self.db.rollback()
            raise
        finally:
            self.executor.defer_fk = False
        journal.commit(getattr(self.db, "redo_barrier", None))
        report.duration_s = time.perf_counter() - started
        report.db_stats = self.db.stats.delta(db_before)
        report.vault_stats = self.vault.stats.delta(vault_before)
        return report

    # -- reveal --------------------------------------------------------------------

    def reveal(self, did: int, check_integrity: bool = False) -> RevealReport:
        """Reverse a previously applied disguise (paper §4.2).

        Restores the data the disguise transformed, then re-applies the
        still-active disguises from the relevant log interval so revealed
        data respects them. The disguise's history record is deactivated
        and its vault entries consumed.
        """
        with _TRACER.span("disguise.reveal", did=did) as sp:
            record = self.history.get(did)
            if not record.active:
                raise DisguiseError(f"disguise {did} ({record.name}) is not active")
            sp.set("spec", record.name)
            sp.set("uid", record.uid)
            db_before = self.db.stats.snapshot()
            vault_before = self.vault.stats.snapshot()
            started = time.perf_counter()
            journal = VaultJournal(self.vault, self.history)
            factory = PlaceholderFactory(self.db, self.rng, self.registry, did)
            report = RevealReport(disguise_id=did, name=record.name, uid=record.uid)
            self.db.begin()
            try:
                run_reveal(
                    self.executor,
                    self.history,
                    self.vault,
                    journal,
                    factory,
                    self._spec_for_disguise,
                    self.spec,
                    record,
                    report,
                )
                if check_integrity:
                    self.db.assert_integrity()
                journal.write_history()
                self.db.commit()
            except BaseException:
                journal.compensate()
                self.db.rollback()
                raise
            finally:
                self.executor.defer_fk = False
            journal.commit(getattr(self.db, "redo_barrier", None))
            report.duration_s = time.perf_counter() - started
            report.db_stats = self.db.stats.delta(db_before)
            report.vault_stats = self.vault.stats.delta(vault_before)
        return report

    # -- schema evolution ---------------------------------------------------------------

    def evolve_schema(self, change):
        """Apply a schema change across all three layers (paper §7).

        Order: the database first (``repro.storage.evolve``), then every
        reachable vault entry (so active disguises stay reversible), then
        each registered spec (renames are rewritten automatically; specs
        that reference a dropped column are reported for manual revision
        and left registered under their old definition).

        Returns a :class:`repro.core.migrate.MigrationReport`.
        """
        from repro.core.migrate import MigrationReport, migrate_spec, migrate_vault
        from repro.errors import SpecError
        from repro.storage.evolve import apply_change

        apply_change(self.db, change)
        report = MigrationReport(change=change.describe())
        migrate_vault(self.vault, change, report)
        for name, spec in list(self._specs.items()):
            try:
                migrated = migrate_spec(spec, change)
            except SpecError:
                report.unmigratable_specs.append(name)
                continue
            if migrated is not spec:
                self._specs[name] = migrated
                if migrated.to_text() != spec.to_text():
                    report.revised_specs.append(name)
        return report

    # -- introspection ----------------------------------------------------------------

    def explain(self, spec, uid=None, optimize: bool = True):
        """Dry-run a disguise: what would ``apply`` do? (paper §1, §7)

        Returns a :class:`repro.core.explain.DisguisePlan` without touching
        the database or the vault contents.
        """
        from repro.core.explain import explain as _explain

        return _explain(self, spec, uid=uid, optimize=optimize)

    def active_disguises(self):
        """History records of disguises currently in effect."""
        return self.history.records(active_only=True)

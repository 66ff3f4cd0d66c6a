"""Span recording around the layers' public functions, from outside `src/`.

A traced run replaces a fixed list of public callables (class methods and
module-level functions, see :func:`_targets`) with wrappers that record one
span per call — name, thread, job id, parent span, start, end — into an
in-memory list. Nothing under ``src/`` is edited and ``repro.obs`` is not
used, so the table this produces does not move when the engine's own
spans do. :func:`installed` restores every original on exit.

One job is one tree: ``JobQueue.claim`` returning a job opens a
``service.executor`` root span on the worker thread and
``JobQueue.complete`` / ``fail`` closes it, so everything the worker did
for the job nests below the root without touching a private method.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple

__all__ = ["Recorder", "Span", "installed", "layer_of", "self_times"]


class Span(NamedTuple):
    sid: int
    parent: int          # 0 = root of its thread
    name: str
    job: int | None      # queue job id the span worked for, if any
    thread: int
    start: float         # time.perf_counter()
    end: float
    n: float             # per-call quantity (rows returned, queue wait, ...)


class Recorder:
    """Collects spans from every thread; wrappers call :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._tls = threading.local()

    def _state(self) -> Any:
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []      # open span ids, innermost last
            tls.job = None      # job id the thread is executing
            tls.root = None     # (sid, start) of the open service.executor span
        return tls

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        quantity: Callable[[Any], float] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        tls = self._state()
        stack = tls.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        n = 0.0
        try:
            result = fn(*args, **kwargs)
            if quantity is not None:
                n = float(quantity(result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, tls.job, threading.get_ident(), start, end, n)
            )

    # -- the job root span -------------------------------------------------------

    def claim(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """``JobQueue.claim``: record the non-idle part, then open the root.

        A worker with nothing to do blocks inside ``claim``; that idle time
        belongs to no job. The span is clipped to start no earlier than the
        claimed job's enqueue instant, so ``service.queue.claim_s`` is the
        scan, journal append and fsync a waiting job actually paid for.
        """
        tls = self._state()
        stack = tls.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        job = None
        try:
            job = fn(*args, **kwargs)
            return job
        finally:
            end = time.perf_counter()
            stack.pop()
            if job is not None:
                waited = max(0.0, time.time() - job.enqueued_at)
                start = max(start, end - waited)
                self.spans.append(
                    Span(sid, parent, "service.queue.claim", job.job_id,
                         threading.get_ident(), start, end, waited)
                )
                root = next(self._ids)
                tls.root = (root, end)
                tls.job = job.job_id
                stack.append(root)

    def finish(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        quantity: Callable[[Any], float] | None = None,
    ) -> Any:
        """``JobQueue.complete`` / ``fail``: a child span, then close the root."""
        tls = self._state()
        try:
            return self.call(name, fn, args, kwargs, quantity)
        finally:
            if tls.root is not None:
                root, start = tls.root
                if root in tls.stack:
                    tls.stack.remove(root)
                self.spans.append(
                    Span(root, 0, "service.executor", tls.job,
                         threading.get_ident(), start, time.perf_counter(), 0.0)
                )
                tls.root = None
                tls.job = None


# -- what gets wrapped -----------------------------------------------------------------

_READS = ("select", "get", "count")
_WRITES = (
    "insert", "insert_many", "update", "update_by_pk", "update_many",
    "update_where", "delete", "delete_by_pk", "delete_many", "delete_where",
    "begin", "commit", "rollback",
)


def _rows_returned(result: Any) -> float:
    if result is None:
        return 0.0
    if isinstance(result, list):
        return float(len(result))
    return 1.0


def _targets() -> list[tuple[Any, str, str, Callable[[Any], float] | None]]:
    """``(owner, attribute, span name, quantity)`` for every wrapped callable.

    Functions a module imported by name (``from x import f``) are patched in
    the importing module, because that is the binding its calls resolve.
    """
    import repro.shard.engine as shard_engine
    import repro.storage.database as database
    import repro.storage.wal as wal
    import repro.vault.encrypted as encrypted
    from repro.core.engine import Disguiser
    from repro.core.history import DisguiseHistory
    from repro.service.locks import LockManager
    from repro.service.queue import JobQueue
    from repro.shard.apply import ShardGroupWal
    from repro.storage import fsio
    from repro.vault.base import VaultStore

    out: list[tuple[Any, str, str, Callable[[Any], float] | None]] = [
        (JobQueue, "submit", "service.queue.submit", None),
        (LockManager, "acquire", "service.locks.acquire", None),
        (LockManager, "release_all", "service.locks.release", None),
        (Disguiser, "apply", "core.apply", None),
        (Disguiser, "reveal", "core.reveal", lambda r: r.entries_consumed),
        (database, "parse_where", "storage.parse", None),
        (shard_engine, "parse_where", "storage.parse", None),
        (wal, "replay_into", "storage.wal.replay", None),
        (ShardGroupWal, "tag_commit", "shard.tag_commit", float),
        (VaultStore, "put", "vault.put_many", None),
        (VaultStore, "put_many", "vault.put_many", None),
        (VaultStore, "replace", "vault.put_many", None),
        (VaultStore, "entries_for", "vault.entries_for", _rows_returned),
        (VaultStore, "delete", "vault.delete", None),
        (encrypted, "encrypt", "crypto.encrypt", None),
        (encrypted, "encrypt_many", "crypto.encrypt", None),
        (encrypted, "decrypt", "crypto.decrypt", None),
        (fsio, "fsync_handle", "device.fsync", None),
        (fsio, "fsync_dir", "device.fsync", None),
        (fsio, "replace", "device.replace", None),
    ]
    for method in ("open", "checkpoint", "adjust_entries", "record_job",
                   "job_applied", "get", "deactivate", "records"):
        out.append((DisguiseHistory, method, "core.history", None))
    for method in _READS:
        out.append((database.Database, method, "storage.read", _rows_returned))
        out.append((shard_engine.ShardedDatabase, method, "shard.route", None))
    for method in _WRITES:
        out.append((database.Database, method, "storage.write", None))
        out.append((shard_engine.ShardedDatabase, method, "shard.route", None))
    for method in ("on_begin", "on_statement", "on_ddl", "on_commit", "on_rollback"):
        out.append((wal.WriteAheadLog, method, "storage.wal.append", None))
    for method in ("commit_barrier", "sync_appended", "sync"):
        out.append((wal.WriteAheadLog, method, "storage.wal.barrier", None))
    return out


def _wrapper(recorder: Recorder, name: str, fn: Callable[..., Any],
             quantity: Callable[[Any], float] | None) -> Callable[..., Any]:
    def traced(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, args, kwargs, quantity)

    return traced


@contextmanager
def installed(recorder: Recorder) -> Iterable[Recorder]:
    """Patch every target for the duration of the block, then restore all."""
    from repro.service.queue import DEAD, JobQueue

    originals: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        # vars() not getattr(): restore exactly what the class body held.
        originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name, quantity in _targets():
            patch(owner, attr, _wrapper(recorder, name, vars(owner)[attr], quantity))
        claim, complete, fail = (vars(JobQueue)[m] for m in ("claim", "complete", "fail"))
        patch(JobQueue, "claim",
              lambda *a, **k: recorder.claim(claim, a, k))
        patch(JobQueue, "complete",
              lambda *a, **k: recorder.finish("service.queue.complete", complete, a, k))
        # fail() returns the new state: "pending" is a retry, "dead" is not.
        patch(JobQueue, "fail",
              lambda *a, **k: recorder.finish(
                  "service.queue.fail", fail, a, k, lambda s: float(s != DEAD)))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- arithmetic ------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its child spans cover.

    Children may overlap each other (a scatter read fans out to threads),
    so the covered part is the length of the union of the child intervals,
    clipped to the parent.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.sid] = (span.end - span.start) - covered
    return out


def layer_of(spans_by_id: dict[int, Span], span: Span, layers: tuple[str, ...]) -> str | None:
    """Name prefix in *layers* of the nearest ancestor that has one."""
    parent = spans_by_id.get(span.parent)
    while parent is not None:
        for layer in layers:
            if parent.name.startswith(layer):
                return layer
        parent = spans_by_id.get(parent.parent)
    return None

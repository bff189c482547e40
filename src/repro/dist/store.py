"""The result store: one cache layout, safe to share between processes and machines.

The engine memoises experiment results as ``<experiment>-<key16>.json``
files (see :mod:`repro.api.cache`).  This module turns that directory into a
*store* abstraction the execution layer is pointed at.
:class:`ResultStore` is the interface every backend implements;
:class:`SharedStore` is the directory store: atomic publishes, tolerant
loads, an advisory store lock and lease-based point claims
(:meth:`~SharedStore.claim`) with stale-lease recovery, so one directory is
safe to share between a single engine and N independent worker processes or
machines (through a shared filesystem).  ``Engine(cache_dir=d)`` is
``Engine(store=SharedStore(d))``.

Claims are leases, not hard locks: ``claim(path, worker_id, ttl)`` grants the
point to one worker for ``ttl`` seconds.  A worker that dies mid-point simply
stops existing -- once its lease expires, any other worker's ``claim`` takes
the point over.  Publishing a result is atomic and removes the lease, and
``claim`` reports ``"done"`` once a result exists, so late workers skip
straight past completed points.  The ``ttl`` must exceed the longest single
point's wall time; a slower-than-ttl (but alive) worker can be
double-executed -- results are content-addressed, so that race wastes work
but never corrupts the store.

Publishing is batched where results arrive in batches.
``publish_many(entries)`` is every store's write primitive and
``publish(path, result)`` its one-entry case: a batch stages each entry in
a ``tmp*.tmp`` file beside the store (mode 0600, the UTF-8 bytes of
``result.to_json()``), makes them all durable behind one barrier (one
``syncfs(2)`` on Linux for two or more entries, else an fsync per file),
then renames them into place under one acquisition of the store lock
that also clears their leases and tombstones.  An entry name therefore
only ever points at a fully written, synced file; an error before the
renames removes every temp file.
:class:`CommitGroup` gathers the results of a worker's claimed round or of
a store-backed engine sweep into such batches (see
:data:`COMMIT_INTERVAL_S`); a single ``Engine.run`` keeps one fsync per
publish.

``claim_many`` returns :class:`Claims`: one status per path, plus the
ResultSet it loaded to validate each ``"done"`` path, so a worker never
loads a done entry twice.

Locking is advisory (``flock`` where available, a lock-directory spin
otherwise), scoped to one lock file per store (:data:`LOCK_FILENAME`), and
granular: reads never lock (publishes are atomic renames); only the
claim/release bookkeeping, a publish's renames and store maintenance
serialise on it.
:func:`store_lock` is the maintenance entry point ``cache clear`` / ``cache
prune`` use so that evicting entries from a live shared store cannot
interleave with a worker's publish.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ContextManager, Iterable, Iterator

from repro.api.results import ResultSet
from repro.obs.trace import current_carrier

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

LOCK_FILENAME = ".repro-store.lock"
"""Name of the advisory lock file inside a store directory."""

LEASE_SUFFIX = ".lease"
"""Appended to an entry path to form its claim-lease file."""

FAILED_SUFFIX = ".failed"
"""Appended to an entry path to form its failure-tombstone file.

A worker whose point raises releases the lease *and* records the failure as
a tombstone, so operators can see what failed (and why) after every worker
has exited.  Tombstones are diagnostic residue, not state: claims ignore
them, a later successful publish removes them, and ``python -m repro cache
prune --gc`` (:func:`repro.api.cache.gc_store`) garbage-collects them."""

DEFAULT_LEASE_TTL = 300.0
"""Default claim lease in seconds; must exceed the slowest single point."""

COMMIT_INTERVAL_S = 0.5
"""Age, in seconds since its point started, at which a staged result commits.

Results that arrive in batches (a worker's claimed round, a store-backed
engine sweep) are published by :class:`CommitGroup` behind one durability
barrier instead of one fsync each.  A group commits at the end of its round
or sweep, on an exception, and as soon as its oldest staged point started
this long ago: a point that ran this long still publishes alone, and a
crash loses at most this much finished work besides the point in flight.
The daemon's ``PROGRESS_INTERVAL_S`` bounds progress writes the same way."""

# Claim outcomes (see ResultStore.claim / ResultStore.claim_many).
CLAIM_ACQUIRED = "acquired"
CLAIM_DONE = "done"
CLAIM_BUSY = "busy"
CLAIM_SKIPPED = "skipped"
"""``claim_many`` only: the path was not examined because ``max_acquire``
leases were already granted in this call.  The point is neither done nor
busy as far as the caller knows -- retry it on a later round trip."""


class Claims(list):
    """What ``claim_many`` returns: one claim status per path, in order.

    It compares equal to the plain list of statuses.  ``results`` runs
    alongside it: the :class:`ResultSet` loaded to validate each
    :data:`CLAIM_DONE` path, ``None`` for every other status, so a caller
    never loads a done entry a second time.
    """

    def __init__(self, statuses: list[str], results: list["ResultSet | None"]) -> None:
        super().__init__(statuses)
        self.results = results


class StoreLockTimeout(TimeoutError):
    """The store lock could not be acquired within the requested timeout."""


def default_worker_id() -> str:
    """A worker identity unique per process: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _flock_acquire(handle, path: str, timeout: float | None, poll: float) -> None:
    if timeout is None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"store lock {path} not acquired within {timeout:.3f} s"
                ) from None
            time.sleep(poll)


STALE_LOCKDIR_SECONDS = 300.0
"""Age after which the mkdir-fallback lock of a crashed holder is broken.

``flock`` locks die with their process; a lock *directory* does not, so the
fallback needs explicit stale-lock recovery or one crashed holder would
deadlock every worker and all cache maintenance forever.  Must comfortably
exceed the longest critical section (they are all O(one file write))."""


def _lockdir_acquire(path: str, timeout: float | None, poll: float) -> None:
    # Portable fallback: mkdir is atomic on every filesystem worth using.
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            os.mkdir(path)
            return
        except FileExistsError:
            try:
                if time.time() - os.stat(path).st_mtime > STALE_LOCKDIR_SECONDS:
                    # Crashed holder: break the lock.  A racing breaker just
                    # sees the rmdir fail / mkdir race and keeps looping.
                    os.rmdir(path)
                    continue
            except OSError:
                pass  # removed concurrently: loop and try mkdir again
            if deadline is not None and time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"store lock {path} not acquired within {timeout:.3f} s"
                ) from None
            time.sleep(poll)


@contextmanager
def store_lock(
    directory: str, timeout: float | None = None, poll_interval: float = 0.05
) -> Iterator[None]:
    """Exclusive advisory lock over a store directory.

    Serialises claim/publish bookkeeping and maintenance (``cache clear`` /
    ``cache prune``) across processes and machines sharing the directory.
    ``timeout=None`` blocks until acquired; otherwise
    :class:`StoreLockTimeout` is raised after ``timeout`` seconds.  The lock
    is *not* reentrant -- do not nest.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, LOCK_FILENAME)
    if fcntl is not None:
        handle = open(path, "a+")
        try:
            _flock_acquire(handle, path, timeout, poll_interval)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()
    else:  # pragma: no cover - exercised only on platforms without fcntl
        lockdir = path + ".d"
        _lockdir_acquire(lockdir, timeout, poll_interval)
        try:
            yield
        finally:
            try:
                os.rmdir(lockdir)
            except OSError:
                pass


_STAGE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _stage(directory: str, text: str) -> str:
    """Write ``text`` to a fresh ``tmp*.tmp`` file in ``directory``.

    Returns the temp file's path.  The file is created exclusively with mode
    0600 and holds the UTF-8 bytes of ``text``.  A failed write removes the
    file and re-raises.
    """
    data = memoryview(text.encode("utf-8"))
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, _STAGE_FLAGS, 0o600)
            break
        except FileExistsError:
            continue
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


_syncfs_call: Any = None
"""``syncfs(2)`` from libc, looked up on first use; ``False`` where absent."""


def _syncfs(directory: str) -> bool:
    """Flush the filesystem holding ``directory`` with one ``syncfs(2)``.

    Returns False, having done nothing durable, where the call is missing
    (not Linux, or a libc without it) or fails.  ``ctypes`` is imported on
    first use only, so processes that never publish a batch do not pay for
    it.
    """
    global _syncfs_call
    if _syncfs_call is None:
        _syncfs_call = False
        if sys.platform.startswith("linux"):
            import ctypes

            try:
                call = ctypes.CDLL(None, use_errno=True).syncfs
            except (OSError, AttributeError):
                pass
            else:
                call.argtypes = [ctypes.c_int]
                call.restype = ctypes.c_int
                _syncfs_call = call
    if not _syncfs_call:
        return False
    fd = os.open(directory, os.O_RDONLY)
    try:
        return _syncfs_call(fd) == 0
    finally:
        os.close(fd)


def _barrier(directory: str, staged: list[str]) -> None:
    """Make every staged temp file durable.

    One ``syncfs`` covers a batch of two or more files; a single file, or a
    batch where ``syncfs`` is missing or fails, gets an fsync per file.
    """
    if len(staged) >= 2 and _syncfs(directory):
        return
    for tmp in staged:
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _stage_durably(directory: str, texts: list[str]) -> list[str]:
    """Stage ``texts`` as temp files behind one :func:`_barrier`.

    Returns the temp files' paths.  On any error every temp file already
    staged is removed before the error is re-raised.
    """
    staged: list[str] = []
    try:
        for text in texts:
            staged.append(_stage(directory, text))
        _barrier(directory, staged)
    except BaseException:
        for tmp in staged:
            _unlink_quietly(tmp)
        raise
    return staged


def _atomic_write(directory: str, path: str, text: str, fsync: bool = False) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The final name only ever points at a fully written file; ``fsync``
    additionally forces the data to disk before the rename publishes it.
    A failed write cleans its temp file up and re-raises.
    """
    tmp = _stage_durably(directory, [text])[0] if fsync else _stage(directory, text)
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise


class CommitGroup:
    """Finished results waiting to be published together.

    :meth:`add` stages one ``(path, result)`` entry with an opaque ``item``
    the caller hands out once the entry is durable; :meth:`commit` publishes
    every staged entry with one :meth:`ResultStore.publish_many` and returns
    their items.  :meth:`add` commits by itself when the oldest staged
    point started :data:`COMMIT_INTERVAL_S` or more ago, committing what was
    staged before a slow point apart from it.
    """

    def __init__(self, store: "ResultStore") -> None:
        self.store = store
        self.commits = 0
        self._entries: list[tuple[str, ResultSet]] = []
        self._items: list[Any] = []
        self._oldest = 0.0

    def add(self, path: str, result: ResultSet, elapsed: float, item: Any) -> list:
        """Stage one entry whose point ran ``elapsed`` seconds until now.

        Returns the items of the entries this call committed (often none).
        """
        now = time.perf_counter()
        committed = self.commit() if self._due(now) else []
        started = now - elapsed
        self._oldest = min(self._oldest, started) if self._entries else started
        self._entries.append((path, result))
        self._items.append(item)
        if self._due(now):
            committed += self.commit()
        return committed

    def _due(self, now: float) -> bool:
        return bool(self._entries) and now - self._oldest >= COMMIT_INTERVAL_S

    def commit(self) -> list:
        """Publish every staged entry in one batch; returns their items."""
        entries, items = self._entries, self._items
        self._entries, self._items = [], []
        if entries:
            self.commits += 1
            self.store.publish_many(entries)
        return items


@dataclass(frozen=True)
class Lease:
    """One worker's temporary claim on a pending store entry.

    ``trace`` optionally carries the claiming worker's tracing carrier
    (see :func:`repro.obs.current_carrier`), so a crashed worker's lease
    still names the trace its point belonged to.
    """

    path: str
    worker: str
    claimed_at: float
    expires_at: float
    pid: int | None = None
    trace: dict[str, Any] | None = None

    def expired(self, now: float | None = None) -> bool:
        """Whether the lease has lapsed (its point is claimable again)."""
        return (time.time() if now is None else now) >= self.expires_at

    @property
    def entry_path(self) -> str:
        """Path of the result entry this lease guards."""
        return self.path[: -len(LEASE_SUFFIX)]


def _parse_entry(text: str) -> ResultSet | None:
    """One entry's text as a ResultSet; ``None`` when it holds no valid one.

    A torn write, valid JSON of the wrong shape and a content-hash mismatch
    all read as a missing entry, which callers recompute and overwrite.  The
    text is never taken for a file path.
    """
    if not text.lstrip().startswith("{"):
        return None
    try:
        return ResultSet.from_json(text)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


class ResultStore:
    """The interface of a result store, with the directory layout's reads.

    :class:`SharedStore` (a directory) and
    :class:`~repro.dist.sqlstore.SqliteStore` (one database file) implement
    it.  Execution code (the engine, :func:`repro.dist.worker.run_worker`)
    talks to this interface only, which is what lets serial, forked and
    distributed runs share one dispatch path.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.directory!r})"

    # --- layout -----------------------------------------------------------

    def entry_path(self, experiment: str, key: str) -> str:
        """Path of the entry for one content-addressed cache key."""
        return os.path.join(self.directory, f"{experiment}-{key[:16]}.json")

    # --- result I/O -------------------------------------------------------

    def load(self, path: str) -> ResultSet | None:
        """Read one entry; ``None`` for a missing, removed or broken one.

        Reads never lock: publishes are atomic renames, so a reader only
        ever sees a complete entry or none at all, and an entry that a
        ``cache prune`` removes while it is read reads as missing.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError):  # missing, removed mid-read, not UTF-8
            return None
        return _parse_entry(text)

    def publish(self, path: str, result: ResultSet) -> None:
        """Atomically write one entry: the one-entry case of :meth:`publish_many`."""
        self.publish_many([(path, result)])

    def publish_many(self, entries: Iterable[tuple[str, ResultSet]]) -> None:
        """Atomically and durably write a batch of ``(path, result)`` entries.

        Publishing an entry clears its lease and failure tombstone.  A
        crashed publish never leaves a truncated or corrupt entry behind.
        """
        raise NotImplementedError

    # --- coordination -------------------------------------------------------

    def claim(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> str:
        """Try to claim one pending entry for execution.

        Returns :data:`CLAIM_DONE` when a *loadable* result already exists
        (a corrupt entry counts as absent, so it gets recomputed instead of
        being skipped forever), :data:`CLAIM_ACQUIRED` when the caller
        should execute the point, or :data:`CLAIM_BUSY` when another live
        worker holds the lease.
        """
        raise NotImplementedError

    def claim_many(
        self,
        paths: list[str],
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        max_acquire: int | None = None,
    ) -> Claims:
        """Claim a batch of pending entries in one store round trip.

        Returns one claim outcome per path, in order, as :class:`Claims`:
        the :meth:`claim` statuses plus :data:`CLAIM_SKIPPED` for paths not
        examined because ``max_acquire`` leases were already granted, and,
        in ``Claims.results``, the ResultSet each :data:`CLAIM_DONE` path
        was validated with.  Workers use this to amortise store locking over
        whole sweeps: the per-point lock or transaction round trip would
        dominate cheap points.
        """
        raise NotImplementedError

    def release(self, path: str, worker_id: str) -> None:
        """Give up a claim without publishing (failed or abandoned point)."""
        raise NotImplementedError

    def renew(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Extend one's own lease on a pending entry; False once it is gone."""
        raise NotImplementedError

    def record_failure(self, path: str, worker_id: str, error: str) -> None:
        """Record a failure tombstone for a pending entry."""
        raise NotImplementedError

    def lock(self, timeout: float | None = None) -> ContextManager[None]:
        """Maintenance lock over the whole store."""
        raise NotImplementedError

    # --- maintenance / inspection -------------------------------------------
    #
    # The maintenance surface (``cache stats/clear/prune --gc``, queue GC)
    # talks to these four methods instead of walking the directory itself, so
    # backends with a different physical layout (:class:`SqliteStore`) inherit
    # every maintenance tool for free.

    def exists(self, path: str) -> bool:
        """Whether an entry or bookkeeping document exists at ``path``."""
        return os.path.exists(path)

    def entries(self, read_meta: bool = True) -> list:
        """This store's cache entries as :class:`repro.api.cache.CacheEntry`.

        ``read_meta=False`` skips provenance metadata (version/params) for
        callers that only need the inventory.
        """
        from repro.api.cache import scan_cache

        return scan_cache(self.directory, read_meta=read_meta)

    def remove_entries(self, paths: list[str]) -> int:
        """Delete entries plus their lease/tombstone bookkeeping.

        Returns the number of entries actually removed.  A leftover lease
        would make an evicted point look claimed; a leftover tombstone would
        report a failure for a point that no longer exists -- both die with
        the entry.
        """
        removed = 0
        for path in paths:
            try:
                os.unlink(path)
                removed += 1
            except FileNotFoundError:
                pass  # deleted concurrently: already gone is fine
            for suffix in (LEASE_SUFFIX, FAILED_SUFFIX):
                try:
                    os.unlink(path + suffix)
                except FileNotFoundError:
                    pass
        return removed

    def collect_garbage(
        self,
        now: float | None = None,
        dry_run: bool = False,
        keep_pending_failures: bool = False,
    ) -> list[str]:
        """Collect crashed-worker residue; returns the disposed paths."""
        raise NotImplementedError


class SharedStore(ResultStore):
    """The directory store, safe to share between many workers.

    Implements :class:`ResultStore` over a directory with:

    * an advisory store lock (:meth:`lock`) serialising all bookkeeping,
    * lease-based claims: :meth:`claim` grants a point to one worker for
      ``ttl`` seconds, recorded in an ``<entry>.json.lease`` file written
      atomically under the lock.  Expired leases (dead workers) are taken
      over transparently; re-claiming one's own lease renews it.
    * locked publish: the renames of a publish and the removal of their
      leases and tombstones happen under the store lock, so maintenance
      (``cache prune``) never observes half-updated bookkeeping.

    ``poll_interval`` tunes how often blocked lock acquisitions retry.
    """

    def __init__(self, directory: str, poll_interval: float = 0.05) -> None:
        super().__init__(directory)
        self.poll_interval = poll_interval

    def lock(self, timeout: float | None = None) -> ContextManager[None]:
        return store_lock(self.directory, timeout=timeout, poll_interval=self.poll_interval)

    # --- leases -----------------------------------------------------------

    def _lease_path(self, path: str) -> str:
        return path + LEASE_SUFFIX

    def read_lease(self, path: str) -> Lease | None:
        """The current lease of an entry, or ``None`` (corrupt counts as none)."""
        lease_path = self._lease_path(path)
        try:
            with open(lease_path) as handle:
                payload = json.load(handle)
            trace = payload.get("trace")
            return Lease(
                path=lease_path,
                worker=str(payload["worker"]),
                claimed_at=float(payload["claimed_at"]),
                expires_at=float(payload["expires_at"]),
                pid=payload.get("pid"),
                trace=trace if isinstance(trace, dict) else None,
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing or corrupt lease: the point is claimable

    def _write_lease(self, path: str, worker_id: str, now: float, ttl: float) -> None:
        payload: dict[str, Any] = {
            "worker": worker_id,
            "claimed_at": now,
            "expires_at": now + ttl,
            "pid": os.getpid(),
        }
        carrier = current_carrier()
        if carrier is not None:
            # Lease metadata never feeds cache keys or content hashes, so
            # the trace context is free to ride along with the claim.
            payload["trace"] = carrier
        _atomic_write(self.directory, self._lease_path(path), json.dumps(payload))

    def _unlink_lease(self, path: str) -> None:
        _unlink_quietly(self._lease_path(path))

    def leases(self, now: float | None = None) -> list[Lease]:
        """All current lease files, sorted by path (expired ones included)."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".json" + LEASE_SUFFIX):
                continue
            lease = self.read_lease(
                os.path.join(self.directory, filename[: -len(LEASE_SUFFIX)])
            )
            if lease is not None:
                found.append(lease)
        return found

    # --- coordination -----------------------------------------------------

    def claim(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> str:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        while True:
            with self.lock():
                if not os.path.exists(path):
                    lease = self.read_lease(path)
                    now = time.time()
                    if (
                        lease is not None
                        and lease.worker != worker_id
                        and not lease.expired(now)
                    ):
                        return CLAIM_BUSY
                    # Fresh point, our own lease (renewal), or a stale lease
                    # left by a dead worker: take (over) the point.
                    self._write_lease(path, worker_id, now, ttl)
                    return CLAIM_ACQUIRED
            # An entry exists.  Validate it *outside* the lock -- published
            # entries are immutable, so a successful parse at any time means
            # done, and N workers must not serialise on JSON parsing.
            if self.load(path) is not None:
                return CLAIM_DONE
            # Corrupt entry: dispose of it and loop back to take the lease.
            # Re-validate under the lock so a concurrent publish that just
            # replaced the torn file with a good one is never deleted.
            with self.lock():
                if os.path.exists(path) and self.load(path) is None:
                    os.unlink(path)

    def claim_many(
        self,
        paths: list[str],
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        max_acquire: int | None = None,
    ) -> Claims:
        """Batch claim under a *single* lock acquisition per pass.

        The per-path decisions are identical to :meth:`claim`; what changes
        is the cost model -- N pending points are leased with one
        lock/unlock round trip instead of N, which is what makes worker
        dispatch overhead independent of sweep size.  Entry validation
        still happens outside the lock (published entries are immutable,
        and N workers must not serialise on JSON parsing); corrupt entries
        are disposed of and re-examined on a follow-up pass, exactly like
        the single-point loop.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        statuses: list[str | None] = [None] * len(paths)
        results: list[ResultSet | None] = [None] * len(paths)
        pending = list(range(len(paths)))
        acquired = 0
        while pending:
            revisit: list[int] = []  # entries on disk: validate outside the lock
            with self.lock():
                now = time.time()
                for index in pending:
                    path = paths[index]
                    if max_acquire is not None and acquired >= max_acquire:
                        statuses[index] = CLAIM_SKIPPED
                        continue
                    if os.path.exists(path):
                        revisit.append(index)
                        continue
                    lease = self.read_lease(path)
                    if (
                        lease is not None
                        and lease.worker != worker_id
                        and not lease.expired(now)
                    ):
                        statuses[index] = CLAIM_BUSY
                        continue
                    self._write_lease(path, worker_id, now, ttl)
                    statuses[index] = CLAIM_ACQUIRED
                    acquired += 1
            corrupt: list[int] = []
            for index in revisit:
                results[index] = self.load(paths[index])
                if results[index] is not None:
                    statuses[index] = CLAIM_DONE
                else:
                    corrupt.append(index)
            if corrupt:
                # Dispose of torn entries under the lock (re-validated there,
                # so a concurrent good publish is never deleted), then loop
                # back to lease them.
                with self.lock():
                    for index in corrupt:
                        path = paths[index]
                        if os.path.exists(path) and self.load(path) is None:
                            os.unlink(path)
            pending = corrupt
        return Claims(statuses, results)

    # Defined on this class too, so that wrappers looking the method up in
    # ``SharedStore.__dict__`` (``perfbench/perf_layers.py``) find it.
    publish = ResultStore.publish

    def publish_many(self, entries: Iterable[tuple[str, ResultSet]]) -> None:
        """Atomically write a batch of ``(path, result)`` entries.

        Each entry is staged in a temp file beside the store, all of them
        are made durable behind one barrier (one ``syncfs`` on Linux for two
        or more entries, else an fsync per file), and only then renamed into
        place.  A crashed publish never leaves a truncated or corrupt entry
        behind: an entry name only ever points at a fully written, synced
        file.  An error before the renames removes every temp file and
        re-raises; a rename already done stands.
        """
        self._publish_texts([(path, result.to_json()) for path, result in entries])

    def _publish_texts(self, pairs: list[tuple[str, str]]) -> None:
        """Publish ``(path, text)`` pairs as :meth:`publish_many` does."""
        if not pairs:
            return
        os.makedirs(self.directory, exist_ok=True)
        staged = _stage_durably(self.directory, [text for _, text in pairs])
        try:
            # Staging and the barrier ran outside the lock; only the renames
            # and the bookkeeping they settle are serialised.
            with self.lock():
                for tmp, (path, _) in zip(staged, pairs):
                    os.replace(tmp, path)
                    self._unlink_lease(path)
                    # A successful result supersedes any earlier failure of the point.
                    _unlink_quietly(path + FAILED_SUFFIX)
        except BaseException:
            for tmp in staged:
                _unlink_quietly(tmp)  # the renamed ones are gone already
            raise

    def release(self, path: str, worker_id: str) -> None:
        with self.lock():
            lease = self.read_lease(path)
            if lease is not None and lease.worker == worker_id:
                self._unlink_lease(path)

    def renew(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Heartbeat: push one's own lease expiry ``ttl`` seconds out.

        Returns False -- without touching anything -- when the lease is gone
        or owned by another worker (the point was published, pruned, or taken
        over after an expiry); the caller should treat its execution as
        potentially duplicated but must not extend a foreign lease.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        with self.lock():
            lease = self.read_lease(path)
            if lease is None or lease.worker != worker_id or os.path.exists(path):
                return False
            self._write_lease(path, worker_id, time.time(), ttl)
            return True

    def record_failure(self, path: str, worker_id: str, error: str) -> None:
        """Write the failure tombstone of a pending entry (atomic, locked)."""
        payload = {
            "worker": worker_id,
            "error": str(error),
            "failed_at": time.time(),
        }
        with self.lock():
            if os.path.exists(path):
                return  # someone published a good result meanwhile
            _atomic_write(self.directory, path + FAILED_SUFFIX, json.dumps(payload))

    def failures(self) -> list[dict]:
        """All failure tombstones (path, worker, error, failed_at), by path."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".json" + FAILED_SUFFIX):
                continue
            tombstone = os.path.join(self.directory, filename)
            try:
                with open(tombstone) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue  # torn or concurrently removed: nothing to report
            payload["path"] = tombstone
            found.append(payload)
        return found

    def collect_garbage(
        self,
        now: float | None = None,
        dry_run: bool = False,
        keep_pending_failures: bool = False,
    ) -> list[str]:
        """Collect crashed-worker residue; returns the disposed paths.

        Removes failure tombstones and the claim leases that are expired
        (their worker died mid-point), corrupt, or attached to an entry that
        already exists.  Live, unexpired leases of pending entries are never
        touched, so GC is safe against running workers.  With
        ``keep_pending_failures`` a tombstone whose entry is still absent is
        preserved -- :class:`repro.service.queue.SpecQueue` uses that mode
        because its tombstones *are* the failed-job state.
        """
        if not os.path.isdir(self.directory):
            return []
        timestamp = time.time() if now is None else now

        def collect() -> list[str]:
            stale: list[str] = []
            for filename in sorted(os.listdir(self.directory)):
                path = os.path.join(self.directory, filename)
                if filename.endswith(".json" + FAILED_SUFFIX):
                    entry_path = path[: -len(FAILED_SUFFIX)]
                    if not keep_pending_failures or os.path.exists(entry_path):
                        stale.append(path)
                    continue
                if not filename.endswith(".json" + LEASE_SUFFIX):
                    continue
                entry_path = path[: -len(LEASE_SUFFIX)]
                lease = self.read_lease(entry_path)
                if (
                    lease is None  # corrupt lease: the point is claimable anyway
                    or lease.expired(timestamp)
                    or os.path.exists(entry_path)  # published: lease is vestigial
                ):
                    stale.append(path)
            return stale

        if dry_run:
            return collect()
        with self.lock():
            stale = collect()
            for path in stale:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass  # removed concurrently: already gone is fine
        return stale

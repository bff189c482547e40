"""SQL-backed result store: the ``ResultStore`` seam over one sqlite file.

:class:`SqliteStore` keeps the engine's content-addressed cache in a single
sqlite database instead of a directory of JSON blobs.  Entry identity is
unchanged -- :meth:`~SqliteStore.entry_path` still returns the familiar
``<experiment>-<key16>.json`` name, it just keys a row instead of naming a
file -- so the engine, workers, daemons and the HTTP service run on either
backend without modification.

What the relational layout buys:

* **Transactional coordination.**  Claim, renew, publish, tombstone and GC
  are conditional writes (``INSERT ... ON CONFLICT`` / guarded ``UPDATE`` /
  ``DELETE``) inside ``BEGIN IMMEDIATE`` transactions: sqlite's writer lock
  replaces the flock + lease-file protocol of
  :class:`~repro.dist.store.SharedStore`, and a crashed worker mid-publish
  can never leave a torn entry -- the transaction either committed or it
  did not.  No shared *filesystem* is required, only a shared database
  file (and postgres is a connection string away).
* **Indexed metadata.**  Experiment, version, cache key, content hash,
  timestamp and worker/executor provenance are real columns with real
  indexes, scanned by ``repro query`` / ``cache stats`` *without* touching
  the (potentially huge) payload blobs.  Millions of cached points need an
  index, not a readdir.
* **One-statement GC.**  Lease and tombstone garbage collection is a pair
  of ``DELETE`` statements instead of a directory walk.

Concurrency model: one connection per thread (heartbeat threads renew
leases concurrently with the executing thread), WAL journal mode so readers
never block the writer, and a busy timeout so contending writers queue
instead of erroring.  The store pickles like the directory stores do
(connections are dropped and reopened lazily).

:func:`resolve_store` turns CLI spellings into stores: ``sqlite:///sweep.db``
(or any existing regular file) becomes a :class:`SqliteStore`, a directory
path keeps its :class:`~repro.dist.store.SharedStore` meaning.
:func:`migrate_store` ingests an existing store (directory or database)
into another backend, preserving timestamps and tombstones.

Quick start::

    import tempfile, os

    from repro.api import Engine
    from repro.dist import SqliteStore

    store = SqliteStore(os.path.join(tempfile.mkdtemp(), "cache.db"))
    result = Engine(store=store).run("table_density")
    print(store.entries()[0].experiment, len(store.entries()))
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterable, Iterator

from repro.api.results import ResultSet
from repro.dist.store import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    CLAIM_SKIPPED,
    DEFAULT_LEASE_TTL,
    FAILED_SUFFIX,
    LEASE_SUFFIX,
    Claims,
    Lease,
    ResultStore,
    SharedStore,
    _parse_entry,
)

SCHEMA_VERSION = 1
"""Bumped on any incompatible schema change; checked at connect time."""

_ENTRY_PATTERN = re.compile(r"(?P<experiment>.+)-(?P<key>[0-9a-f]{16})\.json$")


def _trace_json() -> str | None:
    """The claiming process's tracing carrier as JSON (None when off)."""
    from repro.obs.trace import current_carrier

    carrier = current_carrier()
    return None if carrier is None else json.dumps(carrier)


def _row_trace(value: Any) -> dict[str, Any] | None:
    """Parse a leases.trace column value (tolerant of NULL/corruption)."""
    if not value:
        return None
    try:
        parsed = json.loads(value)
    except (TypeError, ValueError):
        return None
    return parsed if isinstance(parsed, dict) else None

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_info (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    entry        TEXT PRIMARY KEY,
    experiment   TEXT NOT NULL,
    key          TEXT NOT NULL,
    version      TEXT,
    params       TEXT,
    content_hash TEXT,
    created_at   REAL NOT NULL,
    worker_id    TEXT,
    executor     TEXT,
    wall_time_s  REAL,
    n_records    INTEGER,
    size_bytes   INTEGER NOT NULL,
    payload      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_experiment ON results(experiment, version);
CREATE INDEX IF NOT EXISTS idx_results_created ON results(created_at);
CREATE INDEX IF NOT EXISTS idx_results_hash ON results(content_hash);
CREATE INDEX IF NOT EXISTS idx_results_key ON results(key);
CREATE TABLE IF NOT EXISTS leases (
    entry      TEXT PRIMARY KEY,
    worker     TEXT NOT NULL,
    claimed_at REAL NOT NULL,
    expires_at REAL NOT NULL,
    pid        INTEGER,
    trace      TEXT
);
CREATE INDEX IF NOT EXISTS idx_leases_expires ON leases(expires_at);
CREATE TABLE IF NOT EXISTS failures (
    entry     TEXT PRIMARY KEY,
    worker    TEXT,
    error     TEXT,
    failed_at REAL NOT NULL
);
"""


class SqliteStore(ResultStore):
    """A :class:`~repro.dist.store.ResultStore` over one sqlite database file.

    ``directory`` (inherited attribute name, kept for seam compatibility)
    is the database file's path.  All protocol methods -- claim / renew /
    release / publish / tombstone / GC -- are single transactions, so the
    store is safe for concurrent workers (threads or processes) without any
    advisory file locking; :meth:`lock` is a no-op by construction.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        super().__init__(path)
        self.timeout = timeout
        self._local = threading.local()

    # --- connections --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            parent = os.path.dirname(os.path.abspath(self.directory))
            os.makedirs(parent, exist_ok=True)
            connection = sqlite3.connect(
                self.directory, timeout=self.timeout, isolation_level=None
            )
            connection.row_factory = sqlite3.Row
            self._enable_wal(connection)
            connection.execute("PRAGMA synchronous=NORMAL")
            self._ensure_schema(connection)
            self._local.connection = connection
        return connection

    def _enable_wal(self, connection: sqlite3.Connection) -> None:
        """Switch the database to WAL, waiting at most ``timeout`` for it.

        SQLite does not apply the busy timeout to the journal-mode switch, so
        when several connections open a fresh database at once the losers
        fail with "database is locked" at once; they retry until the switch
        goes through or the store's timeout runs out.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() >= deadline:
                    connection.close()
                    raise
            time.sleep(0.005)

    def _ensure_schema(self, connection: sqlite3.Connection) -> None:
        connection.executescript(_SCHEMA)
        # Additive migration for databases created before the trace column
        # existed; purely informational, so no SCHEMA_VERSION bump.
        try:
            connection.execute("ALTER TABLE leases ADD COLUMN trace TEXT")
        except sqlite3.OperationalError:
            pass  # column already present
        row = connection.execute("SELECT version FROM schema_info").fetchone()
        if row is None:
            connection.execute(
                "INSERT INTO schema_info(version) VALUES (?)", (SCHEMA_VERSION,)
            )
        elif row["version"] != SCHEMA_VERSION:
            raise ValueError(
                f"store {self.directory!r} has schema version {row['version']}, "
                f"this build expects {SCHEMA_VERSION}"
            )

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction (the writer lock is taken up
        front, so every decision inside is atomic against other workers)."""
        connection = self._connect()
        connection.execute("BEGIN IMMEDIATE")
        try:
            yield connection
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        connection.execute("COMMIT")

    def close(self) -> None:
        """Close this thread's connection (others close when their thread dies)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_local"]  # connections do not cross process/pickle boundaries
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    # --- layout -------------------------------------------------------------

    def entry_path(self, experiment: str, key: str) -> str:
        """Entry *name* (the row key): same spelling as the directory stores,
        minus the directory -- nothing downstream treats it as a real file."""
        return f"{experiment}-{key[:16]}.json"

    # --- result I/O ---------------------------------------------------------

    def load(self, path: str) -> ResultSet | None:
        row = self._connect().execute(
            "SELECT payload FROM results WHERE entry = ?", (path,)
        ).fetchone()
        return None if row is None else _parse_entry(row["payload"])

    def publish(
        self, path: str, result: ResultSet, created_at: float | None = None
    ) -> None:
        """Upsert the entry row and clear its lease + tombstone, atomically.

        ``created_at`` lets :func:`migrate_store` preserve original write
        timestamps; normal publishes stamp the current time.
        """
        self._publish_rows([_result_row(path, result, created_at)])

    def publish_many(self, entries: Iterable[tuple[str, ResultSet]]) -> None:
        """Publish a batch of entries as one transaction (one commit)."""
        self._publish_rows([_result_row(path, result) for path, result in entries])

    def _publish_rows(self, rows: list[tuple]) -> None:
        if not rows:
            return
        entries = [(row[0],) for row in rows]
        with self._txn() as connection:
            connection.executemany(
                """
                INSERT INTO results (entry, experiment, key, version, params,
                                     content_hash, created_at, worker_id,
                                     executor, wall_time_s, n_records,
                                     size_bytes, payload)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT(entry) DO UPDATE SET
                    version = excluded.version,
                    params = excluded.params,
                    content_hash = excluded.content_hash,
                    created_at = excluded.created_at,
                    worker_id = excluded.worker_id,
                    executor = excluded.executor,
                    wall_time_s = excluded.wall_time_s,
                    n_records = excluded.n_records,
                    size_bytes = excluded.size_bytes,
                    payload = excluded.payload
                """,
                rows,
            )
            connection.executemany("DELETE FROM leases WHERE entry = ?", entries)
            # A successful result supersedes any earlier failure of the point.
            connection.executemany("DELETE FROM failures WHERE entry = ?", entries)

    # --- coordination -------------------------------------------------------

    def claim(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> str:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        while True:
            with self._txn() as connection:
                exists = connection.execute(
                    "SELECT 1 FROM results WHERE entry = ?", (path,)
                ).fetchone()
                if exists is None:
                    now = time.time()
                    lease = connection.execute(
                        "SELECT worker, expires_at FROM leases WHERE entry = ?",
                        (path,),
                    ).fetchone()
                    if (
                        lease is not None
                        and lease["worker"] != worker_id
                        and lease["expires_at"] > now
                    ):
                        return CLAIM_BUSY
                    # Fresh point, our own lease (renewal), or a stale lease
                    # left by a dead worker: take (over) the point.
                    connection.execute(
                        """
                        INSERT INTO leases (entry, worker, claimed_at, expires_at, pid, trace)
                        VALUES (?, ?, ?, ?, ?, ?)
                        ON CONFLICT(entry) DO UPDATE SET
                            worker = excluded.worker,
                            claimed_at = excluded.claimed_at,
                            expires_at = excluded.expires_at,
                            pid = excluded.pid,
                            trace = excluded.trace
                        """,
                        (path, worker_id, now, now + ttl, os.getpid(), _trace_json()),
                    )
                    return CLAIM_ACQUIRED
            # A row exists.  Validate it *outside* the write transaction --
            # published entries are immutable, so a successful parse at any
            # time means done, and N workers must not serialise on parsing.
            if self.load(path) is not None:
                return CLAIM_DONE
            # Corrupt row: dispose of it and loop back to take the lease.
            # Re-validate inside the transaction so a concurrent publish
            # that just replaced the torn payload is never deleted.
            with self._txn() as connection:
                row = connection.execute(
                    "SELECT payload FROM results WHERE entry = ?", (path,)
                ).fetchone()
                if row is not None and _parse_entry(row["payload"]) is None:
                    connection.execute(
                        "DELETE FROM results WHERE entry = ?", (path,)
                    )

    def claim_many(
        self,
        paths: list[str],
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        max_acquire: int | None = None,
    ) -> Claims:
        """Batch claim as one ``BEGIN IMMEDIATE`` transaction per pass.

        Same per-path decisions as :meth:`claim`, but N pending points cost
        one writer-lock round trip instead of N.  Payload validation stays
        outside the transaction (published rows are immutable); corrupt rows
        are disposed of and re-examined on a follow-up pass.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        statuses: list[str | None] = [None] * len(paths)
        results: list[ResultSet | None] = [None] * len(paths)
        pending = list(range(len(paths)))
        acquired = 0
        while pending:
            revisit: list[int] = []  # rows exist: validate outside the txn
            with self._txn() as connection:
                now = time.time()
                for index in pending:
                    path = paths[index]
                    if max_acquire is not None and acquired >= max_acquire:
                        statuses[index] = CLAIM_SKIPPED
                        continue
                    exists = connection.execute(
                        "SELECT 1 FROM results WHERE entry = ?", (path,)
                    ).fetchone()
                    if exists is not None:
                        revisit.append(index)
                        continue
                    lease = connection.execute(
                        "SELECT worker, expires_at FROM leases WHERE entry = ?",
                        (path,),
                    ).fetchone()
                    if (
                        lease is not None
                        and lease["worker"] != worker_id
                        and lease["expires_at"] > now
                    ):
                        statuses[index] = CLAIM_BUSY
                        continue
                    connection.execute(
                        """
                        INSERT INTO leases (entry, worker, claimed_at, expires_at, pid, trace)
                        VALUES (?, ?, ?, ?, ?, ?)
                        ON CONFLICT(entry) DO UPDATE SET
                            worker = excluded.worker,
                            claimed_at = excluded.claimed_at,
                            expires_at = excluded.expires_at,
                            pid = excluded.pid,
                            trace = excluded.trace
                        """,
                        (path, worker_id, now, now + ttl, os.getpid(), _trace_json()),
                    )
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
                # Dispose of torn rows (re-validated inside the transaction,
                # so a concurrent good publish is never deleted), then loop
                # back to lease them.
                with self._txn() as connection:
                    for index in corrupt:
                        row = connection.execute(
                            "SELECT payload FROM results WHERE entry = ?",
                            (paths[index],),
                        ).fetchone()
                        if row is not None and _parse_entry(row["payload"]) is None:
                            connection.execute(
                                "DELETE FROM results WHERE entry = ?",
                                (paths[index],),
                            )
            pending = corrupt
        return Claims(statuses, results)

    def release(self, path: str, worker_id: str) -> None:
        with self._txn() as connection:
            connection.execute(
                "DELETE FROM leases WHERE entry = ? AND worker = ?",
                (path, worker_id),
            )

    def renew(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> bool:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        with self._txn() as connection:
            exists = connection.execute(
                "SELECT 1 FROM results WHERE entry = ?", (path,)
            ).fetchone()
            if exists is not None:
                return False  # published meanwhile: nothing left to renew
            now = time.time()
            cursor = connection.execute(
                "UPDATE leases SET expires_at = ? WHERE entry = ? AND worker = ?",
                (now + ttl, path, worker_id),
            )
            return cursor.rowcount > 0

    def record_failure(self, path: str, worker_id: str, error: str) -> None:
        with self._txn() as connection:
            exists = connection.execute(
                "SELECT 1 FROM results WHERE entry = ?", (path,)
            ).fetchone()
            if exists is not None:
                return  # someone published a good result meanwhile
            connection.execute(
                """
                INSERT INTO failures (entry, worker, error, failed_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT(entry) DO UPDATE SET
                    worker = excluded.worker,
                    error = excluded.error,
                    failed_at = excluded.failed_at
                """,
                (path, worker_id, str(error), time.time()),
            )

    def lock(self, timeout: float | None = None) -> ContextManager[None]:
        """No-op: every operation is already a transaction."""
        return nullcontext()

    # --- inspection ---------------------------------------------------------

    def read_lease(self, path: str) -> Lease | None:
        row = self._connect().execute(
            "SELECT * FROM leases WHERE entry = ?", (path,)
        ).fetchone()
        if row is None:
            return None
        return Lease(
            path=row["entry"] + LEASE_SUFFIX,
            worker=row["worker"],
            claimed_at=row["claimed_at"],
            expires_at=row["expires_at"],
            pid=row["pid"],
            trace=_row_trace(row["trace"]),
        )

    def leases(self, now: float | None = None) -> list[Lease]:
        """All current leases, sorted by entry (expired ones included).

        ``Lease.path`` carries the conventional ``.lease`` suffix so
        provenance-reading code works identically across backends."""
        rows = self._connect().execute(
            "SELECT * FROM leases ORDER BY entry"
        ).fetchall()
        return [
            Lease(
                path=row["entry"] + LEASE_SUFFIX,
                worker=row["worker"],
                claimed_at=row["claimed_at"],
                expires_at=row["expires_at"],
                pid=row["pid"],
                trace=_row_trace(row["trace"]),
            )
            for row in rows
        ]

    def failures(self) -> list[dict]:
        """All failure tombstones, shaped like the directory stores'."""
        rows = self._connect().execute(
            "SELECT * FROM failures ORDER BY entry"
        ).fetchall()
        return [
            {
                "worker": row["worker"],
                "error": row["error"],
                "failed_at": row["failed_at"],
                "path": row["entry"] + FAILED_SUFFIX,
            }
            for row in rows
        ]

    # --- maintenance --------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Entry, lease, or tombstone existence by its conventional name."""
        connection = self._connect()
        if path.endswith(LEASE_SUFFIX):
            query, name = "SELECT 1 FROM leases WHERE entry = ?", path[: -len(LEASE_SUFFIX)]
        elif path.endswith(FAILED_SUFFIX):
            query, name = "SELECT 1 FROM failures WHERE entry = ?", path[: -len(FAILED_SUFFIX)]
        else:
            query, name = "SELECT 1 FROM results WHERE entry = ?", path
        return connection.execute(query, (name,)).fetchone() is not None

    def entries(self, read_meta: bool = True) -> list:
        """All entries from the metadata columns -- payload blobs untouched."""
        from repro.api.cache import CacheEntry

        rows = self._connect().execute(
            """
            SELECT entry, experiment, key, version, params, created_at, size_bytes
            FROM results ORDER BY entry
            """
        ).fetchall()
        found = []
        for row in rows:
            params = None
            if read_meta and row["params"] is not None:
                try:
                    params = json.loads(row["params"])
                except json.JSONDecodeError:
                    params = None
            found.append(
                CacheEntry(
                    path=row["entry"],
                    experiment=row["experiment"],
                    key=row["key"],
                    version=row["version"] if read_meta else None,
                    params=params,
                    size_bytes=row["size_bytes"],
                    mtime=row["created_at"],
                )
            )
        return found

    def remove_entries(self, paths: list[str]) -> int:
        if not paths:
            return 0
        removed = 0
        with self._txn() as connection:
            for chunk in _chunks(list(paths), 500):
                marks = ",".join("?" for _ in chunk)
                cursor = connection.execute(
                    f"DELETE FROM results WHERE entry IN ({marks})", chunk
                )
                removed += cursor.rowcount
                connection.execute(
                    f"DELETE FROM leases WHERE entry IN ({marks})", chunk
                )
                connection.execute(
                    f"DELETE FROM failures WHERE entry IN ({marks})", chunk
                )
        return removed

    def collect_garbage(
        self,
        now: float | None = None,
        dry_run: bool = False,
        keep_pending_failures: bool = False,
    ) -> list[str]:
        """Lease/tombstone GC as two conditional ``DELETE`` statements."""
        timestamp = time.time() if now is None else now
        stale_leases = (
            "entry IN (SELECT entry FROM results) OR expires_at <= ?"
        )
        stale_failures = (
            "entry IN (SELECT entry FROM results)"
            if keep_pending_failures
            else "1=1"
        )
        with self._txn() as connection:
            stale = [
                row["entry"] + LEASE_SUFFIX
                for row in connection.execute(
                    f"SELECT entry FROM leases WHERE {stale_leases} ORDER BY entry",
                    (timestamp,),
                )
            ] + [
                row["entry"] + FAILED_SUFFIX
                for row in connection.execute(
                    f"SELECT entry FROM failures WHERE {stale_failures} ORDER BY entry"
                )
            ]
            if not dry_run:
                connection.execute(
                    f"DELETE FROM leases WHERE {stale_leases}", (timestamp,)
                )
                connection.execute(f"DELETE FROM failures WHERE {stale_failures}")
        return stale


def _result_row(path: str, result: ResultSet, created_at: float | None = None) -> tuple:
    """The ``results`` row of one entry, serialised outside any transaction."""
    payload = result.to_json()
    meta = result.meta or {}
    match = _ENTRY_PATTERN.fullmatch(path)
    experiment = (
        match.group("experiment") if match else str(meta.get("experiment", path))
    )
    params = meta.get("params")
    return (
        path,
        experiment,
        match.group("key") if match else "",
        _text_or_none(meta.get("version")),
        None if params is None else json.dumps(params, sort_keys=True, default=str),
        _text_or_none(meta.get("content_hash")) or result.content_hash,
        time.time() if created_at is None else created_at,
        _text_or_none(meta.get("worker_id")),
        _text_or_none(meta.get("executor")),
        meta.get("wall_time_s"),
        len(result),
        len(payload),
        payload,
    )


def _text_or_none(value: Any) -> str | None:
    return None if value is None else str(value)


def _chunks(items: list, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


SQLITE_SCHEMES = ("sqlite:///", "sqlite://", "sqlite:")
"""Accepted URL spellings; ``sqlite:///x.db`` is relative, ``sqlite:////x.db``
absolute (the SQLAlchemy convention)."""


def resolve_store(spec: "str | ResultStore") -> ResultStore:
    """Turn a CLI ``--store`` spelling into a :class:`ResultStore`.

    * ``sqlite:///path.db`` / ``sqlite:path.db`` -- a :class:`SqliteStore`;
    * a path to an existing regular *file* -- also a :class:`SqliteStore`
      (a store database someone already created);
    * anything else -- a :class:`SharedStore` directory store.

    Store instances pass through unchanged, so call sites can accept both.
    """
    if isinstance(spec, ResultStore):
        return spec
    text = str(spec)
    if text.startswith("sqlite:"):
        path = text[len("sqlite:") :]
        if path.startswith("//"):
            path = path[2:]
            # SQLAlchemy convention: three slashes = relative, four = absolute.
            if path.startswith("/"):
                path = path[1:]
                if path.startswith("/"):
                    path = "/" + path.lstrip("/")
        if not path:
            raise ValueError(f"no database path in store spec {text!r}")
        return SqliteStore(path)
    if os.path.isfile(text):
        return SqliteStore(text)
    return SharedStore(text)


@dataclass
class MigrationReport:
    """What :func:`migrate_store` moved (and what it could not)."""

    source: str
    destination: str
    migrated: int = 0
    failures: int = 0
    skipped: list[str] = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"migrated {self.migrated} entries",
            f"{self.failures} tombstones",
        ]
        if self.skipped:
            parts.append(f"skipped {len(self.skipped)} corrupt entries")
        return f"{self.source} -> {self.destination}: " + ", ".join(parts)


def migrate_store(source: ResultStore, destination: ResultStore) -> MigrationReport:
    """Copy every loadable entry (plus tombstones) between store backends.

    Entry names, payloads and write timestamps are preserved, so content
    hashes -- and therefore cache identity -- survive the move; corrupt
    source entries are skipped and reported rather than aborting the run.
    The usual direction is directory -> sqlite (``repro migrate``), but any
    pairing of backends works.
    """
    report = MigrationReport(
        source=source.directory, destination=destination.directory
    )
    for entry in source.entries(read_meta=False):
        result = source.load(entry.path)
        if result is None:
            report.skipped.append(entry.path)
            continue
        target_path = destination.entry_path(entry.experiment, entry.key)
        if isinstance(destination, SqliteStore):
            destination.publish(target_path, result, created_at=entry.mtime)
        else:
            destination.publish(target_path, result)
            os.utime(target_path, (entry.mtime, entry.mtime))
    report.migrated = len(source.entries(read_meta=False)) - len(report.skipped)
    failures = getattr(source, "failures", None)
    for tombstone in failures() if callable(failures) else []:
        name = os.path.basename(str(tombstone.get("path", "")))
        if not name.endswith(FAILED_SUFFIX):
            continue
        destination.record_failure(
            name[: -len(FAILED_SUFFIX)],
            str(tombstone.get("worker", "")),
            str(tombstone.get("error", "")),
        )
        report.failures += 1
    return report

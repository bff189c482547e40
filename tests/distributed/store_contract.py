"""Store-conformance harness: one protocol battery, every backend.

``test_store_contract.py`` runs the full store protocol battery -- publish /
load round-trips, claim lifecycle, stale-lease takeover, tombstones,
concurrent exactly-once claiming, maintenance -- identically against every
backend listed in :data:`HARNESSES`.  Each harness adapts one backend to the
battery: how to build a store under a tmp directory, how to spell it for a
subprocess (:func:`repro.dist.resolve_store`), and how to fake the failure
modes a black-box test cannot reach (torn entries, orphaned bookkeeping).

Adding a backend means adding one harness here; the battery is inherited
unchanged.  ``tests/distributed/faults.py`` reuses the same harnesses for
crash-injection runs.
"""

import json
import os

from repro.dist import FAILED_SUFFIX, LEASE_SUFFIX, SharedStore
from repro.dist.sqlstore import SqliteStore


TORN_ENTRY = '{"columns": '
"""What a write cut short leaves behind."""

BROKEN_ENTRIES = (TORN_ENTRY, "[]", '"abc"', '{"columns": 5}')
"""Entry texts every backend must load as missing: a torn write and valid
JSON of three wrong shapes."""


class StoreHarness:
    """One backend's adapter for the shared conformance battery."""

    name = "base"

    def make(self, root):
        """Build a fresh store rooted under ``root`` (a tmp directory)."""
        raise NotImplementedError

    def spec(self, root):
        """``resolve_store`` spelling a *subprocess* can reopen the store
        from (crash-injection workers receive the store this way)."""
        raise NotImplementedError

    def corrupt_entry(self, store, path, text=TORN_ENTRY):
        """Replace the entry at ``path`` with ``text`` (default: a torn write)."""
        raise NotImplementedError

    def orphan_lease(self, store, path, worker="orphan"):
        """Plant a live lease *without* going through ``claim`` -- the
        residue a publish that crashed between entry write and lease
        cleanup would leave."""
        raise NotImplementedError

    def orphan_tombstone(self, store, path, worker="orphan"):
        """Plant a failure tombstone regardless of entry existence -- the
        residue of a failure report racing a successful publish."""
        raise NotImplementedError


class _DirectoryHarness(StoreHarness):
    """Shared behaviour of the file-per-entry backends."""

    cls = None

    def make(self, root):
        return self.cls(self.spec(root))

    def spec(self, root):
        return os.path.join(str(root), f"{self.name}-store")

    def corrupt_entry(self, store, path, text=TORN_ENTRY):
        os.makedirs(store.directory, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)

    def orphan_lease(self, store, path, worker="orphan"):
        os.makedirs(store.directory, exist_ok=True)
        payload = {
            "worker": worker,
            "claimed_at": 0.0,
            "expires_at": 4102444800.0,  # year 2100: never expires on its own
            "pid": None,
        }
        with open(path + LEASE_SUFFIX, "w") as handle:
            json.dump(payload, handle)

    def orphan_tombstone(self, store, path, worker="orphan"):
        os.makedirs(store.directory, exist_ok=True)
        payload = {"worker": worker, "error": "boom", "failed_at": 0.0}
        with open(path + FAILED_SUFFIX, "w") as handle:
            json.dump(payload, handle)


class SharedHarness(_DirectoryHarness):
    name = "shared"
    cls = SharedStore


class CacheDirHarness(_DirectoryHarness):
    """The store ``Engine(cache_dir=d)`` and ``--cache-dir d`` build: the
    battery pins that this spelling gets the whole lease-safe contract."""

    name = "cache_dir"

    def make(self, root):
        from repro.api import Engine

        return Engine(cache_dir=self.spec(root)).store


class SqliteHarness(StoreHarness):
    name = "sqlite"

    def make(self, root):
        return SqliteStore(os.path.join(str(root), "store.db"))

    def spec(self, root):
        # Absolute path: SQLAlchemy's four-slash spelling.
        return "sqlite:///" + os.path.join(str(root), "store.db")

    def corrupt_entry(self, store, path, text=TORN_ENTRY):
        connection = store._connect()
        cursor = connection.execute(
            "UPDATE results SET payload = ? WHERE entry = ?", (text, path)
        )
        if cursor.rowcount == 0:
            connection.execute(
                """
                INSERT INTO results (entry, experiment, key, created_at,
                                     size_bytes, payload)
                VALUES (?, 'torn', ?, 0.0, ?, ?)
                """,
                (path, "0" * 16, len(text), text),
            )

    def orphan_lease(self, store, path, worker="orphan"):
        store._connect().execute(
            """
            INSERT OR REPLACE INTO leases (entry, worker, claimed_at,
                                           expires_at, pid)
            VALUES (?, ?, 0.0, 4102444800.0, NULL)
            """,
            (path, worker),
        )

    def orphan_tombstone(self, store, path, worker="orphan"):
        store._connect().execute(
            """
            INSERT OR REPLACE INTO failures (entry, worker, error, failed_at)
            VALUES (?, ?, 'boom', 0.0)
            """,
            (path, worker),
        )


HARNESSES = (SharedHarness(), CacheDirHarness(), SqliteHarness())
"""Every store backend the conformance battery runs against."""

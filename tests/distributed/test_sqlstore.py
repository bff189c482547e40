"""SqliteStore specifics: spec resolution, schema guard, migration, parity.

The cross-backend protocol behaviour is covered by the conformance battery
(``test_store_contract.py``); this file tests what is unique to the sqlite
backend -- ``resolve_store`` spellings, the schema version guard, directory
-> database migration, and the end-to-end guarantee that a sweep executed
through a :class:`SqliteStore` produces content-hash-identical results to a
serial ``Engine(cache_dir=...)`` run.
"""

import os
import sqlite3
import threading
import time

import pytest

from repro.api import Engine, ParamSpec, register_experiment, unregister_experiment
from repro.api.results import ResultSet
from repro.dist import (
    SharedStore,
    SqliteStore,
    migrate_store,
    resolve_store,
    run_worker,
)
from repro.api import SweepSpec
from repro.dist.sqlstore import SCHEMA_VERSION


@pytest.fixture
def sql_experiment():
    @register_experiment(
        "sqlstore_exp", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def sqlstore_exp(x):
        return [{"x": x, "y": x * x}]

    yield "sqlstore_exp"
    unregister_experiment("sqlstore_exp")


def _result(x=1.0, experiment="sqlstore_exp"):
    return ResultSet.from_records(
        [{"x": x, "y": x * x}],
        meta={"experiment": experiment, "version": "1", "params": {"x": x}},
    )


class TestResolveStore:
    def test_sqlite_url_spellings(self, tmp_path):
        relative = resolve_store("sqlite:///sweeps.db")
        assert isinstance(relative, SqliteStore)
        assert relative.directory == "sweeps.db"

        absolute = resolve_store(f"sqlite:///{tmp_path}/sweeps.db")
        assert isinstance(absolute, SqliteStore)
        assert absolute.directory == f"{tmp_path}/sweeps.db"

        assert resolve_store("sqlite:plain.db").directory == "plain.db"
        assert resolve_store("sqlite://plain.db").directory == "plain.db"
        assert resolve_store("sqlite:/abs/plain.db").directory == "/abs/plain.db"

    def test_empty_sqlite_path_rejected(self):
        with pytest.raises(ValueError, match="no database path"):
            resolve_store("sqlite:///")

    def test_existing_file_is_sqlite(self, tmp_path):
        db = str(tmp_path / "existing.db")
        SqliteStore(db).publish("exp-" + "0" * 16 + ".json", _result())
        assert isinstance(resolve_store(db), SqliteStore)

    def test_directory_paths_stay_directory_stores(self, tmp_path):
        assert isinstance(resolve_store(str(tmp_path)), SharedStore)
        assert isinstance(resolve_store(str(tmp_path / "new-dir")), SharedStore)

    def test_store_instances_pass_through(self, tmp_path):
        store = SqliteStore(str(tmp_path / "x.db"))
        assert resolve_store(store) is store


class TestSchemaGuard:
    def test_future_schema_is_rejected(self, tmp_path):
        db = str(tmp_path / "future.db")
        store = SqliteStore(db)
        store.publish("exp-" + "0" * 16 + ".json", _result())
        store.close()
        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE schema_info SET version = ?", (SCHEMA_VERSION + 1,)
            )
        with pytest.raises(ValueError, match="schema version"):
            SqliteStore(db).entries()


class TestFirstConnect:
    def test_racing_first_connects_never_fail(self, tmp_path):
        """Eight threads opening one fresh database at once: SQLite does not
        apply the busy timeout to the WAL switch, which used to fail a
        loser with "database is locked" in about 1 of 60 databases."""
        path = "exp-" + "0" * 16 + ".json"
        n = 8
        for trial in range(60):
            store = SqliteStore(str(tmp_path / f"race-{trial}.db"))
            barrier = threading.Barrier(n)
            outcomes = [None] * n

            def contend(index):
                barrier.wait()
                try:
                    outcomes[index] = store.claim(path, f"w{index}", ttl=60.0)
                except sqlite3.OperationalError as error:
                    outcomes[index] = repr(error)

            threads = [
                threading.Thread(target=contend, args=(index,)) for index in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(outcomes) == ["acquired"] + ["busy"] * (n - 1), trial

    def test_wait_for_a_held_lock_stays_within_timeout(self, tmp_path):
        db = str(tmp_path / "held.db")
        holder = sqlite3.connect(db, isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            start = time.monotonic()
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                SqliteStore(db, timeout=0.3).entries()
            assert 0.3 <= time.monotonic() - start < 2.0
        finally:
            holder.execute("ROLLBACK")
            holder.close()


class TestEngineIntegration:
    def test_engine_accepts_store_spec_string(self, sql_experiment, tmp_path):
        db = str(tmp_path / "engine.db")
        engine = Engine(store=f"sqlite:///{db}")
        assert isinstance(engine.store, SqliteStore)
        first = engine.run(sql_experiment, x=2.0)
        assert first.meta.get("cache_hit") is None
        again = engine.run(sql_experiment, x=2.0)
        assert again.meta.get("cache_hit") is True
        assert again.content_hash == first.content_hash

    def test_sqlite_sweep_matches_serial_local_run(self, sql_experiment, tmp_path):
        """The acceptance bar: a sweep through a SqliteStore merges to the
        same content hash as the classic serial cache-directory run."""
        xs = [1.0, 2.0, 3.0, 4.0]
        serial = Engine(cache_dir=str(tmp_path / "cache")).sweep(
            sql_experiment, SweepSpec.grid(x=xs)
        )
        store = SqliteStore(str(tmp_path / "sweep.db"))
        report = run_worker(
            sql_experiment, SweepSpec.grid(x=xs), store, worker_id="w1", wait=False
        )
        assert report.executed == [0, 1, 2, 3]
        merger = Engine(store=store)
        merged = merger.sweep(sql_experiment, SweepSpec.grid(x=xs))
        assert merger.cache_hits == len(xs)  # every point served from the db
        assert merged.content_hash == serial.content_hash


class TestMigration:
    def test_directory_to_sqlite_preserves_identity(self, sql_experiment, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = Engine(cache_dir=cache_dir)
        for x in (1.0, 2.0, 3.0):
            engine.run(sql_experiment, x=x)
        source = SharedStore(cache_dir)
        source.record_failure(
            source.entry_path(sql_experiment, "f" * 16), "w1", "boom"
        )

        destination = SqliteStore(str(tmp_path / "migrated.db"))
        report = migrate_store(source, destination)
        assert report.migrated == 3
        assert report.failures == 1
        assert report.skipped == []
        assert "migrated 3 entries" in report.summary()

        by_key = {entry.key: entry for entry in source.entries()}
        for entry in destination.entries():
            if entry.key == "f" * 16:
                continue
            twin = by_key[entry.key]
            assert destination.load(entry.path).content_hash == (
                source.load(twin.path).content_hash
            )
            assert entry.mtime == pytest.approx(twin.mtime)  # timestamps survive
            assert entry.params == twin.params
        assert len(destination.failures()) == 1
        # Re-running the engine against the migrated store hits the cache.
        served = Engine(store=destination).run(sql_experiment, x=2.0)
        assert served.meta.get("cache_hit") is True

    def test_corrupt_source_entries_are_skipped(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        source = SharedStore(str(cache_dir))
        good = source.entry_path("exp", "a" * 16)
        source.publish(good, _result(experiment="exp"))
        torn = cache_dir / ("exp-" + "b" * 16 + ".json")
        torn.write_text('{"columns": ')

        destination = SqliteStore(str(tmp_path / "migrated.db"))
        report = migrate_store(source, destination)
        assert report.migrated == 1
        assert report.skipped == [str(torn)]
        assert "skipped 1 corrupt entries" in report.summary()
        assert len(destination.entries()) == 1

    def test_sqlite_to_directory_roundtrip(self, tmp_path):
        source = SqliteStore(str(tmp_path / "source.db"))
        path = source.entry_path("exp", "a" * 16)
        source.publish(path, _result(experiment="exp"), created_at=1234567890.0)

        destination = SharedStore(str(tmp_path / "cache"))
        report = migrate_store(source, destination)
        assert report.migrated == 1
        entry = destination.entries()[0]
        assert entry.mtime == pytest.approx(1234567890.0)
        assert destination.load(entry.path).content_hash == (
            source.load(path).content_hash
        )


class TestVirtualPaths:
    def test_entry_path_is_a_row_key_not_a_file(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.db"))
        path = store.entry_path("exp", "a" * 32)
        assert path == "exp-" + "a" * 16 + ".json"
        store.publish(path, _result(experiment="exp"))
        assert not os.path.exists(path)  # no such file: it is a row
        assert store.load(path) is not None

    def test_close_and_reopen(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.db"))
        path = store.entry_path("exp", "a" * 16)
        store.publish(path, _result(experiment="exp"))
        store.close()
        assert store.load(path) is not None  # reconnects lazily

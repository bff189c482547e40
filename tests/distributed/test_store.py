"""Result-store contract: layout, claims, leases, locking, prune safety."""

import json
import os
import threading
import time

import pytest

from repro.api import Engine, ResultSet
from repro.api.cache import clear_cache, prune_cache, scan_cache
from repro.api.engine import cache_key
from repro.api.experiment import Experiment, ParamSpec
from repro.dist import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    FAILED_SUFFIX,
    LEASE_SUFFIX,
    SharedStore,
    StoreLockTimeout,
    store_lock,
)


def _experiment() -> Experiment:
    return Experiment(
        name="dist_store_exp",
        fn=lambda x=1.0: [{"x": x, "y": 2.0 * x}],
        params=(ParamSpec("x", "float", 1.0, "input"),),
        description="store test experiment",
    )


def _result(x: float = 1.0) -> ResultSet:
    return ResultSet.from_records(
        [{"x": x, "y": 2.0 * x}],
        meta={"experiment": "dist_store_exp", "version": "1", "params": {"x": x}},
    )


class TestDirectoryStore:
    def test_layout_matches_engine_cache(self, tmp_path):
        """Engine(store=SharedStore(d)) and Engine(cache_dir=d) are the same store."""
        from repro.dist import resolve_store

        directory = str(tmp_path)
        experiment = _experiment()
        Engine(cache_dir=directory).run(experiment, x=3.0)

        engine = Engine(store=SharedStore(directory))
        assert engine.cache_dir == directory
        served = engine.run(experiment, x=3.0)
        assert served.meta.get("cache_hit") is True
        assert type(Engine(cache_dir=directory).store) is SharedStore
        assert type(Engine(store=directory).store) is SharedStore
        assert type(resolve_store(directory)) is SharedStore

    def test_cache_dir_and_store_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Engine(cache_dir=str(tmp_path), store=SharedStore(str(tmp_path)))

    def test_cache_dir_publish_clears_lease_and_tombstone(self, tmp_path):
        from store_contract import SharedHarness

        directory = str(tmp_path)
        experiment = _experiment()
        engine = Engine(cache_dir=directory)
        path = engine.store.entry_path(
            experiment.name,
            cache_key(experiment.name, experiment.version, experiment.resolve_params({})),
        )
        SharedHarness().orphan_lease(engine.store, path)
        SharedHarness().orphan_tombstone(engine.store, path)
        engine.run(experiment)
        assert os.path.exists(path)
        assert not os.path.exists(path + LEASE_SUFFIX)
        assert not os.path.exists(path + FAILED_SUFFIX)

    def test_load_tolerates_an_entry_removed_mid_read(self, tmp_path, monkeypatch):
        """A prune may remove an entry between any check and the read."""
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "0" * 16)
        monkeypatch.setattr(os.path, "exists", lambda _: True)
        assert store.load(path) is None


class TestSharedStoreClaims:
    def test_claim_lifecycle(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "c" * 16)

        assert store.claim(path, "w1", ttl=60.0) == CLAIM_ACQUIRED
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_BUSY
        # Re-claiming one's own lease renews it instead of blocking.
        assert store.claim(path, "w1", ttl=60.0) == CLAIM_ACQUIRED

        store.publish(path, _result())
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_DONE
        # Publish removed the lease file.
        assert store.leases() == []

    def test_release_frees_the_point(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "d" * 16)
        assert store.claim(path, "w1", ttl=60.0) == CLAIM_ACQUIRED
        store.release(path, "w1")
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_ACQUIRED

    def test_release_is_owner_only(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "e" * 16)
        store.claim(path, "w1", ttl=60.0)
        store.release(path, "w2")  # not the owner: no-op
        assert store.claim(path, "w3", ttl=60.0) == CLAIM_BUSY

    def test_stale_lease_is_recovered(self, tmp_path):
        """A dead worker's expired lease must not block the point forever."""
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "f" * 16)
        assert store.claim(path, "dead-worker", ttl=0.05) == CLAIM_ACQUIRED
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_BUSY
        time.sleep(0.06)
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_ACQUIRED

    def test_corrupt_lease_counts_as_claimable(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "1" * 16)
        store.claim(path, "w1", ttl=60.0)
        with open(path + ".lease", "w") as handle:
            handle.write("not json")
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_ACQUIRED

    def test_corrupt_entry_is_claimable_not_done(self, tmp_path):
        """A torn entry must be recomputed, not skipped as done forever."""
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "8" * 16)
        with open(path, "w") as handle:
            handle.write('{"truncated": ')
        assert store.claim(path, "w1", ttl=60.0) == CLAIM_ACQUIRED

    def test_invalid_ttl_rejected(self, tmp_path):
        store = SharedStore(str(tmp_path))
        with pytest.raises(ValueError, match="ttl"):
            store.claim(store.entry_path("x", "2" * 16), "w1", ttl=0.0)

    def test_leases_listing(self, tmp_path):
        store = SharedStore(str(tmp_path))
        a = store.entry_path("dist_store_exp", "3" * 16)
        b = store.entry_path("dist_store_exp", "4" * 16)
        store.claim(a, "w1", ttl=60.0)
        store.claim(b, "w2", ttl=60.0)
        leases = store.leases()
        assert {lease.worker for lease in leases} == {"w1", "w2"}
        assert {lease.entry_path for lease in leases} == {a, b}
        assert all(not lease.expired() for lease in leases)

    def test_lease_files_invisible_to_cache_scan(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = store.entry_path("dist_store_exp", "5" * 16)
        store.claim(path, "w1", ttl=60.0)
        assert scan_cache(str(tmp_path)) == []


class TestStoreLock:
    def test_lock_is_exclusive_with_timeout(self, tmp_path):
        directory = str(tmp_path)
        holding = threading.Event()
        done = threading.Event()

        def holder():
            with store_lock(directory):
                holding.set()
                done.wait(timeout=5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert holding.wait(timeout=5.0)
            with pytest.raises(StoreLockTimeout):
                with store_lock(directory, timeout=0.05):
                    pass
        finally:
            done.set()
            thread.join()
        # Released: acquirable again.
        with store_lock(directory, timeout=1.0):
            pass

    def test_shared_store_lock_method(self, tmp_path):
        store = SharedStore(str(tmp_path))
        with store.lock(timeout=1.0):
            with pytest.raises(StoreLockTimeout):
                with store_lock(store.directory, timeout=0.05):
                    pass


class TestPruneDuringWrite:
    """`cache prune`/`clear` racing live writers leaves the store consistent."""

    def _assert_consistent(self, directory: str) -> None:
        for filename in os.listdir(directory):
            assert not filename.endswith(".tmp"), "temp debris left behind"
            if not filename.endswith(".json"):
                continue
            # Every surviving entry must be a complete, hash-valid ResultSet.
            ResultSet.from_json(os.path.join(directory, filename))

    def test_prune_racing_concurrent_writers(self, tmp_path):
        directory = str(tmp_path)
        store = SharedStore(directory)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(offset: int) -> None:
            i = 0
            try:
                while not stop.is_set():
                    x = float(offset + i % 25)
                    path = store.entry_path("dist_store_exp", f"{offset + i % 25:016x}")
                    store.publish(path, _result(x))
                    i += 1
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(k * 100,)) for k in range(2)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                prune_cache(directory, experiment="dist_store_exp", older_than=0.0)
                clear_cache(directory)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        self._assert_consistent(directory)

    def test_clear_disposes_stale_leases_with_entries(self, tmp_path):
        directory = str(tmp_path)
        store = SharedStore(directory)
        path = store.entry_path("dist_store_exp", "6" * 16)
        store.publish(path, _result())
        # Simulate a dead worker's leftover lease next to the entry.
        with open(path + ".lease", "w") as handle:
            json.dump(
                {"worker": "dead", "claimed_at": 0.0, "expires_at": 0.0}, handle
            )
        assert clear_cache(directory) == 1
        assert not os.path.exists(path + ".lease")

    def test_prune_removes_entry_and_its_lease(self, tmp_path):
        directory = str(tmp_path)
        store = SharedStore(directory)
        path = store.entry_path("dist_store_exp", "7" * 16)
        store.publish(path, _result())
        with open(path + ".lease", "w") as handle:
            json.dump(
                {"worker": "dead", "claimed_at": 0.0, "expires_at": 0.0}, handle
            )
        removed = prune_cache(directory, experiment="dist_store_exp", older_than=0.0)
        assert [entry.path for entry in removed] == [path]
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".lease")

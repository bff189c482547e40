"""The store-conformance battery: one protocol suite, run per backend.

Every test takes the parametrised ``store`` fixture, so each assertion runs
identically against ``SharedStore`` (built directly and through
``Engine(cache_dir=)``) and ``SqliteStore`` -- the seam the engine, workers,
daemons and HTTP service all execute through.
"""

import pickle
import threading
import time

import pytest

from repro.api import ParamSpec, ResultSet, register_experiment, unregister_experiment
from repro.api.cache import clear_cache, gc_store, prune_cache, scan_cache
from repro.dist import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    FAILED_SUFFIX,
    LEASE_SUFFIX,
    run_worker,
)
from store_contract import BROKEN_ENTRIES, HARNESSES

from repro.api import SweepSpec


def _result(x=1.0, experiment="contract_exp", version="1"):
    return ResultSet.from_records(
        [{"x": x, "y": 2.0 * x}],
        meta={"experiment": experiment, "version": version, "params": {"x": x}},
    )


@pytest.fixture(params=HARNESSES, ids=lambda h: h.name)
def harness(request):
    return request.param


@pytest.fixture
def store(harness, tmp_path):
    return harness.make(tmp_path)


@pytest.fixture
def contract_experiment():
    @register_experiment(
        "contract_exp", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def contract(x):
        return [{"x": x, "y": 2.0 * x}]

    yield "contract_exp"
    unregister_experiment("contract_exp")


def _path(store, key_digit="0"):
    return store.entry_path("contract_exp", key_digit * 16)


class TestResultIO:
    def test_publish_load_roundtrip(self, store):
        path = _path(store)
        original = _result(3.0)
        store.publish(path, original)
        loaded = store.load(path)
        assert loaded is not None
        assert loaded.to_records() == original.to_records()
        assert loaded.content_hash == original.content_hash
        assert loaded.meta["params"] == {"x": 3.0}

    def test_load_missing_is_none(self, store):
        assert store.load(_path(store)) is None

    def test_load_corrupt_is_none(self, harness, store, tmp_path):
        path = _path(store)
        store.publish(path, _result())
        for text in BROKEN_ENTRIES:
            harness.corrupt_entry(store, path, text)
            assert store.load(path) is None, text
        # An entry's text is never opened as a file path, even one that names
        # a valid entry.
        valid = tmp_path / "valid.json"
        valid.write_text(_result().to_json())
        harness.corrupt_entry(store, path, str(valid))
        assert store.load(path) is None

    def test_publish_overwrites(self, store):
        path = _path(store)
        store.publish(path, _result(1.0))
        store.publish(path, _result(2.0))
        assert store.load(path).to_records()[0]["x"] == 2.0

    def test_entry_path_is_content_addressed_name(self, store):
        path = store.entry_path("contract_exp", "abcdef0123456789" + "ff")
        # Keys longer than 16 hex chars are truncated to the canonical name.
        assert path.endswith("contract_exp-abcdef0123456789.json")

    def test_pickle_roundtrip(self, store):
        path = _path(store)
        store.publish(path, _result(4.0))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.load(path).to_records()[0]["x"] == 4.0


class TestClaimLifecycle:
    def test_claim_acquired_then_done(self, store):
        path = _path(store)
        assert store.claim(path, "w1") == CLAIM_ACQUIRED
        store.publish(path, _result())
        assert store.claim(path, "w2") == CLAIM_DONE

    def test_claim_recomputes_corrupt_entry(self, harness, store):
        path = _path(store)
        # A broken entry must be re-executed, never skipped forever.
        for worker, text in enumerate(BROKEN_ENTRIES):
            store.publish(path, _result())
            harness.corrupt_entry(store, path, text)
            assert store.claim(path, f"w{worker}") == CLAIM_ACQUIRED, text

    def test_claim_rejects_nonpositive_ttl(self, store):
        with pytest.raises(ValueError):
            store.claim(_path(store), "w1", ttl=0.0)

    def test_second_worker_is_busy(self, store):
        path = _path(store)
        assert store.claim(path, "w1", ttl=60.0) == CLAIM_ACQUIRED
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_BUSY

    def test_own_reclaim_renews(self, store):
        path = _path(store)
        store.claim(path, "w1", ttl=60.0)
        before = store.read_lease(path)
        time.sleep(0.01)
        assert store.claim(path, "w1", ttl=120.0) == CLAIM_ACQUIRED
        after = store.read_lease(path)
        assert after.worker == "w1"
        assert after.expires_at > before.expires_at

    def test_stale_lease_takeover(self, store):
        path = _path(store)
        assert store.claim(path, "dead", ttl=0.05) == CLAIM_ACQUIRED
        time.sleep(0.1)
        assert store.claim(path, "w2", ttl=60.0) == CLAIM_ACQUIRED
        assert store.read_lease(path).worker == "w2"

    def test_release_is_owner_only(self, store):
        path = _path(store)
        store.claim(path, "w1", ttl=60.0)
        store.release(path, "w2")  # foreign release: must not drop it
        assert store.claim(path, "w3", ttl=60.0) == CLAIM_BUSY
        store.release(path, "w1")
        assert store.claim(path, "w3", ttl=60.0) == CLAIM_ACQUIRED

    def test_publish_clears_lease(self, store):
        path = _path(store)
        store.claim(path, "w1", ttl=60.0)
        store.publish(path, _result())
        assert store.read_lease(path) is None
        assert store.claim(path, "w2") == CLAIM_DONE

    def test_concurrent_claims_acquire_exactly_once(self, store):
        """N workers racing one point: exactly one wins, the rest see busy."""
        path = _path(store)
        n = 8
        barrier = threading.Barrier(n)
        outcomes = [None] * n

        def contend(index):
            barrier.wait()
            outcomes[index] = store.claim(path, f"w{index}", ttl=60.0)

        threads = [
            threading.Thread(target=contend, args=(index,)) for index in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(CLAIM_ACQUIRED) == 1
        assert outcomes.count(CLAIM_BUSY) == n - 1


class TestClaimMany:
    def test_claim_many_returns_the_results_it_loaded(self, store):
        paths = [_path(store, digit) for digit in "012"]
        store.publish(paths[0], _result(1.0))
        store.publish(paths[2], _result(3.0))
        claims = store.claim_many(paths, "w1")
        assert claims == [CLAIM_DONE, CLAIM_ACQUIRED, CLAIM_DONE]
        assert claims.results[1] is None
        assert claims.results[0].to_records() == _result(1.0).to_records()
        assert claims.results[2].to_records() == _result(3.0).to_records()

    def test_skipped_paths_carry_no_result(self, store):
        paths = [_path(store, digit) for digit in "012"]
        claims = store.claim_many(paths, "w1", max_acquire=1)
        assert claims.results == [None, None, None]

    def test_worker_loads_each_done_point_once(
        self, contract_experiment, store, monkeypatch
    ):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
        run_worker(contract_experiment, spec, store, worker_id="w1", wait=False)
        loaded = []
        load = store.load

        def counting_load(path):
            loaded.append(path)
            return load(path)

        monkeypatch.setattr(store, "load", counting_load)
        report = run_worker(
            contract_experiment, spec, store, worker_id="w2", wait=False
        )
        assert sorted(report.already_done) == [0, 1, 2, 3]
        assert len(loaded) == len(spec) == len(set(loaded))


class TestRenewal:
    def test_renew_extends_own_lease_only(self, store):
        path = _path(store)
        assert store.renew(path, "w1", ttl=60.0) is False  # nothing leased
        store.claim(path, "w1", ttl=1.0)
        before = store.read_lease(path)
        assert store.renew(path, "w1", ttl=60.0) is True
        assert store.read_lease(path).expires_at > before.expires_at
        assert store.renew(path, "w2", ttl=60.0) is False
        assert store.read_lease(path).worker == "w1"

    def test_renew_false_once_published(self, store):
        path = _path(store)
        store.claim(path, "w1", ttl=60.0)
        store.publish(path, _result())
        assert store.renew(path, "w1", ttl=60.0) is False


class TestTombstones:
    def test_tombstone_lifecycle(self, store):
        path = _path(store)
        store.record_failure(path, "w1", "boom at x=1")
        failures = store.failures()
        assert len(failures) == 1
        assert failures[0]["worker"] == "w1"
        assert "boom" in failures[0]["error"]
        assert failures[0]["path"] == path + FAILED_SUFFIX
        # A successful publish supersedes the recorded failure.
        store.publish(path, _result())
        assert store.failures() == []

    def test_record_failure_noop_when_entry_exists(self, store):
        path = _path(store)
        store.publish(path, _result())
        store.record_failure(path, "w1", "late report")
        assert store.failures() == []


class TestMaintenance:
    def test_entries_expose_metadata(self, store):
        store.publish(_path(store, "a"), _result(1.0))
        store.publish(_path(store, "b"), _result(2.0))
        entries = store.entries(read_meta=True)
        assert len(entries) == 2
        assert {entry.experiment for entry in entries} == {"contract_exp"}
        assert {entry.key for entry in entries} == {"a" * 16, "b" * 16}
        assert sorted(entry.params["x"] for entry in entries) == [1.0, 2.0]
        assert all(str(entry.version) == "1" for entry in entries)
        assert all(entry.size_bytes > 0 for entry in entries)

    def test_exists_covers_bookkeeping(self, harness, store):
        path = _path(store)
        assert store.exists(path) is False
        store.claim(path, "w1", ttl=60.0)
        assert store.exists(path + LEASE_SUFFIX) is True
        store.record_failure(path, "w1", "boom")
        assert store.exists(path + FAILED_SUFFIX) is True
        store.publish(path, _result())
        assert store.exists(path) is True
        assert store.exists(path + LEASE_SUFFIX) is False
        assert store.exists(path + FAILED_SUFFIX) is False

    def test_remove_entries_takes_bookkeeping_along(self, harness, store):
        done = _path(store, "a")
        store.publish(done, _result())
        harness.orphan_lease(store, done)
        harness.orphan_tombstone(store, done)
        assert store.remove_entries([done]) == 1
        assert store.load(done) is None
        assert not store.exists(done + LEASE_SUFFIX)
        assert not store.exists(done + FAILED_SUFFIX)

    def test_clear_and_prune_through_cache_seam(self, store):
        store.publish(_path(store, "a"), _result(1.0))
        store.publish(_path(store, "b"), _result(2.0))
        pruned = prune_cache(store, experiment="contract_exp", dry_run=True)
        assert len(pruned) == 2
        assert prune_cache(store, experiment="nope") == []
        assert len(scan_cache(store)) == 2
        assert clear_cache(store) == 2
        assert scan_cache(store) == []

    def test_collect_garbage_policy(self, harness, store):
        expired = _path(store, "a")
        store.claim(expired, "dead", ttl=0.05)
        live = _path(store, "b")
        store.claim(live, "alive", ttl=120.0)
        failed = _path(store, "c")
        store.record_failure(failed, "dead", "boom")
        orphaned = _path(store, "d")
        store.publish(orphaned, _result())
        harness.orphan_lease(store, orphaned)
        time.sleep(0.1)  # let the short lease lapse

        preview = gc_store(store, dry_run=True)
        assert expired + LEASE_SUFFIX in preview
        assert failed + FAILED_SUFFIX in preview
        assert orphaned + LEASE_SUFFIX in preview
        assert live + LEASE_SUFFIX not in preview

        collected = gc_store(store)
        assert sorted(collected) == sorted(preview)
        assert not store.exists(expired + LEASE_SUFFIX)
        assert store.exists(live + LEASE_SUFFIX)
        assert store.load(orphaned) is not None  # entries never GC'd

    def test_collect_garbage_keep_pending_failures(self, harness, store):
        pending = _path(store, "a")
        store.record_failure(pending, "w1", "still failed")
        superseded = _path(store, "b")
        store.publish(superseded, _result())
        harness.orphan_tombstone(store, superseded)

        collected = store.collect_garbage(keep_pending_failures=True)
        assert superseded + FAILED_SUFFIX in collected
        assert pending + FAILED_SUFFIX not in collected
        assert store.failures()  # the pending failure is still reported

    def test_prune_during_concurrent_publish(self, store):
        """Maintenance racing live publishes never tears an entry: whatever
        survives a concurrent clear still loads, and a final clear drains
        the store completely."""
        stop = threading.Event()

        def publisher(digit):
            index = 0
            while not stop.is_set() and index < 40:
                store.publish(_path(store, digit), _result(float(index)))
                index += 1

        threads = [
            threading.Thread(target=publisher, args=(digit,)) for digit in "abc"
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                clear_cache(store)
                for entry in store.entries(read_meta=False):
                    loaded = store.load(entry.path)
                    assert loaded is None or loaded.to_records()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        clear_cache(store)
        assert store.entries(read_meta=False) == []


class TestWorkerIntegration:
    def test_worker_runs_and_skips_done_points(
        self, contract_experiment, harness, store
    ):
        """`run_worker` completes a sweep on any backend and a second pass
        skips every point as done."""
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        first = run_worker(
            contract_experiment, spec, store, worker_id="w1", wait=False
        )
        assert first.executed == [0, 1, 2]
        second = run_worker(
            contract_experiment, spec, store, worker_id="w2", wait=False
        )
        assert second.executed == []
        assert len(store.entries(read_meta=False)) == 3

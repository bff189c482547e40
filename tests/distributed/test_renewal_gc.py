"""Lease heartbeat renewal and store garbage collection (tombstones, leases)."""

import os
import threading
import time

import pytest

from repro.api import Engine, ParamSpec, SweepSpec, gc_store, register_experiment, unregister_experiment
from repro.api.engine import cache_key
from repro.dist import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    FAILED_SUFFIX,
    LEASE_SUFFIX,
    SharedStore,
    run_worker,
)

CALLS = {"slow": 0}


@pytest.fixture
def slow_experiment():
    CALLS["slow"] = 0

    @register_experiment(
        "dist_slow_point",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("sleep_s", "float", 1.2)),
        replace=True,
    )
    def slow(x, sleep_s):
        CALLS["slow"] += 1
        time.sleep(sleep_s)
        return [{"x": x}]

    yield "dist_slow_point"
    unregister_experiment("dist_slow_point")


@pytest.fixture
def failing_experiment():
    @register_experiment(
        "dist_failing_point", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def failing(x):
        raise RuntimeError(f"boom at {x}")

    yield "dist_failing_point"
    unregister_experiment("dist_failing_point")


def _entry_path(store, name, **params):
    from repro.api import get_experiment

    experiment = get_experiment(name)
    resolved = experiment.resolve_params(params)
    return store.entry_path(
        experiment.name, cache_key(experiment.name, experiment.version, resolved)
    )


class TestRenew:
    def test_renew_extends_own_lease(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = os.path.join(str(tmp_path), "exp-0000000000000000.json")
        assert store.claim(path, "w1", ttl=0.2) == CLAIM_ACQUIRED
        before = store.read_lease(path)
        assert store.renew(path, "w1", ttl=60.0) is True
        after = store.read_lease(path)
        assert after.expires_at > before.expires_at
        assert after.worker == "w1"

    def test_renew_refuses_foreign_or_missing_lease(self, tmp_path):
        store = SharedStore(str(tmp_path))
        path = os.path.join(str(tmp_path), "exp-0000000000000000.json")
        assert store.renew(path, "w1", ttl=1.0) is False  # nothing leased
        store.claim(path, "w2", ttl=60.0)
        assert store.renew(path, "w1", ttl=60.0) is False
        assert store.read_lease(path).worker == "w2"

    def test_renew_rejects_nonpositive_ttl(self, tmp_path):
        store = SharedStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.renew("whatever.json", "w1", ttl=0.0)


class TestHeartbeatUnderShortTtl:
    def test_slow_point_is_not_stolen_despite_short_ttl(
        self, slow_experiment, tmp_path
    ):
        """Regression for the PR-4 footgun: ttl < point wall time used to let
        a sibling re-claim (and re-execute) a point a live worker was still
        computing.  The heartbeat renews at ttl/2, so the sibling stays
        locked out for the whole execution."""
        store = SharedStore(str(tmp_path))
        spec = SweepSpec.grid(x=[1.0])
        path = _entry_path(store, slow_experiment, x=1.0, sleep_s=1.2)
        ttl = 0.4  # one third of the point's wall time

        reports = {}

        def run():
            reports["w1"] = run_worker(
                slow_experiment,
                spec,
                store,
                base_params={"sleep_s": 1.2},
                worker_id="w1",
                lease_ttl=ttl,
                wait=False,
            )

        worker_thread = threading.Thread(target=run)
        worker_thread.start()
        try:
            deadline = time.monotonic() + 5.0
            while store.read_lease(path) is None:
                assert time.monotonic() < deadline, "worker never claimed the point"
                time.sleep(0.01)
            # Well past the original ttl, mid-execution: a sibling must
            # still see the point as busy, not claimable.
            time.sleep(2.0 * ttl)
            assert store.claim(path, "w2", ttl=ttl) == CLAIM_BUSY
        finally:
            worker_thread.join()
        assert store.claim(path, "w2", ttl=ttl) == CLAIM_DONE
        assert reports["w1"].executed == [0]
        assert CALLS["slow"] == 1  # executed exactly once, by w1

    def test_queued_point_is_not_stolen_while_a_sibling_runs(
        self, slow_experiment, tmp_path
    ):
        """One claim round leases several points that then run one after
        another.  The lease of a point still waiting in line must be
        renewed from claim time, or it lapses while its predecessor runs
        and a sibling worker executes the point a second time."""
        store = SharedStore(str(tmp_path))
        # Three points: the first claim round takes half, rounded up -- x=1, 2.
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        first, second = (
            _entry_path(store, slow_experiment, x=x, sleep_s=0.6) for x in (1.0, 2.0)
        )
        ttl = 0.4  # shorter than one point's 0.6 s

        reports = {}

        def run():
            reports["w1"] = run_worker(
                slow_experiment,
                spec,
                store,
                base_params={"sleep_s": 0.6},
                worker_id="w1",
                lease_ttl=ttl,
                wait=False,
            )

        worker_thread = threading.Thread(target=run)
        worker_thread.start()
        try:
            deadline = time.monotonic() + 5.0
            while store.read_lease(first) is None:
                assert time.monotonic() < deadline, "worker never claimed the point"
                time.sleep(0.01)
            claimed_at = time.monotonic()
            # Both points were leased by the same claim round.
            assert store.read_lease(second).worker == "w1"
            # Past the ttl while the first point still runs: the queued
            # second point must still be busy, not claimable.
            time.sleep(max(0.0, claimed_at + 1.2 * ttl - time.monotonic()))
            assert store.claim(second, "w2", ttl=ttl) == CLAIM_BUSY
        finally:
            worker_thread.join(timeout=30.0)
        assert not worker_thread.is_alive()
        assert sorted(reports["w1"].executed) == [0, 1, 2]
        assert CALLS["slow"] == 3  # each point executed exactly once


class TestFailureTombstones:
    def test_failed_point_leaves_tombstone_and_releases_lease(
        self, failing_experiment, tmp_path
    ):
        store = SharedStore(str(tmp_path))
        report = run_worker(
            failing_experiment,
            SweepSpec.grid(x=[1.0]),
            store,
            worker_id="w1",
            wait=False,
        )
        assert report.failed == [0]
        path = _entry_path(store, failing_experiment, x=1.0)
        assert store.read_lease(path) is None  # siblings may retry
        failures = store.failures()
        assert len(failures) == 1
        assert "boom at 1.0" in failures[0]["error"]
        assert failures[0]["worker"] == "w1"

    def test_successful_publish_supersedes_tombstone(self, tmp_path):
        from repro.api.results import ResultSet

        store = SharedStore(str(tmp_path))
        path = os.path.join(str(tmp_path), "exp-0000000000000000.json")
        store.record_failure(path, "w1", "boom")
        assert store.failures()
        store.publish(path, ResultSet({"a": [1]}))
        assert store.failures() == []

    def test_record_failure_noop_when_entry_exists(self, tmp_path):
        from repro.api.results import ResultSet

        store = SharedStore(str(tmp_path))
        path = os.path.join(str(tmp_path), "exp-0000000000000000.json")
        store.publish(path, ResultSet({"a": [1]}))
        store.record_failure(path, "w1", "late failure report")
        assert store.failures() == []


class TestGcStore:
    def test_collects_tombstones_and_expired_leases_only(self, tmp_path):
        store = SharedStore(str(tmp_path))
        directory = str(tmp_path)

        expired = os.path.join(directory, "exp-aaaaaaaaaaaaaaaa.json")
        store.claim(expired, "dead-worker", ttl=0.05)
        live = os.path.join(directory, "exp-bbbbbbbbbbbbbbbb.json")
        store.claim(live, "live-worker", ttl=120.0)
        failed = os.path.join(directory, "exp-cccccccccccccccc.json")
        store.record_failure(failed, "dead-worker", "boom")
        time.sleep(0.1)  # let the short lease lapse

        preview = gc_store(directory, dry_run=True)
        assert expired + LEASE_SUFFIX in preview
        assert failed + FAILED_SUFFIX in preview
        assert live + LEASE_SUFFIX not in preview

        collected = gc_store(directory)
        assert sorted(collected) == sorted(preview)
        assert not os.path.exists(expired + LEASE_SUFFIX)
        assert not os.path.exists(failed + FAILED_SUFFIX)
        assert os.path.exists(live + LEASE_SUFFIX)  # live worker untouched

    def test_collects_lease_orphaned_by_published_entry(self, tmp_path):
        from store_contract import SharedHarness

        from repro.api.results import ResultSet

        shared = SharedStore(str(tmp_path))
        path = os.path.join(str(tmp_path), "exp-dddddddddddddddd.json")
        shared.publish(path, ResultSet({"a": [1]}))
        # A live lease beside a published entry: the orphan a publish that
        # crashed between its rename and the lease's unlink leaves.
        SharedHarness().orphan_lease(shared, path)
        assert os.path.exists(path + LEASE_SUFFIX)
        collected = gc_store(str(tmp_path))
        assert path + LEASE_SUFFIX in collected
        assert os.path.exists(path)  # entries are never GC'd

    def test_missing_directory_is_empty(self, tmp_path):
        assert gc_store(str(tmp_path / "nope")) == []
        assert gc_store(None) == []

    # Kill-a-real-worker GC coverage lives in test_faults.py now, where the
    # crash-injection harness runs it against every coordinated backend.

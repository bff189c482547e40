"""Crash-recovery invariants, via SIGKILL injection at protocol boundaries.

Runs :mod:`faults`' doomed worker against both coordinated backends and
asserts the survivor-side invariants: a lease left by a kill at the claim
boundary expires and is GC'd / taken over; a kill mid-execution is recovered
by a second worker with the point executed exactly once overall; a kill
right after publish leaves a durable, lease-free entry that later workers
skip.  (This battery supersedes the ad-hoc kill test that used to live in
``test_renewal_gc.py``.)
"""

import os
import time

import pytest

from repro.api import (
    ParamSpec,
    SweepSpec,
    gc_store,
    get_experiment,
    register_experiment,
    unregister_experiment,
)
from repro.api.engine import cache_key
from repro.dist import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    LEASE_SUFFIX,
    run_worker,
)
from repro.dist.sqlstore import resolve_store
from faults import EXPERIMENT, crash_worker_at
from store_contract import SharedHarness, SqliteHarness

HARNESSES = (SharedHarness(), SqliteHarness())


@pytest.fixture(params=HARNESSES, ids=lambda h: h.name)
def harness(request):
    return request.param


@pytest.fixture
def fault_experiment():
    """The parent-side twin of the doomed worker's experiment (identical
    name/params/version, so cache keys agree across the process boundary).
    Set ``holder["log"]`` to a path to count parent-side executions in the
    same log the subprocess appends to."""
    holder = {"log": None}

    @register_experiment(
        EXPERIMENT, params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def fault_point(x):
        if holder["log"] is not None:
            with open(holder["log"], "a") as handle:
                handle.write(f"{x}\n")
        return [{"x": x, "y": 2.0 * x}]

    yield holder
    unregister_experiment(EXPERIMENT)


def _entry_path(store, x=1.0):
    experiment = get_experiment(EXPERIMENT)
    resolved = experiment.resolve_params({"x": x})
    return store.entry_path(
        experiment.name, cache_key(experiment.name, experiment.version, resolved)
    )


class TestCrashAtClaim:
    def test_lease_blocks_then_expires_and_is_collected(
        self, harness, fault_experiment, tmp_path
    ):
        spec = harness.spec(tmp_path)
        crash_worker_at(spec, "claimed", tmp_path / "worker", lease_ttl=2.0)

        store = resolve_store(spec)
        path = _entry_path(store)
        lease = store.read_lease(path)
        assert lease is not None and lease.worker == "doomed"
        # Within the ttl the dead worker still looks alive: the point is
        # busy and GC must not touch the lease.
        assert store.claim(path, "rescuer", ttl=60.0) == CLAIM_BUSY
        assert gc_store(store) == []
        time.sleep(2.1)  # the ttl lapses with the worker dead
        collected = gc_store(store)
        assert path + LEASE_SUFFIX in collected
        assert store.claim(path, "rescuer", ttl=60.0) == CLAIM_ACQUIRED


class TestCrashMidExecution:
    def test_rescuer_takes_over_and_completes(
        self, harness, fault_experiment, tmp_path
    ):
        spec = harness.spec(tmp_path)
        worker = crash_worker_at(
            spec, "executing", tmp_path / "worker", lease_ttl=1.0
        )

        store = resolve_store(spec)
        path = _entry_path(store)
        assert store.load(path) is None  # the victim never published
        assert store.read_lease(path) is not None  # but its heartbeat lease remains

        fault_experiment["log"] = worker.log_path
        report = run_worker(
            EXPERIMENT,
            SweepSpec.grid(x=[1.0]),
            store,
            worker_id="rescuer",
            lease_ttl=60.0,
            wait=True,
            max_wait=30.0,
        )
        assert report.executed == [0]
        assert store.load(path) is not None
        assert store.read_lease(path) is None
        # The victim died mid-point, so only the rescuer's execution completed.
        assert len(worker.completed_executions()) == 1


class TestCrashWhileStaged:
    def test_no_torn_entry_and_rescuer_completes(
        self, harness, fault_experiment, tmp_path
    ):
        spec = harness.spec(tmp_path)
        worker = crash_worker_at(spec, "staged", tmp_path / "worker", lease_ttl=1.0)
        # The victim finished x=1 but died before its round committed.
        assert len(worker.completed_executions()) == 1

        store = resolve_store(spec)
        paths = [_entry_path(store, x) for x in (1.0, 2.0, 3.0)]
        for path in paths:
            assert store.load(path) is None  # nothing torn, nothing half-published
        if os.path.isdir(store.directory):
            assert not [n for n in os.listdir(store.directory) if n.endswith(".tmp")]
        time.sleep(1.1)  # the victim's leases lapse
        assert all(lease.expired() for lease in store.leases())

        fault_experiment["log"] = worker.log_path
        report = run_worker(
            EXPERIMENT,
            SweepSpec.grid(x=[1.0, 2.0, 3.0]),
            store,
            worker_id="rescuer",
            lease_ttl=60.0,
            wait=True,
            max_wait=30.0,
        )
        assert sorted(report.executed) == [0, 1, 2]
        for x, path in zip((1.0, 2.0, 3.0), paths):
            assert store.load(path).to_records() == [{"x": x, "y": 2.0 * x}]
            assert store.read_lease(path) is None
        # The uncommitted x=1 is the only work lost: run again by the rescuer.
        assert len(worker.completed_executions()) == 4
        assert gc_store(store) == []


class TestCrashAfterPublish:
    def test_entry_durable_and_exactly_once(
        self, harness, fault_experiment, tmp_path
    ):
        spec = harness.spec(tmp_path)
        worker = crash_worker_at(spec, "published", tmp_path / "worker")

        store = resolve_store(spec)
        path = _entry_path(store)
        result = store.load(path)
        assert result is not None
        assert result.to_records() == [{"x": 1.0, "y": 2.0}]
        assert store.read_lease(path) is None
        assert store.claim(path, "rescuer") == CLAIM_DONE
        assert len(worker.completed_executions()) == 1
        assert gc_store(store) == []  # a clean publish leaves no residue

        fault_experiment["log"] = worker.log_path
        report = run_worker(
            EXPERIMENT, SweepSpec.grid(x=[1.0]), store, worker_id="rescuer", wait=False
        )
        assert report.executed == []
        assert len(worker.completed_executions()) == 1  # still exactly once

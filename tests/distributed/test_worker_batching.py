"""Batched lease claims and stacked worker execution.

Two dispatch-overhead guarantees land here.  First, ``claim_many`` lets a
worker settle a whole batch of points against the store in one round trip,
with exact per-path statuses (the contract battery below runs identically
on every backend).  Second, the worker loop's adaptive claim batching
bounds *claims per sweep* logarithmically -- the regression tests pin that
budget via the ``WorkerReport`` round-trip counters so a future change
cannot quietly reintroduce one-claim-per-point chatter.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    Engine,
    ParamSpec,
    ResultSet,
    SweepSpec,
    register_experiment,
    unregister_experiment,
)
from repro.dist import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    CLAIM_SKIPPED,
    run_worker,
)
from repro.dist.worker import WorkerReport

from store_contract import HARNESSES

SPEC = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


@pytest.fixture
def batched_experiment():
    def single(x: float):
        return [{"x": x, "y": 3.0 * x}]

    register_experiment(
        "dist_test_batched",
        params=(ParamSpec("x", "float", 1.0),),
        batch_fn=lambda dicts: [single(**params) for params in dicts],
        replace=True,
    )(single)
    yield "dist_test_batched"
    unregister_experiment("dist_test_batched")


def _paths(store, count: int = 4):
    return [store.entry_path("contract", f"{index:016x}") for index in range(count)]


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.name)
class TestClaimManyContract:
    def test_all_acquired_in_one_call(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store)
        assert store.claim_many(paths, "w1") == [CLAIM_ACQUIRED] * len(paths)

    def test_max_acquire_skips_the_rest(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store, 5)
        statuses = store.claim_many(paths, "w1", max_acquire=2)
        assert statuses == [CLAIM_ACQUIRED] * 2 + [CLAIM_SKIPPED] * 3
        # Skipped paths were genuinely untouched: still claimable.
        assert store.claim_many(paths[2:], "w1") == [CLAIM_ACQUIRED] * 3

    def test_done_entries_reported(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store, 3)
        store.publish(
            paths[1],
            ResultSet.from_records(
                [{"x": 1.0}], meta={"experiment": "contract", "version": "1", "params": {}}
            ),
        )
        statuses = store.claim_many(paths, "w1")
        assert statuses[1] == CLAIM_DONE
        assert statuses[0] == statuses[2] == CLAIM_ACQUIRED

    def test_empty_input(self, harness, tmp_path):
        assert harness.make(tmp_path).claim_many([], "w1") == []


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.name)
class TestClaimManyCoordination:
    def test_foreign_leases_are_busy(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store, 4)
        assert store.claim_many(paths[:2], "w1", max_acquire=2) == [CLAIM_ACQUIRED] * 2
        statuses = store.claim_many(paths, "w2")
        assert statuses == [CLAIM_BUSY, CLAIM_BUSY, CLAIM_ACQUIRED, CLAIM_ACQUIRED]

    def test_own_lease_is_reentrant(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store, 2)
        store.claim_many(paths, "w1")
        assert store.claim_many(paths, "w1") == [CLAIM_ACQUIRED] * 2

    def test_invalid_ttl_rejected(self, harness, tmp_path):
        store = harness.make(tmp_path)
        with pytest.raises(ValueError):
            store.claim_many(_paths(store, 1), "w1", ttl=0.0)

    def test_two_workers_partition_without_overlap(self, harness, tmp_path):
        store = harness.make(tmp_path)
        paths = _paths(store, 12)

        def grab(worker):
            return store.claim_many(paths, worker, max_acquire=6)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(grab, ["w1", "w2"])
        acquired = [
            {path for path, status in zip(paths, statuses) if status == CLAIM_ACQUIRED}
            for statuses in (first, second)
        ]
        assert acquired[0].isdisjoint(acquired[1])
        assert len(acquired[0] | acquired[1]) == 12


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.name)
class TestWorkerClaimBudget:
    def test_lone_worker_claims_logarithmically(self, harness, tmp_path, batched_experiment):
        """Satellite regression: claims per sweep stay within a fixed
        budget -- adaptive batching claims half the remaining points per
        pass, so a lone worker drains N points in O(log N) claim round
        trips and one publish per point, never one claim per point."""
        store = harness.make(tmp_path)
        report = run_worker(batched_experiment, SPEC, store, poll_interval=0.01)
        n_points = len(SPEC)
        assert sorted(report.executed) == list(range(n_points))
        budget = math.ceil(math.log2(n_points)) + 2
        assert 0 < report.claim_round_trips <= budget
        assert report.store_round_trips <= report.claim_round_trips + n_points

    def test_skips_reclaimed_at_once(
        self, harness, tmp_path, batched_experiment
    ):
        """Each pass claims half the remaining points and skips the rest;
        even with ``wait=False`` the worker must treat its own skips as
        progress and finish the sweep: 8 points take 4 + 2 + 1 + 1."""
        spec = SweepSpec.grid(x=[float(x) for x in range(1, 9)])
        store = harness.make(tmp_path)
        report = run_worker(
            batched_experiment, spec, store, wait=False, poll_interval=0.01
        )
        assert sorted(report.executed) == list(range(len(spec)))
        assert report.claim_round_trips == 4
        assert report.abandoned == []

    def test_rejoining_worker_loads_without_claiming_leases(
        self, harness, tmp_path, batched_experiment
    ):
        store = harness.make(tmp_path)
        run_worker(batched_experiment, SPEC, store, poll_interval=0.01)
        rejoin = run_worker(batched_experiment, SPEC, store, poll_interval=0.01)
        assert rejoin.executed == []
        assert len(rejoin.already_done) == len(SPEC)


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.name)
class TestBatchedWorkerParity:
    def test_batched_worker_matches_serial_engine(self, harness, tmp_path, batched_experiment):
        serial = Engine().sweep(batched_experiment, SPEC)
        store = harness.make(tmp_path)
        run_worker(batched_experiment, SPEC, store, poll_interval=0.01)
        merged = Engine(store=store).sweep(batched_experiment, SPEC)
        assert merged == serial
        assert merged.content_hash == serial.content_hash

    def test_real_experiment_batched_worker_parity(self, harness, tmp_path):
        """fig12 declares a batch_fn; the worker's stacked execution must
        be bit-identical to the serial engine on a real physics sweep."""
        spec = SweepSpec.grid(lengths_um=[(10.0,), (50.0,)])
        base = {"diameters_nm": (10.0,), "channel_counts": (2.0, 6.0), "n_segments": 6}
        serial = Engine().sweep("fig12", spec, base_params=base)
        store = harness.make(tmp_path)
        run_worker("fig12", spec, store, base_params=base, poll_interval=0.01)
        merged = Engine(store=store).sweep("fig12", spec, base_params=base)
        assert merged.content_hash == serial.content_hash


class TestWorkerReportCounters:
    def test_defaults_and_summary(self):
        report = WorkerReport(
            worker_id="w1",
            n_points=2,
            executed=[0, 1],
            wall_time_s=0.5,
            claim_round_trips=3,
            store_round_trips=5,
        )
        assert "3 claim / 5 store round trips" in report.summary()
        bare = WorkerReport(worker_id="w1", n_points=0)
        assert bare.claim_round_trips == 0
        assert bare.store_round_trips == 0

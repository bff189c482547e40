"""Daemon serve loop: exactly-once jobs, bit-identical results, recovery.

The two-daemon tests are the PR-6 acceptance criteria: N daemons on one
queue must execute every job exactly once, a daemon crashed mid-job must
have its job recovered through the stale-lease path without recomputing the
points it already published, and every fetched result must content-hash
match the serial run.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Engine, SweepSpec, register_experiment, unregister_experiment
from repro.api.experiment import ParamSpec
from repro.dist import SharedStore
from repro.service import (
    JOB_DONE,
    JOB_FAILED,
    JobSpec,
    SpecQueue,
    serve_queue,
)

SPEC = SweepSpec.grid(length_um=[1.0, 5.0, 10.0, 50.0])


def _sweep_job(spec: SweepSpec = SPEC) -> JobSpec:
    return JobSpec(kind="sweep", name="table_density", sweep=spec)


class TestServeQueue:
    def test_drain_executes_everything_bit_identically(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        specs = [
            SweepSpec.grid(length_um=[1.0, 10.0]),
            SweepSpec.grid(length_um=[2.0, 20.0]),
        ]
        job_ids = [queue.submit(_sweep_job(spec)) for spec in specs]

        report = serve_queue(queue, store, drain=True)
        assert report.ok
        assert sorted(report.executed) == sorted(job_ids)

        for job_id, spec in zip(job_ids, specs):
            status = queue.status(job_id)
            assert status["state"] == JOB_DONE
            serial = Engine().sweep("table_density", spec)
            assert status["content_hash"] == serial.content_hash
            fetched = queue.load_result(job_id)
            assert fetched == serial
            assert fetched.content_hash == serial.content_hash

    def test_progress_is_recorded_while_running(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        job_id = queue.submit(_sweep_job())
        serve_queue(queue, store, drain=True)
        # After completion the progress doc is merged away, but the done
        # summary keeps the record count.
        assert queue.status(job_id)["n_records"] == len(
            Engine().sweep("table_density", SPEC)
        )

    def test_study_job_matches_serial_study_run(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        overrides = {"growth_window": {"duration_s": 500.0}}
        job_id = queue.submit(
            JobSpec(kind="study", name="growth_to_wafer", stage_params=overrides)
        )
        report = serve_queue(queue, store, drain=True)
        assert report.ok and report.executed == [job_id]

        serial = Engine().run_study("growth_to_wafer", stage_params=overrides)
        fetched = queue.load_result(job_id)
        assert fetched.content_hash == serial.content_hash

    def test_max_jobs_bounds_one_pass(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        for _ in range(2):
            queue.submit(_sweep_job())
        report = serve_queue(queue, store, max_jobs=1)
        assert len(report.executed) == 1
        assert queue.depth()["queued"] == 1

    def test_stop_event_exits_the_idle_loop(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        stop = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                serve_queue, queue, store, poll_interval=0.02, stop=stop
            )
            time.sleep(0.15)
            assert not future.done()  # idling, not drained
            stop.set()
            report = future.result(timeout=5.0)
        assert report.ok and not report.executed


class TestTwoDaemons:
    def test_exactly_once_across_two_daemons(self, tmp_path):
        """Concurrent daemons split the queue; no job runs twice."""
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        specs = [
            SweepSpec.grid(length_um=[float(i + 1), float(10 * (i + 1))])
            for i in range(4)
        ]
        job_ids = [queue.submit(_sweep_job(spec)) for spec in specs]

        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = [
                future.result()
                for future in [
                    pool.submit(
                        serve_queue, queue, store,
                        worker_id=f"d{i}", drain=True, poll_interval=0.01,
                    )
                    for i in range(2)
                ]
            ]

        executed = [set(report.executed) for report in reports]
        assert executed[0].isdisjoint(executed[1])
        assert sorted(executed[0] | executed[1]) == sorted(job_ids)
        assert all(report.ok for report in reports)
        for job_id, spec in zip(job_ids, specs):
            serial = Engine().sweep("table_density", spec)
            assert queue.load_result(job_id).content_hash == serial.content_hash

    def test_crashed_daemon_job_is_recovered(self, tmp_path):
        """A stale job lease is taken over; published points are reused."""
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        job_id = queue.submit(_sweep_job())

        # Simulate the crash: a daemon claimed the job with a short ttl,
        # published the first point into the shared store, then died
        # without completing or releasing.
        claimed = queue.claim_next("dead-daemon", ttl=0.2)
        assert claimed is not None and claimed[0] == job_id
        from repro.dist import run_worker

        one_point = SweepSpec.grid(length_um=[SPEC.axes["length_um"][0]])
        partial = run_worker(
            "table_density", one_point, store, worker_id="dead-daemon"
        )
        assert partial.executed == [0]
        time.sleep(0.3)  # the job lease expires

        def published_points() -> int:
            import os

            return len(
                [
                    name
                    for name in os.listdir(store.directory)
                    if name.startswith("table_density-") and name.endswith(".json")
                ]
            )

        points_before = published_points()
        assert points_before == 1  # the dead daemon's single point
        report = serve_queue(queue, store, worker_id="survivor", drain=True)
        assert report.ok and report.executed == [job_id]
        assert queue.status(job_id)["state"] == JOB_DONE
        # The dead daemon's published point was reused, not recomputed:
        # only the remaining points were added to the store.
        assert published_points() == points_before + len(SPEC) - 1

        serial = Engine().sweep("table_density", SPEC)
        assert queue.load_result(job_id).content_hash == serial.content_hash

    def test_tombstone_gc_after_recovery(self, tmp_path):
        """gc() keeps live failure tombstones, drops superseded ones."""
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        job_id = queue.submit(
            JobSpec(
                kind="sweep", name="does_not_exist",
                sweep=SweepSpec.grid(x=[1]),
            )
        )
        report = serve_queue(queue, store, drain=True)
        assert report.failed == [job_id]
        status = queue.status(job_id)
        assert status["state"] == JOB_FAILED
        assert "does_not_exist" in status["error"]

        # While failed, the tombstone survives gc (it encodes the state).
        queue.gc()
        assert queue.status(job_id)["state"] == JOB_FAILED

        # requeue + a fixed registry -> the job completes and the next gc
        # drops the now-superseded tombstone.
        @register_experiment(
            "does_not_exist",
            params=(ParamSpec("x", "float", 1.0, "input"),),
            replace=True,
        )
        def repaired(x: float):
            return [{"x": x, "y": 2.0 * x}]

        try:
            assert queue.requeue(job_id)
            report = serve_queue(queue, store, drain=True)
            assert report.ok and report.executed == [job_id]
        finally:
            unregister_experiment("does_not_exist")
        assert queue.status(job_id)["state"] == JOB_DONE
        queue.gc()
        assert queue.status(job_id)["state"] == JOB_DONE


class TestFailureSemantics:
    def test_malformed_payload_fails_the_job_visibly(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        job_id = queue.submit(_sweep_job())
        # Corrupt the spec payload on disk (unknown field), as a buggy or
        # hostile submitter would.
        import json
        import os

        path = os.path.join(queue.directory, job_id + ".job.json")
        with open(path) as handle:
            document = json.load(handle)
        document["spec"]["surprise"] = True
        with open(path, "w") as handle:
            json.dump(document, handle)

        report = serve_queue(queue, store, drain=True)
        assert report.failed == [job_id]
        status = queue.status(job_id)
        assert status["state"] == JOB_FAILED
        assert "surprise" in status["error"]
        # The failed job does not wedge the queue: siblings drain past it.
        other = queue.submit(_sweep_job())
        report2 = serve_queue(queue, store, drain=True)
        assert report2.executed == [other]

    def test_raising_point_fails_the_job_and_requeue_runs_only_it(self, tmp_path):
        """The other points stay published; after requeue only the failed
        point executes."""
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        executed: list[float] = []
        broken = {2.0}

        @register_experiment(
            "service_flaky",
            params=(ParamSpec("x", "float", 0.0, "input"),),
            replace=True,
        )
        def flaky(x: float):
            executed.append(x)
            if x in broken:
                raise ValueError(f"bad point x={x}")
            return [{"x": x, "y": 2.0 * x}]

        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        try:
            job_id = queue.submit(
                JobSpec(kind="sweep", name="service_flaky", sweep=spec)
            )
            report = serve_queue(queue, store, drain=True)
            assert report.failed == [job_id]
            status = queue.status(job_id)
            assert status["state"] == JOB_FAILED
            assert "1 of 3" in status["error"]
            assert "bad point x=2.0" in status["error"]
            assert sorted(executed) == [1.0, 2.0, 3.0]
            published = [
                name for name in os.listdir(store.directory)
                if name.startswith("service_flaky-") and name.endswith(".json")
            ]
            assert len(published) == 2

            broken.clear()  # the experiment is fixed
            executed.clear()
            assert queue.requeue(job_id)
            report = serve_queue(queue, store, drain=True)
            assert report.ok and report.executed == [job_id]
            assert executed == [2.0]
            serial = Engine().sweep("service_flaky", spec)
            assert queue.load_result(job_id).content_hash == serial.content_hash
        finally:
            unregister_experiment("service_flaky")

"""Service jobs assemble their merged result from the points they hold.

A job runs on the store-backed engine: each point is looked up in the store
once (a cache hit when anyone published it before), the misses execute and
publish, and the merged ResultSet is built from those in-memory points, so
no point is read back after it is published and the result still equals a
store-less serial run.  Progress documents are coalesced rather than
written per point.
"""

import json
import threading
import urllib.request

import pytest

from repro.api import Engine, SweepSpec, register_experiment, unregister_experiment
from repro.api.experiment import ParamSpec
from repro.dist import SharedStore
from repro.service import (
    JOB_DONE,
    JobSpec,
    ServiceClient,
    ServiceError,
    SpecQueue,
    make_server,
    serve_queue,
)


class CountingStore(SharedStore):
    """A shared store that logs its loads and batch publishes in call order."""

    def __init__(self, directory: str) -> None:
        super().__init__(directory)
        self.calls: list[str] = []

    def load(self, path):
        self.calls.append("load")
        return super().load(path)

    def publish_many(self, entries):
        self.calls.append("publish_many")
        return super().publish_many(entries)


class CountingQueue(SpecQueue):
    """A spec queue that counts the progress documents written per job."""

    def __init__(self, directory: str) -> None:
        super().__init__(directory)
        self.progress_writes: dict[str, int] = {}

    def record_progress(self, job_id, **fields):
        self.progress_writes[job_id] = self.progress_writes.get(job_id, 0) + 1
        super().record_progress(job_id, **fields)


class TestSweepJobAssembly:
    def test_sweep_job_reads_no_point_back(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = CountingStore(str(tmp_path / "store"))
        spec = SweepSpec.grid(length_um=[1.0, 5.0, 10.0, 50.0])
        job_id = queue.submit(JobSpec(kind="sweep", name="table_density", sweep=spec))

        assert serve_queue(queue, store, drain=True).executed == [job_id]
        # One cache lookup per point, all of them before the job's first
        # publish: nothing the job published is read back.
        assert store.calls.count("load") == len(spec)
        first_publish = store.calls.index("publish_many")
        assert "load" not in store.calls[first_publish:]

        serial = Engine().sweep("table_density", spec)
        fetched = queue.load_result(job_id)
        assert fetched == serial
        assert fetched.content_hash == serial.content_hash
        assert queue.status(job_id)["content_hash"] == serial.content_hash
        assert fetched.meta["sweep"] == serial.meta["sweep"]

    def test_points_published_by_a_sibling_are_merged_identically(self, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        spec = SweepSpec.grid(length_um=[1.0, 5.0, 10.0, 50.0])
        # Half the points are already in the store (an earlier run).
        Engine(store=store).sweep("table_density", SweepSpec.grid(length_um=[5.0, 50.0]))
        queue = SpecQueue(str(tmp_path / "queue"))
        job_id = queue.submit(JobSpec(kind="sweep", name="table_density", sweep=spec))
        serve_queue(queue, store, drain=True)

        serial = Engine().sweep("table_density", spec)
        assert queue.load_result(job_id).content_hash == serial.content_hash


class TestStudyJobAssembly:
    def test_swept_study_job_matches_run_study(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        overrides = {"growth_window": {"duration_s": 500.0}}
        sweep = SweepSpec.grid(seed=[0, 1], catalyst=["Co"])
        job_id = queue.submit(
            JobSpec(
                kind="study", name="growth_to_wafer", sweep=sweep,
                stage_params=overrides,
            )
        )
        assert serve_queue(queue, store, drain=True).executed == [job_id]

        serial = Engine().run_study(
            "growth_to_wafer", stage_params=overrides, sweep=sweep
        )
        fetched = queue.load_result(job_id)
        assert fetched == serial
        assert fetched.content_hash == serial.content_hash
        assert fetched.meta["study"] == serial.meta["study"]
        assert fetched.meta["sweep"] == serial.meta["sweep"]
        assert fetched.meta["params"] == serial.meta["params"]


@pytest.fixture
def status_probe():
    """An experiment that records its job's status while it runs."""
    seen: list[dict] = []
    probe: dict = {}

    @register_experiment(
        "service_status_probe",
        params=(ParamSpec("x", "float", 0.0, "input"),),
        replace=True,
    )
    def run(x: float):
        seen.append(probe["queue"].status(probe["job_id"]))
        return [{"x": x, "y": 2.0 * x}]

    yield probe, seen
    unregister_experiment("service_status_probe")


class TestProgress:
    def test_running_job_shows_a_progress_block(self, tmp_path, status_probe):
        probe, seen = status_probe
        queue = SpecQueue(str(tmp_path / "queue"))
        probe["queue"] = queue
        probe["job_id"] = queue.submit(
            JobSpec(
                kind="sweep", name="service_status_probe",
                sweep=SweepSpec.grid(x=[1.0, 2.0, 3.0]),
            )
        )
        serve_queue(queue, SharedStore(str(tmp_path / "store")), drain=True)

        assert len(seen) == 3
        for status in seen:
            assert status["state"] == "running"
            assert "points_done" in status["progress"]
        assert queue.status(probe["job_id"])["state"] == JOB_DONE

    def test_fast_job_writes_at_most_two_progress_documents(self, tmp_path):
        queue = CountingQueue(str(tmp_path / "queue"))
        store = SharedStore(str(tmp_path / "store"))
        spec = SweepSpec.grid(length_um=[float(n) for n in range(1, 21)])
        job_id = queue.submit(JobSpec(kind="sweep", name="table_density", sweep=spec))
        serve_queue(queue, store, drain=True)

        assert queue.status(job_id)["state"] == JOB_DONE
        assert 1 <= queue.progress_writes[job_id] <= 2


class TestFetch:
    @pytest.fixture()
    def served(self, tmp_path):
        server = make_server(str(tmp_path / "queue"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            queue = server.queue
            job_id = queue.submit(
                JobSpec(
                    kind="sweep", name="table_density",
                    sweep=SweepSpec.grid(length_um=[1.0, 10.0]),
                )
            )
            serve_queue(queue, SharedStore(str(tmp_path / "store")), drain=True)
            yield server, job_id
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_fetch_sends_the_stored_export_as_it_is(self, served):
        server, job_id = served
        with urllib.request.urlopen(f"{server.url}/fetch_results/{job_id}") as reply:
            body = reply.read().decode()
        with open(server.queue.result_path(job_id)) as handle:
            assert body == handle.read()
        fetched = ServiceClient(server.url).fetch_results(job_id)
        assert fetched.content_hash == server.queue.status(job_id)["content_hash"]

    def test_tampered_export_is_rejected(self, served):
        server, job_id = served
        path = server.queue.result_path(job_id)
        with open(path) as handle:
            export = json.load(handle)
        column = next(iter(export["columns"]))
        export["columns"][column][0] = "tampered"
        with open(path, "w") as handle:
            json.dump(export, handle)

        with pytest.raises(ValueError, match="content hash mismatch"):
            server.queue.load_result(job_id)
        with pytest.raises(ServiceError):
            ServiceClient(server.url).fetch_results(job_id)

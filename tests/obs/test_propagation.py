"""Trace context crosses pools, stores, workers and the HTTP service.

The acceptance contract of the tracing layer: one ``trace_id`` covers a
whole logical request no matter how many processes/threads execute it,
and turning tracing on never changes a single result bit.
"""

import json
import threading

import pytest

from repro.api import Engine, SweepSpec
from repro.dist import SharedStore
from repro.obs.trace import current_carrier, trace_span, tracing
from repro.service import ServiceClient, SpecQueue, make_server, serve_queue

SPEC = SweepSpec.grid(length_um=[1.0, 10.0, 100.0])


def _read_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _ancestors(span, by_id):
    seen = []
    parent = span.get("parent_id")
    while parent is not None and parent in by_id:
        seen.append(by_id[parent])
        parent = by_id[parent].get("parent_id")
    return seen


class TestPoolPropagation:
    @pytest.mark.parametrize("executor", ["process"])
    def test_one_trace_id_across_a_pooled_sweep(self, tmp_path, executor):
        sink = str(tmp_path / "trace.jsonl")
        with tracing(sink):
            with Engine(
                cache_dir=str(tmp_path / "cache"), executor=executor, max_workers=2
            ) as engine:
                engine.sweep("table_density", SPEC)
        spans = _read_spans(sink)
        names = {span["name"] for span in spans}
        assert {"engine.sweep", "engine.point"} <= names
        assert len({span["trace_id"] for span in spans}) == 1
        points = [span for span in spans if span["name"] == "engine.point"]
        assert len(points) == len(SPEC)
        if executor == "process":
            # The points really ran in pool workers, not the parent.
            parent_pid = next(
                span["pid"] for span in spans if span["name"] == "engine.sweep"
            )
            assert any(span["pid"] != parent_pid for span in points)

    def test_forked_children_join_the_parents_trace(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        spec = SweepSpec.grid(contact_resistance=[1e5, 2e5])
        params = {
            "diameters_nm": (10.0,),
            "lengths_um": (10.0,),
            "channel_counts": (2.0, 4.0, 6.0, 8.0),
            "n_segments": 4,
        }
        with tracing(sink):
            Engine(executor="process", max_workers=2).sweep("fig12", spec, base_params=params)
        spans = _read_spans(sink)
        by_id = {span["span_id"]: span for span in spans}
        (sweep,) = [span for span in spans if span["name"] == "engine.sweep"]
        children = [span for span in spans if span["pid"] != sweep["pid"]]
        names = {span["name"] for span in children}
        assert {"circuit.batch", "circuit.dc"} <= names
        assert {span["trace_id"] for span in children} == {sweep["trace_id"]}
        for span in children:
            assert sweep in _ancestors(span, by_id)
        for batch in (span for span in children if span["name"] == "circuit.batch"):
            assert batch["attrs"] == {"n_jobs": 4}

    def test_tracing_leaves_content_hashes_bit_identical(self, tmp_path):
        baseline = Engine(cache_dir=str(tmp_path / "cache-a")).sweep(
            "table_density", SPEC
        )
        with tracing(str(tmp_path / "trace.jsonl")):
            with Engine(
                cache_dir=str(tmp_path / "cache-b"),
                executor="process",
                max_workers=2,
            ) as engine:
                traced = engine.sweep("table_density", SPEC)
        assert traced.content_hash == baseline.content_hash
        # NaN-valued fields defeat == on raw records; the canonical JSON
        # serialisation is the bit-level comparison the hash attests to.
        assert json.dumps(traced.to_records(), default=str) == json.dumps(
            baseline.to_records(), default=str
        )


class TestStorePropagation:
    def test_lease_persists_the_claiming_trace(self, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        path = store.entry_path("exp", "k" * 16)
        with tracing(str(tmp_path / "trace.jsonl")):
            with trace_span("claimer"):
                carrier = current_carrier()
                assert store.claim(path, "w1", ttl=60.0) == "acquired"
        lease = store.read_lease(path)
        assert lease.trace == carrier

    def test_untraced_lease_has_no_trace(self, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        path = store.entry_path("exp", "k" * 16)
        store.claim(path, "w1", ttl=60.0)
        assert store.read_lease(path).trace is None


class TestServicePropagation:
    def test_submit_spans_are_ancestors_across_two_daemons(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        server = make_server(str(tmp_path / "queue"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            with tracing(sink):
                with trace_span("test.submit"):
                    jobs = [
                        client.submit_sweep("table_density", SPEC),
                        client.submit_sweep(
                            "table_density",
                            SweepSpec.grid(length_um=[3.0, 30.0]),
                        ),
                    ]
            queue = SpecQueue(str(tmp_path / "queue"))
            store = SharedStore(str(tmp_path / "store"))
            daemons = [
                threading.Thread(
                    target=serve_queue,
                    args=(queue, store),
                    kwargs={"drain": True, "worker_id": f"d{i}"},
                )
                for i in range(2)
            ]
            for daemon in daemons:
                daemon.start()
            for daemon in daemons:
                daemon.join(timeout=60.0)
            assert all(queue.status(job)["state"] == "done" for job in jobs)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

        spans = _read_spans(sink)
        by_id = {span["span_id"]: span for span in spans}
        assert len({span["trace_id"] for span in spans}) == 1
        submits = [s for s in spans if s["name"] == "client.submit_sweep"]
        daemon_jobs = [s for s in spans if s["name"] == "daemon.job"]
        assert len(submits) == 2
        assert len(daemon_jobs) == 2
        # Every daemon-side execution descends from one of the client's
        # submit spans (via the carrier stored in the queued job document).
        for job_span in daemon_jobs:
            names = {span["name"] for span in _ancestors(job_span, by_id)}
            assert "client.submit_sweep" in names
            assert "test.submit" in names
        # Each job runs as an engine.sweep under its daemon.job span (the
        # span list CI's obs-smoke step requires), and each point the
        # daemons ran is an engine.point span that descends from it.
        sweeps = [s for s in spans if s["name"] == "engine.sweep"]
        for job_span in daemon_jobs:
            assert any(job_span in _ancestors(sweep, by_id) for sweep in sweeps)
        points = [s for s in spans if s["name"] == "engine.point"]
        assert points
        for point in points:
            names = {span["name"] for span in _ancestors(point, by_id)}
            assert {"daemon.job", "engine.sweep"} <= names

    def test_service_job_hashes_match_serial_run(self, tmp_path):
        server = make_server(str(tmp_path / "queue"), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            with tracing(str(tmp_path / "trace.jsonl")):
                with trace_span("test.submit"):
                    job_id = client.submit_sweep("table_density", SPEC)
            serve_queue(
                SpecQueue(str(tmp_path / "queue")),
                SharedStore(str(tmp_path / "store")),
                drain=True,
            )
            fetched = client.fetch_results(job_id)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        serial = Engine(cache_dir=str(tmp_path / "cache")).sweep(
            "table_density", SPEC
        )
        assert fetched.content_hash == serial.content_hash


class TestWorkerMetrics:
    def test_worker_report_carries_a_metrics_snapshot(self, tmp_path):
        from repro.dist import run_worker
        from repro.obs.metrics import reset_metrics

        reset_metrics()
        report = run_worker(
            "table_density", SPEC, SharedStore(str(tmp_path / "store"))
        )
        assert report.ok
        counters = report.metrics["counters"]
        assert counters['repro_claim_outcomes_total{status="acquired"}'] >= len(
            SPEC
        ) - 1
        reset_metrics()

"""HTTP API + client: endpoint contract, error codes, end-to-end parity."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Engine, SweepSpec
from repro.dist import SharedStore
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceError,
    SpecQueue,
    make_server,
    serve_queue,
)

SPEC = SweepSpec.grid(length_um=[1.0, 10.0])


@pytest.fixture()
def service(tmp_path):
    """A live server + client + queue/store over a temp directory."""
    server = make_server(str(tmp_path / "queue"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield {
            "server": server,
            "client": ServiceClient(server.url),
            "queue": server.queue,
            "store": SharedStore(str(tmp_path / "store")),
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _get_status_code(url: str) -> int:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status
    except urllib.error.HTTPError as error:
        with error:
            return error.code


def _http_error(request) -> urllib.error.HTTPError:
    """The HTTPError ``request`` raises, closed (its body read into ``body``)."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    error = excinfo.value
    with error:
        error.body = error.read()
    return error


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url) as response:
        return response.read().decode()


class TestHealth:
    def test_health_reports_version_registry_and_depth(self, service):
        from repro import __version__
        from repro.api.experiment import list_experiments
        from repro.api.study import list_studies

        health = service["client"].health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["registry"]["experiments"] == len(list_experiments())
        assert health["registry"]["studies"] == len(list_studies())
        assert health["queue"]["queued"] == 0
        service["queue"].submit(JobSpec(kind="sweep", name="table_density", sweep=SPEC))
        assert service["client"].health()["queue"]["queued"] == 1


class TestKeepAlive:
    def test_kept_alive_requests_do_not_stall(self, service):
        """Ten requests over one HTTP/1.1 connection: with Nagle's algorithm
        on, each response body waits ~40 ms for the client's delayed ACK."""
        job_id = service["client"].submit_sweep("table_density", SPEC)
        host, port = service["server"].server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            start = time.perf_counter()
            for _ in range(10):
                connection.request("GET", f"/status/{job_id}")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["job_id"] == job_id
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.25, f"10 kept-alive requests took {elapsed:.3f} s"


class TestSubmit:
    def test_submit_sweep_queues_a_job(self, service):
        job_id = service["client"].submit_sweep("table_density", SPEC)
        status = service["client"].status(job_id)
        assert status["state"] == "queued"
        assert status["kind"] == "sweep"
        assert status["name"] == "table_density"

    def test_submit_study_queues_a_job(self, service):
        job_id = service["client"].submit_study(
            "growth_to_wafer",
            params={"growth_window": {"duration_s": 500.0}},
        )
        assert service["client"].status(job_id)["kind"] == "study"

    def test_unknown_experiment_is_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="no_such") as excinfo:
            service["client"].submit_sweep("no_such", SPEC)
        assert excinfo.value.status == 400
        assert service["client"].list_jobs() == []  # nothing queued

    def test_unknown_axis_is_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="bogus_axis") as excinfo:
            service["client"].submit_sweep(
                "table_density", SweepSpec.grid(bogus_axis=[1])
            )
        assert excinfo.value.status == 400

    def test_malformed_sweep_descriptor_names_the_field(self, service):
        with pytest.raises(ServiceError, match="axes") as excinfo:
            service["client"].submit_sweep("table_density", {"mode": "grid"})
        assert excinfo.value.status == 400

    def test_missing_required_field_is_400(self, service):
        request = urllib.request.Request(
            service["server"].url + "/submit_sweep",
            data=json.dumps({"sweep": SPEC.to_meta()}).encode(),
            method="POST",
        )
        error = _http_error(request)
        assert error.code == 400
        assert "experiment" in json.loads(error.body)["error"]

    def test_non_json_body_is_400(self, service):
        request = urllib.request.Request(
            service["server"].url + "/submit_sweep",
            data=b"not json",
            method="POST",
        )
        assert _http_error(request).code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, length):
        """Sent over a raw socket with a timeout: a handler that waits for a
        body that never ends fails the test instead of hanging it."""
        host, port = service["server"].server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /submit_sweep HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in body["error"]
        assert service["client"].list_jobs() == []


class TestErrorRoutes:
    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service["client"].status("j-nope")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("route", ["status", "fetch_results"])
    def test_job_id_cannot_leave_the_queue_directory(self, service, tmp_path, route):
        # A finished job in a queue beside the served one (which holds a job
        # of its own, so its directory exists): a "../" id must not reach
        # the other queue's files.
        service["client"].submit_sweep("table_density", SPEC)
        outside = SpecQueue(str(tmp_path / "outside"))
        job_id = outside.submit(
            JobSpec(kind="sweep", name="table_density", sweep=SPEC)
        )
        serve_queue(outside, service["store"], drain=True)
        assert outside.status(job_id)["state"] == "done"

        host, port = service["server"].server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("GET", f"/{route}/../outside/{job_id}")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 404
        assert "error" in body

    def test_unknown_route_is_404(self, service):
        assert _get_status_code(service["server"].url + "/nope") == 404

    def test_post_to_read_only_route_is_405(self, service):
        request = urllib.request.Request(
            service["server"].url + "/health", data=b"{}", method="POST"
        )
        assert _http_error(request).code == 405

    def test_fetch_before_done_is_409(self, service):
        job_id = service["client"].submit_sweep("table_density", SPEC)
        with pytest.raises(ServiceError, match="queued") as excinfo:
            service["client"].fetch_results(job_id)
        assert excinfo.value.status == 409

    def test_unreachable_server_raises_with_no_status(self, tmp_path):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach") as excinfo:
            client.health()
        assert excinfo.value.status is None


class TestEndToEnd:
    def test_fetched_sweep_is_bit_identical_to_serial(self, service):
        client = service["client"]
        job_id = client.submit_sweep("table_density", SPEC)
        report = serve_queue(service["queue"], service["store"], drain=True)
        assert report.ok

        status = client.wait(job_id, timeout=30.0)
        assert status["state"] == "done"
        fetched = client.fetch_results(job_id)
        serial = Engine().sweep("table_density", SPEC)
        assert fetched == serial
        assert fetched.content_hash == serial.content_hash
        assert status["content_hash"] == serial.content_hash

    def test_failed_job_surfaces_through_wait(self, service):
        client = service["client"]
        # Valid at submit time, fails in execution: corrupt the queued spec.
        job_id = client.submit_sweep("table_density", SPEC)
        import os

        path = os.path.join(service["queue"].directory, job_id + ".job.json")
        with open(path) as handle:
            document = json.load(handle)
        document["spec"]["kind"] = "batch"
        with open(path, "w") as handle:
            json.dump(document, handle)

        serve_queue(service["queue"], service["store"], drain=True)
        with pytest.raises(ServiceError, match="failed"):
            client.wait(job_id, timeout=10.0)

    def test_list_jobs_tracks_states(self, service):
        client = service["client"]
        done_id = client.submit_sweep("table_density", SPEC)
        serve_queue(service["queue"], service["store"], drain=True)
        queued_id = client.submit_sweep(
            "table_density", SweepSpec.grid(length_um=[2.0])
        )
        states = {job["job_id"]: job["state"] for job in client.list_jobs()}
        assert states == {done_id: "done", queued_id: "queued"}


class TestObservability:
    def test_metrics_serves_prometheus_text(self, service):
        service["client"].health()  # at least one observed GET
        with urllib.request.urlopen(service["server"].url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode()
        assert "# TYPE repro_http_requests_total counter" in body
        assert 'endpoint="/health"' in body
        assert "repro_http_request_seconds_bucket" in body
        assert 'repro_queue_depth{state="queued"} 0' in body

    def test_metrics_refreshes_queue_depth_gauges(self, service):
        service["queue"].submit(JobSpec(kind="sweep", name="table_density", sweep=SPEC))
        body = _get_text(service["server"].url + "/metrics")
        assert 'repro_queue_depth{state="queued"} 1' in body

    def test_status_ids_are_normalised_out_of_endpoint_labels(self, service):
        _get_status_code(service["server"].url + "/status/j-zzz")  # 404, still counted
        body = _get_text(service["server"].url + "/metrics")
        assert 'endpoint="/status"' in body
        assert "j-zzz" not in body

    def test_health_reports_uptime_and_settled_jobs(self, service):
        job_id = service["client"].submit_sweep("table_density", SPEC)
        serve_queue(service["queue"], service["store"], drain=True)
        health = service["client"].health()
        assert health["uptime_s"] >= 0.0
        assert health["jobs_since_start"] == {"done": 1, "failed": 0}
        assert "counters" in health["metrics"]
        assert service["client"].status(job_id)["state"] == "done"

    def test_trace_header_lands_in_the_job_document(self, service, tmp_path):
        from repro.obs.trace import current_carrier, trace_span, tracing

        with tracing(str(tmp_path / "trace.jsonl")):
            with trace_span("test.submit"):
                carrier = current_carrier()
                job_id = service["client"].submit_sweep("table_density", SPEC)
        stored = service["queue"].read_trace(job_id)
        assert stored is not None
        assert stored["trace_id"] == carrier["trace_id"]
        assert stored["sink"] == carrier["sink"]

    def test_untraced_submit_stores_no_carrier(self, service):
        job_id = service["client"].submit_sweep("table_density", SPEC)
        assert service["queue"].read_trace(job_id) is None

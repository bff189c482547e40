"""HTTP front end over a spec queue: submit work, poll status, fetch results.

Built on the stdlib :mod:`http.server` (no new dependencies); one
:class:`ServiceServer` fronts one :class:`~repro.service.queue.SpecQueue`.
The server never executes anything -- it writes jobs into the queue and
reads status/result files back -- so it stays responsive no matter what the
daemons are doing, and N servers on one queue directory are as safe as N
daemons.

Endpoint contract (all JSON; see ``docs/SERVICE.md`` for curl sessions):

``POST /submit_sweep``
    Body ``{"experiment", "sweep": {"mode", "axes"}, "params"?,
    "stage_params"?}``.  Validated against the registry at submit time
    (unknown experiment/axis/parameter -> 400 naming the field).  Returns
    ``{"job_id"}``.
``POST /submit_study``
    Body ``{"study", "sweep"?, "params"?}`` where ``params`` are per-stage
    overrides keyed by experiment name.  Returns ``{"job_id"}``.
``POST /submit_campaign``
    Body ``{"experiment", "sweep": <candidate pool>, "campaign":
    {"objective", "mode"?, "batch"?, "budget"?, "strategy"?, "seed"?,
    "target"?, "patience"?, "tolerance"?}, "params"?, "stage_params"?}``.
    Queues a closed-loop adaptive campaign (see ``docs/CAMPAIGNS.md``).
    Returns ``{"job_id"}``.
``GET /status/<job_id>``
    The job's merged status view (state queued/running/done/failed,
    progress, worker, error).  404 for unknown ids.
``GET /fetch_results/<job_id>``
    The completed job's merged ResultSet as its canonical JSON export
    (load with ``ResultSet.from_json``).  409 while the job is not done.
``GET /list_jobs``
    ``{"jobs": [status, ...]}`` oldest first.
``GET /health``
    Liveness + capacity: package version, uptime, registry size
    (experiments and studies), queue depth by state, jobs settled since
    this server started, and this process's metrics snapshot.
``GET /metrics``
    Prometheus text exposition (0.0.4) of the process-local
    :mod:`repro.obs.metrics` registry -- HTTP request counters/latency,
    queue depth gauges (refreshed per scrape) and whatever engine/solver
    series this process has produced.

Every endpoint is counted in ``repro_http_requests_total{endpoint,method,
code}`` and timed in ``repro_http_request_seconds{endpoint}`` (job ids are
normalised out of the endpoint label).  A ``POST /submit_*`` carrying an
``X-Repro-Trace`` header joins the submitting client's trace: the submit is
recorded as a ``service.submit`` span and the carrier is stored with the
queued job, so the daemon that executes it continues the same trace.

Errors are ``{"error": message}`` with conventional status codes (400
malformed/invalid submission, 404 unknown job or route, 405 wrong method,
409 results not ready).
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import urlparse

from repro import __version__
from repro.api.experiment import ExperimentError, list_experiments
from repro.api.study import list_studies
from repro.obs import metrics
from repro.obs.metrics import metrics_snapshot, render_prometheus
from repro.obs.trace import TRACE_HEADER, activate_carrier, carrier_from_header, trace_span
from repro.service.jobs import JOB_DONE, JOB_FAILED, JobSpec
from repro.service.queue import SpecQueue, UnknownJobError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

MAX_BODY_BYTES = 1 << 20
"""Submission bodies above 1 MiB are rejected (413) -- a spec is small."""


class ServiceServer(ThreadingHTTPServer):
    """One HTTP server bound to one spec queue directory."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        queue: SpecQueue,
        quiet: bool = True,
    ) -> None:
        self.queue = queue
        self.quiet = quiet
        self.started_at = time.time()
        # Depth snapshot at bind time: /health reports settled-job deltas
        # against it ("what happened since this server came up").
        self.initial_depth = queue.depth()
        super().__init__(address, ServiceHandler)

    @property
    def url(self) -> str:
        """The server's reachable base URL (port resolved after bind)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    queue_dir: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    quiet: bool = True,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` over ``queue_dir`` (``port=0``: ephemeral).

    The caller owns the serve loop: ``server.serve_forever()`` blocks (the
    CLI's ``python -m repro serve``), or run it in a thread and
    ``server.shutdown()`` to stop (the tests do).
    """
    return ServiceServer((host, port), SpecQueue(queue_dir), quiet=quiet)


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the endpoint contract; all responses are JSON."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm on,
    # the body of every kept-alive response waits ~40 ms for the client's
    # delayed ACK.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for type checkers

    # --- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_body(self, body: bytes, status: int, content_type: str) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (
            payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        )
        self._send_body(body, status, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry another
            # request.
            self.close_connection = True
            if length < 0:
                raise _HttpFault(400, "Content-Length must be a non-negative integer")
            raise _HttpFault(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _HttpFault(400, "empty request body; expected a JSON object")
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise _HttpFault(400, f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise _HttpFault(400, "request body must be a JSON object")
        return payload

    # --- routes -----------------------------------------------------------

    @staticmethod
    def _endpoint_label(path: str) -> str:
        """Normalise a request path to a bounded-cardinality metric label."""
        if path.startswith("/status/"):
            return "/status"
        if path.startswith("/fetch_results/"):
            return "/fetch_results"
        if path in ("/health", "/list_jobs", "/metrics", "/submit_sweep",
                    "/submit_study", "/submit_campaign", "/status",
                    "/fetch_results"):
            return path
        return "other"

    def _observe(self, method: str, path: str, started: float) -> None:
        endpoint = self._endpoint_label(path)
        metrics.counter(
            "repro_http_requests_total",
            endpoint=endpoint,
            method=method,
            code=str(getattr(self, "_last_status", 0)),
        ).inc()
        metrics.histogram("repro_http_request_seconds", endpoint=endpoint).observe(
            time.perf_counter() - started
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        path = urlparse(self.path).path.rstrip("/")
        started = time.perf_counter()
        try:
            if path == "/health":
                self._send_json(self._health())
            elif path == "/metrics":
                self._metrics()
            elif path == "/list_jobs":
                self._send_json({"jobs": self.server.queue.statuses()})
            elif path.startswith("/status/"):
                job_id = path[len("/status/"):]
                self._send_json(self.server.queue.status(job_id))
            elif path.startswith("/fetch_results/"):
                job_id = path[len("/fetch_results/"):]
                self._fetch_results(job_id)
            else:
                self._send_error_json(404, f"unknown endpoint {path!r}")
        except _HttpFault as fault:
            self._send_error_json(fault.status, fault.message)
        except UnknownJobError as error:
            self._send_error_json(404, str(error))
        except Exception as error:  # never let a handler kill the server
            self._send_error_json(500, f"{type(error).__name__}: {error}")
        finally:
            self._observe("GET", path, started)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        path = urlparse(self.path).path.rstrip("/")
        started = time.perf_counter()
        # A client-sent trace context makes the submit (and the queued job)
        # part of the client's trace; absent/malformed headers are ignored.
        carrier = carrier_from_header(self.headers.get(TRACE_HEADER))
        try:
            with activate_carrier(carrier):
                if path == "/submit_sweep":
                    self._submit(self._sweep_payload(self._read_body()))
                elif path == "/submit_study":
                    self._submit(self._study_payload(self._read_body()))
                elif path == "/submit_campaign":
                    self._submit(self._campaign_payload(self._read_body()))
                elif path in ("/health", "/list_jobs", "/metrics") or path.startswith(
                    ("/status/", "/fetch_results/")
                ):
                    self._send_error_json(405, f"{path!r} is read-only; use GET")
                else:
                    self._send_error_json(404, f"unknown endpoint {path!r}")
        except _HttpFault as fault:
            self._send_error_json(fault.status, fault.message)
        except Exception as error:
            self._send_error_json(500, f"{type(error).__name__}: {error}")
        finally:
            self._observe("POST", path, started)

    # --- endpoint bodies --------------------------------------------------

    @staticmethod
    def _sweep_payload(body: dict[str, Any]) -> dict[str, Any]:
        if "experiment" not in body:
            raise _HttpFault(400, "submit_sweep body is missing field 'experiment'")
        return {
            "kind": "sweep",
            "name": body["experiment"],
            "sweep": body.get("sweep"),
            "params": body.get("params"),
            "stage_params": body.get("stage_params"),
        }

    @staticmethod
    def _study_payload(body: dict[str, Any]) -> dict[str, Any]:
        if "study" not in body:
            raise _HttpFault(400, "submit_study body is missing field 'study'")
        return {
            "kind": "study",
            "name": body["study"],
            "sweep": body.get("sweep"),
            "stage_params": body.get("params"),
        }

    @staticmethod
    def _campaign_payload(body: dict[str, Any]) -> dict[str, Any]:
        for required in ("experiment", "sweep", "campaign"):
            if required not in body:
                raise _HttpFault(
                    400, f"submit_campaign body is missing field {required!r}"
                )
        return {
            "kind": "campaign",
            "name": body["experiment"],
            "sweep": body["sweep"],
            "campaign": body["campaign"],
            "params": body.get("params"),
            "stage_params": body.get("stage_params"),
        }

    def _submit(self, payload: dict[str, Any]) -> None:
        try:
            job = JobSpec.from_payload(payload).validate()
        except (ValueError, ExperimentError) as error:
            # Untrusted spec rejected at the door, naming the bad field.
            raise _HttpFault(400, str(error))
        with trace_span(
            "service.submit", kind=payload.get("kind"), target=payload.get("name")
        ) as span:
            # queue.submit self-injects the *current* carrier, i.e. this
            # service.submit span, into the job document.
            job_id = self.server.queue.submit(job)
            span.set("job_id", job_id)
        self._send_json({"job_id": job_id, "state": "queued"})

    def _fetch_results(self, job_id: str) -> None:
        queue = self.server.queue
        status = queue.status(job_id)  # raises UnknownJobError -> 404
        try:
            text, _ = queue.read_result(job_id, status["state"])
        except ValueError:
            raise _HttpFault(
                409,
                f"job {job_id!r} has no results yet: state is "
                f"{status['state']!r}"
                + (f" ({status.get('error')})" if status.get("error") else ""),
            )
        # The stored export, verified by read_result, is sent as it is: it
        # is the canonical exporter's text, content hash included.
        self._send_json(text.encode())

    def _metrics(self) -> None:
        # Queue depth is registry state only at scrape time: refresh the
        # gauges from the queue directory before rendering.
        for state, count in self.server.queue.depth().items():
            metrics.gauge("repro_queue_depth", state=state).set(count)
        self._send_body(
            render_prometheus().encode(),
            200,
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _health(self) -> dict[str, Any]:
        depth = self.server.queue.depth()
        initial = self.server.initial_depth
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": time.time() - self.server.started_at,
            "registry": {
                "experiments": len(list_experiments()),
                "studies": len(list_studies()),
            },
            "queue": {
                "directory": self.server.queue.directory,
                **depth,
            },
            "jobs_since_start": {
                "done": depth[JOB_DONE] - initial.get(JOB_DONE, 0),
                "failed": depth[JOB_FAILED] - initial.get(JOB_FAILED, 0),
            },
            "metrics": metrics_snapshot(),
        }


class _HttpFault(Exception):
    """Internal control flow: an error response with a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message

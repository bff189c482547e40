"""Thin Python client for the repro service HTTP API.

Wraps the endpoint contract of :mod:`repro.service.server` in typed calls
(stdlib :mod:`urllib` only)::

    from repro.api import SweepSpec
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    print(client.health()["queue"])

    job_id = client.submit_sweep(
        "table_density", SweepSpec.grid(length_um=[1.0, 10.0])
    )
    client.wait(job_id, timeout=120)
    result = client.fetch_results(job_id)   # a full ResultSet, bit-identical
    print(len(result), result.content_hash[:16])

Every server-side rejection surfaces as :class:`ServiceError` carrying the
HTTP status and the server's ``error`` message; connection problems raise
:class:`ServiceError` with ``status=None``.  The CLI verbs ``python -m
repro submit/status/fetch`` are thin shells over this class.
"""

from __future__ import annotations

import json
import time
from typing import Any, Mapping

from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.dist.backoff import Backoff
from repro.obs.trace import TRACE_HEADER, carrier_to_header, current_carrier, trace_span
from repro.service.jobs import JOB_DONE, JOB_FAILED


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the service.

    ``status`` is the HTTP status code, or ``None`` when the server was
    unreachable; the message is the server's ``error`` field when present.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _sweep_descriptor(sweep: SweepSpec | Mapping[str, Any] | None) -> Any:
    if sweep is None or isinstance(sweep, SweepSpec):
        return None if sweep is None else sweep.to_meta()
    return dict(sweep)  # hand-built descriptor: the server validates it


class ServiceClient:
    """Typed access to one service server (see module docstring)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"

    # --- transport --------------------------------------------------------

    def _request(self, method: str, path: str, payload: Any = None) -> str:
        # Imported here, so a process that never sends a request (the CLI's
        # other commands) never loads the HTTP stack.
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        # With tracing active, every request carries the open span so the
        # server (and eventually the executing daemon) joins this trace.
        carrier = current_carrier()
        if carrier is not None:
            headers[TRACE_HEADER] = carrier_to_header(carrier)
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            method=method,
            data=None if payload is None else json.dumps(payload).encode(),
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode()
        except urllib.error.HTTPError as error:
            with error:  # the error holds the response: close it
                body = error.read().decode(errors="replace")
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body or error.reason
            raise ServiceError(
                f"{method} {path} failed ({error.code}): {message}",
                status=error.code,
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {error.reason}"
            ) from None

    def _get_json(self, path: str) -> Any:
        return json.loads(self._request("GET", path))

    def _post_json(self, path: str, payload: Any) -> Any:
        return json.loads(self._request("POST", path, payload))

    # --- endpoints --------------------------------------------------------

    def submit_sweep(
        self,
        experiment: str,
        sweep: SweepSpec | Mapping[str, Any],
        params: Mapping[str, Any] | None = None,
        stage_params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> str:
        """Submit a sweep job; returns its job id.

        ``sweep`` is a :class:`SweepSpec` or a raw ``{"mode", "axes"}``
        descriptor; validation (unknown experiment, axis, parameter)
        happens server-side at submit time and raises :class:`ServiceError`
        with the server's field-naming message.
        """
        body: dict[str, Any] = {
            "experiment": experiment,
            "sweep": _sweep_descriptor(sweep),
        }
        if params:
            body["params"] = dict(params)
        if stage_params:
            body["stage_params"] = {k: dict(v) for k, v in stage_params.items()}
        with trace_span("client.submit_sweep", experiment=experiment) as span:
            job_id = self._post_json("/submit_sweep", body)["job_id"]
            span.set("job_id", job_id)
        return job_id

    def submit_study(
        self,
        study: str,
        sweep: SweepSpec | Mapping[str, Any] | None = None,
        params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> str:
        """Submit a study job (``params`` are per-stage overrides)."""
        body: dict[str, Any] = {"study": study}
        descriptor = _sweep_descriptor(sweep)
        if descriptor is not None:
            body["sweep"] = descriptor
        if params:
            body["params"] = {k: dict(v) for k, v in params.items()}
        with trace_span("client.submit_study", study=study) as span:
            job_id = self._post_json("/submit_study", body)["job_id"]
            span.set("job_id", job_id)
        return job_id

    def submit_campaign(
        self,
        experiment: str,
        sweep: SweepSpec | Mapping[str, Any],
        objective: str,
        mode: str = "min",
        batch: int = 8,
        budget: int | None = None,
        strategy: str = "surrogate",
        seed: int = 0,
        target: float | None = None,
        patience: int | None = None,
        tolerance: float = 0.0,
        params: Mapping[str, Any] | None = None,
        stage_params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> str:
        """Submit a closed-loop adaptive campaign job; returns its job id.

        ``sweep`` is the campaign's candidate pool; the daemon runs a
        :class:`~repro.campaign.Campaign` over it (strategy/batch/budget/
        stopping rules as given) and stores the merged ResultSet of every
        visited point, with the campaign report under ``meta["campaign"]``.
        """
        campaign: dict[str, Any] = {
            "objective": objective,
            "mode": mode,
            "batch": batch,
            "strategy": strategy,
            "seed": seed,
            "tolerance": tolerance,
        }
        if budget is not None:
            campaign["budget"] = budget
        if target is not None:
            campaign["target"] = target
        if patience is not None:
            campaign["patience"] = patience
        body: dict[str, Any] = {
            "experiment": experiment,
            "sweep": _sweep_descriptor(sweep),
            "campaign": campaign,
        }
        if params:
            body["params"] = dict(params)
        if stage_params:
            body["stage_params"] = {k: dict(v) for k, v in stage_params.items()}
        with trace_span(
            "client.submit_campaign", experiment=experiment, objective=objective
        ) as span:
            job_id = self._post_json("/submit_campaign", body)["job_id"]
            span.set("job_id", job_id)
        return job_id

    def status(self, job_id: str) -> dict[str, Any]:
        """One job's status view (state, progress, worker, error)."""
        return self._get_json(f"/status/{job_id}")

    def list_jobs(self) -> list[dict[str, Any]]:
        """Status views of every queued/running/settled job, oldest first."""
        return self._get_json("/list_jobs")["jobs"]

    def health(self) -> dict[str, Any]:
        """Service liveness: version, registry size, queue depth."""
        return self._get_json("/health")

    def fetch_results(self, job_id: str) -> ResultSet:
        """The completed job's merged :class:`ResultSet`.

        Raises :class:`ServiceError` (status 409) while the job is still
        queued or running, and for failed jobs (the message carries the
        recorded error).
        """
        return ResultSet.from_json(self._request("GET", f"/fetch_results/{job_id}"))

    # --- convenience ------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float | None = 300.0,
        poll_interval: float = 0.2,
    ) -> dict[str, Any]:
        """Poll until the job settles; returns the terminal status.

        A job that reaches ``failed`` state raises :class:`ServiceError`
        carrying the recorded error; exceeding ``timeout`` raises
        :class:`ServiceError` with the last observed status in the message.
        Polling backs off with jitter like every other loop in the service.
        """
        backoff = Backoff(
            initial=poll_interval, maximum=max(poll_interval * 16, 2.0)
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] == JOB_DONE:
                return status
            if status["state"] == JOB_FAILED:
                raise ServiceError(
                    f"job {job_id} failed: {status.get('error') or 'unknown error'}"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']!r} after "
                    f"{timeout:.1f} s"
                )
            time.sleep(backoff.next_delay())

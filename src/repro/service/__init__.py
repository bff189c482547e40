"""repro.service: persistent sweep daemons over a spec queue, plus an HTTP API.

:mod:`repro.dist` made sweeps shardable across processes; this package makes
them *submittable*: work arrives as serialized job specs in a durable
on-disk queue, long-lived daemons claim and execute them, and a stdlib HTTP
server lets clients submit, poll, and fetch from anywhere that can reach the
socket.  Nothing here recomputes anything -- execution flows through the
same claim/execute/publish machinery as ``repro.dist``, so a result fetched
over HTTP is bit-identical (content hash and all) to the same sweep run
serially.

The pieces, one module each:

* :class:`JobSpec` (:mod:`repro.service.jobs`) -- the validated unit of
  work: one sweep, study, or adaptive-campaign execution request;
* :class:`SpecQueue` (:mod:`repro.service.queue`) -- the durable queue:
  submit/claim/complete with exactly-once leasing borrowed from
  :class:`~repro.dist.store.SharedStore`;
* :func:`serve_queue` (:mod:`repro.service.daemon`) -- the daemon loop
  behind ``python -m repro worker --watch QUEUE_DIR``;
* :func:`make_server` (:mod:`repro.service.server`) -- the HTTP front end
  behind ``python -m repro serve``;
* :class:`ServiceClient` (:mod:`repro.service.client`) -- the typed client
  behind ``python -m repro submit/status/fetch``.

End to end, in process (the HTTP layer adds transport, not semantics)::

    import tempfile

    from repro.api import SweepSpec
    from repro.dist import SharedStore
    from repro.service import JobSpec, SpecQueue, serve_queue

    queue = SpecQueue(tempfile.mkdtemp())
    store = SharedStore(tempfile.mkdtemp())

    job_id = queue.submit(JobSpec(
        kind="sweep", name="table_density",
        sweep=SweepSpec.grid(length_um=[1.0, 10.0]),
    ))
    serve_queue(queue, store, drain=True)

    print(queue.status(job_id)["state"])
    print(len(queue.load_result(job_id)))

See ``docs/SERVICE.md`` for the daemon lifecycle, the HTTP endpoint
contract with curl sessions, and failure semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("ServiceClient", "ServiceError"),
        "daemon": ("DaemonReport", "JobExecutionError", "execute_job", "serve_queue"),
        "jobs": (
            "JOB_DONE",
            "JOB_FAILED",
            "JOB_KINDS",
            "JOB_QUEUED",
            "JOB_RUNNING",
            "JOB_STATES",
            "JobSpec",
        ),
        "queue": ("SpecQueue", "UnknownJobError", "new_job_id"),
        "server": ("DEFAULT_HOST", "DEFAULT_PORT", "ServiceServer", "make_server"),
    },
)

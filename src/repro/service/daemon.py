"""Sweep daemon: claim jobs from a spec queue, execute, publish, repeat.

:func:`serve_queue` is the loop behind ``python -m repro worker --watch
QUEUE_DIR``.  A daemon binds one :class:`~repro.service.queue.SpecQueue`
(the work list) to one :class:`~repro.dist.store.SharedStore` (where the
point results live) and serves until stopped:

* **claim**: the oldest claimable job is leased through the queue's
  :class:`~repro.dist.store.SharedStore` semantics -- exactly one live
  daemon owns a job, and a crashed daemon's lease expires within one ttl so
  a sibling takes the job over (the points it already published are served
  from the store, not recomputed);
* **execute**: every job kind runs on one store-backed
  :class:`~repro.api.engine.Engine` -- sweep jobs as ``Engine.sweep``,
  study jobs as ``Engine.run_study``, campaign jobs through the
  closed-loop :class:`~repro.campaign.Campaign` runner -- so every point
  publishes into the store and a point already there is a cache hit; a
  background heartbeat renews the job lease the whole time;
* **publish**: the engine's merged ResultSet (bit-identical to a serial
  run) is exported next to the queue entry and the completion record is
  published atomically.  A job that raises gets a failure tombstone
  instead, carrying the error text (for a sweep, the ``SweepError``
  naming how many points failed), and is not retried (see
  :meth:`~repro.service.queue.SpecQueue.requeue`);
* **idle**: between jobs the daemon polls with jittered exponential
  backoff (:class:`~repro.dist.backoff.Backoff`), so a fleet of daemons on
  one queue does not hammer the store lock in lockstep.

Shutdown is cooperative: ``stop`` (a :class:`threading.Event`) is checked
between jobs, so setting it -- the SIGTERM handler of the CLI does --
finishes the in-flight job, publishes it, and exits cleanly.  With
``drain=True`` the daemon exits as soon as the queue has nothing claimable
instead of waiting for new work (the mode the CI smoke job and the tests
use).

Quick start::

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

    report = serve_queue(queue, store, drain=True)
    print(report.summary())
    print(queue.status(job_id)["state"], len(queue.load_result(job_id)))
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api.engine import Engine, SweepPoint
from repro.api.study import get_study
from repro.dist.backoff import Backoff
from repro.dist.store import DEFAULT_LEASE_TTL, ResultStore, default_worker_id
from repro.obs import metrics
from repro.obs.trace import activate_carrier, trace_span
from repro.service.jobs import JobSpec
from repro.service.queue import SpecQueue

logger = logging.getLogger("repro.service.daemon")

# Seconds between a running job's progress documents after the claim-time
# one: each is an atomic file write, and a fast job lands many points per
# second, so progress is coalesced instead of written per point.
PROGRESS_INTERVAL_S = 0.5


class JobExecutionError(RuntimeError):
    """A campaign job failed or stopped before visiting any point."""


@dataclass(frozen=True)
class DaemonReport:
    """What one daemon did over its serving lifetime.

    ``executed`` / ``failed`` hold job ids in completion order; a job a
    sibling daemon claimed first appears in neither list.
    """

    worker_id: str
    executed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every job this daemon claimed completed successfully."""
        return not self.failed

    def summary(self) -> str:
        """One-line human summary (what the CLI prints at exit)."""
        return (
            f"daemon {self.worker_id}: {len(self.executed)} jobs executed, "
            f"{len(self.failed)} failed ({self.wall_time_s:.3f} s)"
        )


def execute_job(
    job: JobSpec,
    store: ResultStore,
    on_progress: Callable[[int, int], None] | None = None,
) -> Any:
    """Execute one claimed job against the result store; returns the ResultSet.

    Every job kind runs on one store-backed :class:`~repro.api.engine.Engine`:
    points already in the store (published by a crashed daemon that held
    this job before, or by any earlier run) are cache hits, the rest execute
    and publish, and the merged ResultSet is the engine's own -- bit-identical
    (content hash and all) to the same work run serially.  The job lease
    makes this daemon the job's only owner, so no point is leased.
    ``on_progress`` receives ``(points_done, points_total)`` as points land.

    Raises :class:`~repro.api.engine.SweepError` when some points fail (the
    completed ones stay published) and :class:`JobExecutionError` when a
    campaign stops; the caller records the job tombstone.
    """
    engine = Engine(store=store)
    stage_params = dict(job.stage_params) or None
    if job.kind == "campaign":
        # Every visited point publishes into the store, so a re-submitted
        # or resumed campaign replays from cache like any sweep.
        from repro.campaign import Campaign, CampaignError

        settings = dict(job.campaign or {})
        try:
            campaign = Campaign(
                job.name,
                job.sweep,
                settings["objective"],
                mode=settings["mode"],
                strategy=settings["strategy"],
                batch_size=settings["batch"],
                budget=settings.get("budget"),
                seed=settings["seed"],
                base_params=dict(job.params),
                stage_params=stage_params,
                target=settings.get("target"),
                patience=settings.get("patience"),
                tolerance=settings["tolerance"],
                engine=engine,
            )
            report = campaign.run(on_progress)
        except CampaignError as error:
            raise JobExecutionError(str(error))
        if report.result is None:
            raise JobExecutionError(
                "campaign stopped before visiting any point "
                f"({report.stop_reason})"
            )
        return report.result

    if job.kind == "study":
        study = get_study(job.name)
        spec = job.sweep if job.sweep is not None else study.sweep
    else:
        spec = job.sweep
    total = 0 if spec is None else len(spec)
    landed = itertools.count(1)

    def on_result(point: SweepPoint) -> None:
        if on_progress is not None:
            on_progress(next(landed), total)

    if job.kind == "study":
        return engine.run_study(
            study, stage_params=stage_params, sweep=job.sweep, on_result=on_result
        )
    return engine.sweep(
        job.name,
        spec,
        base_params=dict(job.params),
        on_result=on_result,
        stage_params=stage_params,
    )


def _progress_recorder(queue: SpecQueue, job_id: str) -> Callable[[int, int], None]:
    """Record a claimed job's first progress document; coalesce the rest.

    The returned ``on_progress`` callback writes at most one document per
    :data:`PROGRESS_INTERVAL_S`, so a running job's ``status`` always
    carries a progress block without one file write per landed point.
    """
    queue.record_progress(job_id, points_done=0, points_total=None)
    last = time.monotonic()

    def record(done: int, total: int) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last >= PROGRESS_INTERVAL_S:
            queue.record_progress(job_id, points_done=done, points_total=total)
            last = now

    return record


def serve_queue(
    queue: SpecQueue,
    store: ResultStore,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    drain: bool = False,
    max_jobs: int | None = None,
    stop: threading.Event | None = None,
    on_event: Callable[[str], None] | None = None,
) -> DaemonReport:
    """Serve a spec queue until stopped, drained, or ``max_jobs`` executed.

    Parameters
    ----------
    queue:
        The :class:`SpecQueue` to claim jobs from.
    store:
        Result store the job's points execute against (a
        :class:`~repro.dist.store.SharedStore` when daemons cooperate).
    worker_id:
        Job lease identity; defaults to ``<hostname>-<pid>``.
    lease_ttl:
        Job lease duration; renewed by heartbeat while the job runs, so it
        only bounds how long a *crashed* daemon blocks a job.
    poll_interval:
        Initial idle-poll sleep; idle polls back off geometrically with
        jitter (capped) and snap back on any claimed job.
    drain:
        Exit once nothing is claimable instead of waiting for new jobs.
    max_jobs:
        Exit after this many claimed jobs (``None``: unbounded).
    stop:
        Cooperative shutdown flag, checked between jobs and while idle --
        the in-flight job always completes and publishes.
    on_event:
        Optional line-oriented progress callback (the CLI's progress
        renderer).  Every event also goes to the ``repro.service.daemon``
        logger, so ``python -m repro --log-level info`` sees daemon
        activity with timestamps whether or not a callback is installed.
    """
    worker = worker_id if worker_id is not None else default_worker_id()
    halt = stop if stop is not None else threading.Event()
    backoff = Backoff(initial=poll_interval, maximum=max(poll_interval * 16, 5.0))
    executed: list[str] = []
    failed: list[str] = []
    start = time.perf_counter()

    def emit(message: str) -> None:
        logger.info(message)
        if on_event is not None:
            on_event(message)

    emit(f"daemon {worker}: watching {queue.directory}, store {store.directory}")
    while not halt.is_set():
        claimed = queue.claim_next(worker, lease_ttl)
        if claimed is None:
            if drain:
                break
            if halt.wait(backoff.next_delay()):
                break
            continue
        backoff.reset()
        job_id, payload = claimed
        # The heartbeat keeps the job lease alive for as long as execution
        # takes.  A job submitted under tracing carries its submitter's
        # carrier: adopt it so every span this execution produces (the
        # engine's sweep and points, solver spans) joins the submitting
        # client's trace.
        with queue.heartbeat(job_id, worker, lease_ttl), activate_carrier(
            queue.read_trace(job_id)
        ), trace_span("daemon.job", job_id=job_id, worker=worker):
            job_start = time.perf_counter()
            try:
                job = JobSpec.from_payload(payload).validate()
                emit(f"daemon {worker}: claimed {job_id} ({job.describe()})")
                result = execute_job(
                    job, store, on_progress=_progress_recorder(queue, job_id)
                )
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                queue.fail(job_id, worker, message)
                failed.append(job_id)
                metrics.counter("repro_jobs_total", state="failed").inc()
                emit(f"daemon {worker}: {job_id} FAILED: {message}")
            else:
                queue.store_result(job_id, result)
                queue.complete(
                    job_id,
                    {
                        "worker_id": worker,
                        "content_hash": result.content_hash,
                        "n_records": len(result),
                        "wall_time_s": time.perf_counter() - job_start,
                    },
                )
                executed.append(job_id)
                metrics.counter("repro_jobs_total", state="done").inc()
                emit(
                    f"daemon {worker}: {job_id} done "
                    f"({len(result)} records, {result.content_hash[:16]})"
                )
        if max_jobs is not None and len(executed) + len(failed) >= max_jobs:
            break

    report = DaemonReport(
        worker_id=worker,
        executed=executed,
        failed=failed,
        wall_time_s=time.perf_counter() - start,
    )
    emit(report.summary())
    return report

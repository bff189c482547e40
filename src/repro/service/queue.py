"""Durable on-disk spec queue with lease-based exactly-once job claiming.

A :class:`SpecQueue` is a directory that clients drop serialized
:class:`~repro.service.jobs.JobSpec` documents into and daemons drain.  The
coordination is *exactly* the :class:`~repro.dist.store.SharedStore`
lease/tombstone machinery that already makes sweep points race-safe, reused
one level up -- a job's **completion record** plays the role of a store
entry:

======================  ======================================================
``<id>.job.json``       the submitted spec (immutable, written once)
``<id>.done.json``      completion record (atomic publish removes the lease)
``<id>.done.json.lease``  a daemon's ttl-bounded claim while it executes
``<id>.done.json.failed`` failure tombstone (the job raised; not retried)
``<id>.progress.json``  live progress (single writer: the claiming daemon)
``<id>.result.json``    the job's merged ResultSet export
======================  ======================================================

``claim`` therefore inherits all of the store's guarantees: exactly one
live daemon holds a job at a time, a daemon killed mid-job merely loses its
lease (once the ttl lapses any surviving daemon claims the job again, and
the *points* it already published to the result store are not recomputed),
and publishing the completion record is atomic.  A job whose execution
raises gets a failure tombstone instead -- tombstoned jobs are **not**
retried (unlike sweep points, a job has no sibling claim that would succeed
where this one raised); :meth:`SpecQueue.requeue` clears the tombstone to
resubmit it after the cause is fixed.

A queue is safe to share between N daemons, M HTTP servers and any number
of submitting clients through the filesystem alone; no process is special.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Iterable, Iterator, Mapping

from repro.api.results import ResultSet
from repro.dist.store import (
    CLAIM_ACQUIRED,
    DEFAULT_LEASE_TTL,
    FAILED_SUFFIX,
    LEASE_SUFFIX,
    SharedStore,
    _atomic_write,
)
from repro.dist.worker import LeaseHeartbeat
from repro.obs.trace import current_carrier
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
)

JOB_SUFFIX = ".job.json"
DONE_SUFFIX = ".done.json"
PROGRESS_SUFFIX = ".progress.json"
RESULT_SUFFIX = ".result.json"


class UnknownJobError(KeyError):
    """Raised when looking up a job id the queue has never seen."""

    # KeyError.__str__ repr-quotes the message; keep the plain text.
    __str__ = Exception.__str__


class _QueueStore(SharedStore):
    """A :class:`SharedStore` whose entries are plain JSON documents.

    The claim/release/renew/tombstone machinery is inherited unchanged --
    only the entry payload differs: queue completion records are small JSON
    objects, not ResultSets, so ``load``/``publish`` (de)serialise dicts.
    A corrupt completion record loads as ``None``: ``claim`` disposes of
    it and re-grants the job, exactly like a torn store entry, and
    :meth:`SpecQueue.gc` disposes of it for :meth:`SpecQueue.claim_next`,
    which never offers a job whose record is listed.
    """

    def load(self, path: str) -> dict | None:  # type: ignore[override]
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def publish(self, path: str, payload: Mapping[str, Any]) -> None:  # type: ignore[override]
        self._publish_texts([(path, json.dumps(payload))])


def new_job_id() -> str:
    """A fresh, unguessable job id (``j-<12 hex>``)."""
    return f"j-{uuid.uuid4().hex[:12]}"


class SpecQueue:
    """One queue directory: submit, claim, track and complete jobs.

    All methods are safe to call from any process sharing the directory;
    the mutating ones coordinate through the queue's store lock exactly as
    distributed workers do on a result store.
    """

    def __init__(self, directory: str, poll_interval: float = 0.05) -> None:
        self.directory = str(directory)
        self._store = _QueueStore(self.directory, poll_interval=poll_interval)

    def __repr__(self) -> str:
        return f"SpecQueue({self.directory!r})"

    # --- layout -----------------------------------------------------------

    def _path(self, job_id: str, suffix: str) -> str:
        return os.path.join(self.directory, f"{job_id}{suffix}")

    def done_path(self, job_id: str) -> str:
        """The completion-record path -- the lease anchor of the job."""
        return self._path(job_id, DONE_SUFFIX)

    def result_path(self, job_id: str) -> str:
        """Where the job's merged ResultSet export lives once done."""
        return self._path(job_id, RESULT_SUFFIX)

    # --- submission -------------------------------------------------------

    def submit(self, job: JobSpec) -> str:
        """Append one job; returns its fresh id.

        The spec document is written atomically under a unique name, so
        submission needs no lock and a crashed submit leaves nothing
        half-written behind.
        """
        job_id = new_job_id()
        document = {
            "job_id": job_id,
            "submitted_at": time.time(),
            "spec": job.to_payload(),
        }
        # An active trace context rides along as a *top-level* document key
        # (JobSpec.from_payload rejects unknown spec fields), so the daemon
        # that eventually executes the job can continue the submitter's
        # trace.  Pure bookkeeping: never part of the spec or any hash.
        carrier = current_carrier()
        if carrier is not None:
            document["trace"] = carrier
        os.makedirs(self.directory, exist_ok=True)
        _atomic_write(
            self.directory, self._path(job_id, JOB_SUFFIX), json.dumps(document),
            fsync=True,
        )
        return job_id

    def _read_document(self, job_id: str) -> dict[str, Any]:
        # Every lookup by id (status, results, spec) starts here, so an id
        # that is not a single path component -- "../elsewhere" from an HTTP
        # route -- never reaches a file outside the queue directory.
        try:
            if os.path.basename(job_id) != job_id:
                raise FileNotFoundError(job_id)
            with open(self._path(job_id, JOB_SUFFIX)) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise UnknownJobError(
                f"no job {job_id!r} in queue {self.directory}"
            ) from None
        except (OSError, ValueError) as error:
            raise UnknownJobError(
                f"job {job_id!r} in queue {self.directory} is unreadable: {error}"
            ) from None
        if not isinstance(document, dict):
            raise UnknownJobError(
                f"job {job_id!r} in queue {self.directory} is not a job document"
            )
        return document

    def get(self, job_id: str) -> JobSpec:
        """The parsed spec of one job (:class:`UnknownJobError` if absent)."""
        return JobSpec.from_payload(self._read_document(job_id).get("spec"))

    def read_trace(self, job_id: str) -> dict[str, Any] | None:
        """The trace carrier submitted with a job, if any (tolerant read)."""
        try:
            trace = self._read_document(job_id).get("trace")
        except UnknownJobError:
            return None
        return trace if isinstance(trace, dict) else None

    def _listing(self) -> dict[str, tuple[str, str | None]]:
        """Every job id in one directory listing: ``(state, lease holder)``.

        Settled jobs are classified by file name alone: a listed completion
        record means ``done``, else a listed tombstone means ``failed``.
        Only a pending job whose lease file is listed has that lease read,
        to tell ``running`` (a live lease; its holder is returned) from
        ``queued``.  No job document is opened: past the one listing, the
        cost grows with the pending jobs, not with every job ever submitted.
        """
        if not os.path.isdir(self.directory):
            return {}
        names = set(os.listdir(self.directory))
        now = time.time()
        jobs: dict[str, tuple[str, str | None]] = {}
        for filename in names:
            if not filename.endswith(JOB_SUFFIX):
                continue
            job_id = filename[: -len(JOB_SUFFIX)]
            done = job_id + DONE_SUFFIX
            if done in names:
                jobs[job_id] = (JOB_DONE, None)
            elif done + FAILED_SUFFIX in names:
                jobs[job_id] = (JOB_FAILED, None)
            elif done + LEASE_SUFFIX in names:
                lease = self._store.read_lease(self.done_path(job_id))
                if lease is not None and not lease.expired(now):
                    jobs[job_id] = (JOB_RUNNING, lease.worker)
                else:
                    jobs[job_id] = (JOB_QUEUED, None)
            else:
                jobs[job_id] = (JOB_QUEUED, None)
        return jobs

    def _oldest_first(
        self, job_ids: Iterable[str]
    ) -> list[tuple[str, dict | None]]:
        """``(job id, document)`` pairs in submission-time order.

        Each document is parsed once; an unreadable one sorts first (its
        ``submitted_at`` counts as 0) and comes back as ``None``.
        """
        found: list[tuple[float, str, dict | None]] = []
        for job_id in job_ids:
            try:
                document: dict | None = self._read_document(job_id)
                submitted = float(document.get("submitted_at", 0.0))
            except UnknownJobError:
                document, submitted = None, 0.0
            except (TypeError, ValueError):
                submitted = 0.0
            found.append((submitted, job_id, document))
        found.sort(key=lambda item: item[:2])
        return [(job_id, document) for _, job_id, document in found]

    def job_ids(self) -> list[str]:
        """Every submitted job id, oldest first (submission-time order)."""
        return [job_id for job_id, _ in self._oldest_first(self._listing())]

    # --- claiming (SharedStore lease semantics) ----------------------------

    def claim(
        self, job_id: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL
    ) -> str:
        """Claim one job: ``"acquired"``, ``"done"`` or ``"busy"``.

        Delegates to :meth:`SharedStore.claim` on the completion-record
        path, so stale leases of crashed daemons are taken over
        transparently and a published completion reports ``"done"``.
        """
        return self._store.claim(self.done_path(job_id), worker_id, ttl)

    def claim_next(
        self, worker_id: str, ttl: float = DEFAULT_LEASE_TTL
    ) -> tuple[str, Any] | None:
        """Claim the oldest claimable job, or ``None`` when nothing is.

        Returns ``(job_id, raw_spec_payload)`` -- the payload is handed back
        *unparsed* so the caller (the daemon) owns the malformed-spec
        policy: parse failures fail the job visibly instead of wedging the
        queue.  Jobs that are done, tombstoned (failed) or leased to a live
        daemon are skipped.

        A claim reads one directory listing and drops settled jobs by name
        (see :meth:`_listing`); only the remaining job documents are
        parsed, each once, for the submission order and the spec.
        """
        # One's own live lease stays claimable: ``claim`` renews it.
        claimable = [
            job_id
            for job_id, (state, holder) in self._listing().items()
            if state == JOB_QUEUED or holder == worker_id
        ]
        for job_id, document in self._oldest_first(claimable):
            if os.path.exists(self.done_path(job_id) + FAILED_SUFFIX):
                continue  # failed since the listing: not retried
            if self.claim(job_id, worker_id, ttl) != CLAIM_ACQUIRED:
                continue  # completed or leased since the listing
            if document is None:
                # The spec file vanished or rotted after submission; fail
                # the job (with the read error) so it stops being offered.
                try:
                    document = self._read_document(job_id)
                except UnknownJobError as error:
                    self.fail(job_id, worker_id, str(error))
                    continue
            return job_id, document.get("spec")
        return None

    def release(self, job_id: str, worker_id: str) -> None:
        """Give a claimed job up without completing it (re-queued)."""
        self._store.release(self.done_path(job_id), worker_id)

    def renew(
        self, job_id: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL
    ) -> bool:
        """Heartbeat one's own job lease (see :meth:`SharedStore.renew`)."""
        return self._store.renew(self.done_path(job_id), worker_id, ttl)

    def heartbeat(
        self, job_id: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL
    ) -> LeaseHeartbeat:
        """Context manager renewing the job lease while its body executes."""
        return LeaseHeartbeat(self._store, self.done_path(job_id), worker_id, ttl)

    # --- completion -------------------------------------------------------

    def record_progress(self, job_id: str, **fields: Any) -> None:
        """Overwrite the job's live progress document (claiming daemon only).

        Single-writer by construction (only the lease holder reports), so
        the atomic write needs no lock.
        """
        payload = {"updated_at": time.time(), **fields}
        _atomic_write(
            self.directory, self._path(job_id, PROGRESS_SUFFIX), json.dumps(payload)
        )

    def complete(self, job_id: str, summary: Mapping[str, Any]) -> None:
        """Publish the completion record (atomic; removes lease + tombstone)."""
        payload = {"state": JOB_DONE, "completed_at": time.time(), **summary}
        self._store.publish(self.done_path(job_id), payload)

    def fail(self, job_id: str, worker_id: str, error: str) -> None:
        """Record a job failure: release the lease, write the tombstone."""
        done_path = self.done_path(job_id)
        self._store.release(done_path, worker_id)
        self._store.record_failure(done_path, worker_id, error)

    def requeue(self, job_id: str) -> bool:
        """Clear a failed job's tombstone so daemons offer it again.

        Returns True when a tombstone was removed.  No-op (False) for jobs
        that are not in the failed state.
        """
        self._read_document(job_id)  # raises UnknownJobError for bogus ids
        with self._store.lock():
            try:
                os.unlink(self.done_path(job_id) + FAILED_SUFFIX)
                return True
            except FileNotFoundError:
                return False

    # --- inspection -------------------------------------------------------

    def _read_json(self, path: str) -> dict[str, Any] | None:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def status(self, job_id: str) -> dict[str, Any]:
        """One job's merged status view (spec summary + state + progress).

        State derivation mirrors the lease semantics: a completion record
        means ``done``, a tombstone means ``failed``, a live unexpired
        lease means ``running``, anything else is ``queued`` (an *expired*
        lease counts as queued -- the next daemon pass will take the job
        over, exactly like a stale sweep-point lease).
        """
        document = self._read_document(job_id)
        spec = document.get("spec") if isinstance(document.get("spec"), dict) else {}
        status: dict[str, Any] = {
            "job_id": job_id,
            "kind": spec.get("kind"),
            "name": spec.get("name"),
            "submitted_at": document.get("submitted_at"),
        }
        done_path = self.done_path(job_id)
        done = self._store.load(done_path)
        if done is not None:
            status.update(done)
            status["state"] = JOB_DONE
            return status
        tombstone = self._read_json(done_path + FAILED_SUFFIX)
        if tombstone is not None:
            status["state"] = JOB_FAILED
            status["error"] = tombstone.get("error")
            status["worker_id"] = tombstone.get("worker")
            status["failed_at"] = tombstone.get("failed_at")
            return status
        lease = self._store.read_lease(done_path)
        if lease is not None and not lease.expired():
            status["state"] = JOB_RUNNING
            status["worker_id"] = lease.worker
            progress = self._read_json(self._path(job_id, PROGRESS_SUFFIX))
            if progress is not None:
                status["progress"] = progress
            return status
        status["state"] = JOB_QUEUED
        return status

    def statuses(self) -> list[dict[str, Any]]:
        """Status views of every job, oldest first."""
        return [self.status(job_id) for job_id in self.job_ids()]

    def depth(self) -> dict[str, int]:
        """Job counts by state (the ``health`` endpoint's queue block).

        Classified from one directory listing (see :meth:`status` for the
        states): no job document or completion record is parsed.
        """
        counts = {state: 0 for state in (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)}
        for state, _ in self._listing().values():
            counts[state] += 1
        return counts

    def load_result(self, job_id: str) -> ResultSet:
        """The merged ResultSet of a completed job.

        Raises :class:`UnknownJobError` for unknown ids and
        :class:`ValueError` (carrying the job's current state) when the job
        has not produced a result yet.
        """
        return self.read_result(job_id, self.status(job_id)["state"])[1]

    def read_result(self, job_id: str, state: str) -> tuple[str, ResultSet]:
        """A completed job's export text and the ResultSet it verifies to.

        ``state`` is the job's state as the caller just read it (see
        :meth:`status`).  The text is returned exactly as stored, once
        :meth:`ResultSet.from_json` has checked its content hash.  Raises
        :class:`ValueError` when the job is not ``done``, its export is
        missing, or the export fails verification.
        """
        text = None
        if state == JOB_DONE:
            try:
                with open(self.result_path(job_id)) as handle:
                    text = handle.read()
            except FileNotFoundError:
                pass
        # from_json reads a string that is not a JSON object as a path.
        if text is None or not text.lstrip().startswith("{"):
            raise ValueError(
                f"job {job_id!r} has no results: state is {state!r}"
            )
        return text, ResultSet.from_json(text)

    def store_result(self, job_id: str, result: ResultSet) -> str:
        """Atomically export a job's merged ResultSet; returns the path.

        Written *before* the completion record is published, so a ``done``
        state always implies a readable result file.
        """
        path = self.result_path(job_id)
        os.makedirs(self.directory, exist_ok=True)
        _atomic_write(self.directory, path, result.to_json(), fsync=True)
        return path

    # --- maintenance ------------------------------------------------------

    def gc(self, now: float | None = None, dry_run: bool = False) -> list[str]:
        """Collect queue residue; returns the removed paths.

        Removes **unloadable completion records** (a torn ``.done.json``
        would otherwise strand its job: :meth:`claim_next` skips every job
        whose record is listed, so disposing of it re-grants the job on the
        next claim), **expired or orphaned job leases** (a daemon died
        mid-job: the job is claimable again either way, the lease record is
        just clutter) and **superseded tombstones** (a completion record
        exists, so the recorded failure is history).  Failure tombstones of
        jobs that never completed are *kept* -- they encode the ``failed``
        state (clear one explicitly with :meth:`requeue`).  Progress
        documents of settled (done/failed) jobs are dropped too.

        Lease and tombstone residue is collected through the store seam
        (:meth:`~repro.dist.store.ResultStore.collect_garbage` with pending
        failures kept), so the mechanics follow the store backend -- a
        locked directory sweep here, conditional ``DELETE`` statements for
        a SQL-backed queue store -- while completion records and progress
        documents are swept by the queue itself through the store's
        ``load``/``exists``.
        """
        filenames = (
            sorted(os.listdir(self.directory)) if os.path.isdir(self.directory) else []
        )
        torn = [
            path
            for path in (os.path.join(self.directory, name) for name in filenames)
            if path.endswith(DONE_SUFFIX) and self._store.load(path) is None
        ]
        if torn and not dry_run:
            # Re-validated under the lock (as SharedStore.claim does), so a
            # good record that replaced a torn one meanwhile is never deleted.
            with self._store.lock():
                torn = [
                    path
                    for path in torn
                    if os.path.exists(path) and self._store.load(path) is None
                ]
                for path in torn:
                    os.unlink(path)
        stale = self._store.collect_garbage(
            now=now, dry_run=dry_run, keep_pending_failures=True
        )
        progress: list[str] = []
        for filename in filenames:
            if not filename.endswith(PROGRESS_SUFFIX):
                continue
            job_id = filename[: -len(PROGRESS_SUFFIX)]
            done_path = self.done_path(job_id)
            if self._store.exists(done_path) or self._store.exists(
                done_path + FAILED_SUFFIX
            ):
                progress.append(os.path.join(self.directory, filename))
        if not dry_run:
            for path in progress:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
        return torn + stale + progress

    def __iter__(self) -> Iterator[str]:
        return iter(self.job_ids())

    def __len__(self) -> int:
        return len(self.job_ids())

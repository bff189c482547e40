"""SpecQueue: durable submission, lease-based claiming, status derivation."""

import json
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Engine, SweepSpec
from repro.service import JOB_DONE, JOB_FAILED, JOB_QUEUED, JOB_RUNNING, JobSpec
from repro.service.queue import (
    DONE_SUFFIX,
    JOB_SUFFIX,
    SpecQueue,
    UnknownJobError,
)

SPEC = SweepSpec.grid(length_um=[1.0, 10.0])


def _job() -> JobSpec:
    return JobSpec(kind="sweep", name="table_density", sweep=SPEC)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _write_json(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle)


class TestSubmitAndRead:
    def test_submit_writes_a_durable_document(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        path = os.path.join(str(tmp_path), job_id + JOB_SUFFIX)
        assert os.path.exists(path)
        document = _read_json(path)
        assert document["job_id"] == job_id
        assert document["spec"]["name"] == "table_density"

    def test_get_round_trips_the_spec(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        assert queue.get(job_id) == _job()

    def test_unknown_job_raises(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        with pytest.raises(UnknownJobError, match="no job"):
            queue.get("j-missing")
        with pytest.raises(UnknownJobError):
            queue.status("j-missing")

    def test_job_ids_are_oldest_first(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        submitted = [queue.submit(_job()) for _ in range(3)]
        # Rewrite submitted_at stamps to force a known order.
        for offset, job_id in enumerate(reversed(submitted)):
            path = os.path.join(str(tmp_path), job_id + JOB_SUFFIX)
            document = _read_json(path)
            document["submitted_at"] = 1000.0 + offset
            _write_json(path, document)
        assert queue.job_ids() == list(reversed(submitted))


class TestClaiming:
    def test_claim_next_is_exactly_once(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        first = queue.claim_next("w1")
        assert first is not None and first[0] == job_id
        assert queue.claim_next("w2") is None  # leased to w1

    def test_concurrent_claims_do_not_collide(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        for _ in range(4):
            queue.submit(_job())

        def drain(worker: str) -> list[str]:
            claimed = []
            while True:
                got = queue.claim_next(worker)
                if got is None:
                    return claimed
                claimed.append(got[0])
                # Settle the claim, as a real daemon does -- an unsettled
                # job stays claimable by its own worker (lease re-entry).
                queue.complete(got[0], {"worker_id": worker})

        with ThreadPoolExecutor(max_workers=2) as pool:
            mine, yours = [
                f.result() for f in [pool.submit(drain, w) for w in ("w1", "w2")]
            ]
        assert set(mine).isdisjoint(yours)
        assert sorted(mine + yours) == sorted(queue.job_ids())

    def test_release_makes_the_job_claimable_again(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim_next("w1")
        queue.release(job_id, "w1")
        got = queue.claim_next("w2")
        assert got is not None and got[0] == job_id

    def test_stale_lease_is_taken_over(self, tmp_path):
        """A crashed daemon's job is reclaimed once its lease ttl lapses."""
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        assert queue.claim_next("dead-daemon", ttl=0.05) is not None
        import time

        time.sleep(0.1)
        got = queue.claim_next("survivor")
        assert got is not None and got[0] == job_id

    def test_done_and_failed_jobs_are_skipped(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        done_id = queue.submit(_job())
        failed_id = queue.submit(_job())
        queue.claim_next("w1")
        queue.complete(done_id, {"worker_id": "w1"})
        claimed = queue.claim_next("w1")
        assert claimed is not None and claimed[0] == failed_id
        queue.fail(failed_id, "w1", "boom")
        assert queue.claim_next("w2") is None


class TestClaimScan:
    """A claim lists the queue once and parses only the pending documents."""

    K, P = 6, 3  # done jobs, queued jobs

    def _mixed_queue(self, tmp_path) -> tuple[SpecQueue, list[str]]:
        """K done, 1 failed, 1 leased to a live daemon, then P queued jobs;
        returns the queue and the queued ids, oldest first."""
        queue = SpecQueue(str(tmp_path))
        for _ in range(self.K):
            job_id = queue.submit(_job())
            queue.claim(job_id, "w0", ttl=60.0)
            queue.complete(job_id, {"worker_id": "w0"})
        failed_id = queue.submit(_job())
        queue.claim(failed_id, "w0", ttl=60.0)
        queue.fail(failed_id, "w0", "boom")
        queue.claim(queue.submit(_job()), "other", ttl=60.0)
        queued = [queue.submit(_job()) for _ in range(self.P)]
        # Stamp the queued jobs newest-first in creation order, so the
        # oldest one is neither the first submitted nor the first listed.
        for offset, job_id in enumerate(reversed(queued)):
            path = os.path.join(str(tmp_path), job_id + JOB_SUFFIX)
            document = _read_json(path)
            document["submitted_at"] = 1000.0 + offset
            _write_json(path, document)
        return queue, list(reversed(queued))

    def _count_reads(self, queue, monkeypatch, hook=None) -> list[str]:
        read: list[str] = []
        original = queue._read_document

        def counting(job_id):
            read.append(job_id)
            if hook is not None:
                hook(job_id)
            return original(job_id)

        monkeypatch.setattr(queue, "_read_document", counting)
        return read

    def test_claim_parses_only_pending_documents(self, tmp_path, monkeypatch):
        queue, queued = self._mixed_queue(tmp_path)
        read = self._count_reads(queue, monkeypatch)
        got = queue.claim_next("w1")
        assert got is not None and got[0] == queued[0]
        assert got[1] == _job().to_payload()
        assert len(read) <= self.P
        assert set(read) <= set(queued)

    def test_claims_run_oldest_first(self, tmp_path):
        queue, queued = self._mixed_queue(tmp_path)
        claimed = [queue.claim_next(f"d{index}") for index in range(self.P)]
        assert [job_id for job_id, _ in claimed] == queued
        assert queue.claim_next("late") is None  # the rest is settled or leased

    def test_job_completed_after_the_listing_is_skipped(self, tmp_path, monkeypatch):
        queue, queued = self._mixed_queue(tmp_path)

        def complete_oldest(job_id):
            # Another daemon publishes the oldest job after this claim
            # listed the queue but before it leased anything.
            if job_id == queued[0] and not os.path.exists(queue.done_path(job_id)):
                queue.complete(job_id, {"worker_id": "elsewhere"})

        self._count_reads(queue, monkeypatch, complete_oldest)
        got = queue.claim_next("w1")
        assert got is not None and got[0] == queued[1]
        assert queue.status(queued[0])["worker_id"] == "elsewhere"

    def test_depth_matches_per_job_status(self, tmp_path, monkeypatch):
        queue, _ = self._mixed_queue(tmp_path)
        expected = Counter(queue.status(job_id)["state"] for job_id in queue.job_ids())
        read = self._count_reads(queue, monkeypatch)
        depth = queue.depth()
        assert read == []  # counted from names and leases alone
        assert {state: n for state, n in depth.items() if n} == dict(expected)
        assert depth == {
            JOB_QUEUED: self.P, JOB_RUNNING: 1, JOB_DONE: self.K, JOB_FAILED: 1,
        }


class TestLifecycleStatus:
    def test_states_through_the_lifecycle(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        assert queue.status(job_id)["state"] == JOB_QUEUED

        queue.claim(job_id, "w1", ttl=60.0)
        queue.record_progress(job_id, points_done=1, points_total=2)
        running = queue.status(job_id)
        assert running["state"] == JOB_RUNNING
        assert running["worker_id"] == "w1"
        progress = running["progress"]
        assert progress["points_done"] == 1 and progress["points_total"] == 2

        queue.complete(job_id, {"worker_id": "w1", "n_records": 8})
        done = queue.status(job_id)
        assert done["state"] == JOB_DONE
        assert done["n_records"] == 8
        assert "completed_at" in done

    def test_failed_state_carries_the_error(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "w1", ttl=60.0)
        queue.fail(job_id, "w1", "ValueError: bad axis")
        status = queue.status(job_id)
        assert status["state"] == JOB_FAILED
        assert status["error"] == "ValueError: bad axis"
        assert status["worker_id"] == "w1"

    def test_requeue_clears_the_tombstone(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "w1", ttl=60.0)
        queue.fail(job_id, "w1", "boom")
        assert queue.requeue(job_id) is True
        assert queue.status(job_id)["state"] == JOB_QUEUED
        assert queue.claim_next("w2") is not None
        assert queue.requeue(job_id) is False  # nothing left to clear

    def test_depth_counts_by_state(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        queue.submit(_job())
        running_id = queue.submit(_job())
        failed_id = queue.submit(_job())
        queue.claim(running_id, "w1", ttl=60.0)
        queue.claim(failed_id, "w1", ttl=60.0)
        queue.fail(failed_id, "w1", "boom")
        assert queue.depth() == {
            "queued": 1, "running": 1, "done": 0, "failed": 1,
        }

    def test_load_result_requires_done(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        with pytest.raises(ValueError, match="queued"):
            queue.load_result(job_id)

    def test_result_round_trips(self, tmp_path):
        queue = SpecQueue(str(tmp_path / "q"))
        result = Engine().sweep("table_density", SPEC)
        job_id = queue.submit(_job())
        queue.store_result(job_id, result)
        queue.complete(job_id, {"content_hash": result.content_hash})
        loaded = queue.load_result(job_id)
        assert loaded == result
        assert loaded.content_hash == result.content_hash


class TestGc:
    def test_gc_collects_expired_leases_and_stale_progress(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        crashed = queue.submit(_job())
        settled = queue.submit(_job())
        queue.claim(crashed, "dead", ttl=0.01)
        queue.claim(settled, "w1", ttl=60.0)
        queue.record_progress(settled, points_done=2, points_total=2)
        queue.complete(settled, {"worker_id": "w1"})
        import time

        time.sleep(0.05)
        removed = queue.gc()
        assert any(crashed in path for path in removed)  # expired lease
        assert any(settled in path for path in removed)  # stale progress doc
        # The crashed job is claimable again and unharmed.
        got = queue.claim_next("w2")
        assert got is not None and got[0] == crashed

    def test_gc_keeps_failure_tombstones(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "w1", ttl=60.0)
        queue.fail(job_id, "w1", "boom")
        queue.gc()
        assert queue.status(job_id)["state"] == JOB_FAILED

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "dead", ttl=0.01)
        import time

        time.sleep(0.05)
        listed = queue.gc(dry_run=True)
        assert listed
        assert all(os.path.exists(path) for path in listed)

    def test_gc_collects_superseded_tombstone(self, tmp_path):
        """Seam regression: a tombstone orphaned next to a completion record
        (a failure report that raced a successful retry) is residue, and the
        job's done state must win over the stale failure."""
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "w1", ttl=60.0)
        queue.complete(job_id, {"worker_id": "w1"})
        orphan = queue.done_path(job_id) + ".failed"
        with open(orphan, "w") as handle:
            json.dump({"worker": "w0", "error": "stale", "failed_at": 0.0}, handle)

        removed = queue.gc()
        assert orphan in removed
        assert not os.path.exists(orphan)
        assert queue.status(job_id)["state"] == JOB_DONE

    def test_gc_collects_corrupt_job_lease(self, tmp_path):
        """Seam regression: an unreadable lease never blocks a job forever --
        GC disposes of it and the job is claimable again."""
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        corrupt = queue.done_path(job_id) + ".lease"
        with open(corrupt, "w") as handle:
            handle.write("{ torn")

        removed = queue.gc()
        assert corrupt in removed
        got = queue.claim_next("w1")
        assert got is not None and got[0] == job_id


    def test_gc_disposes_of_a_torn_completion_record(self, tmp_path):
        """A torn completion record would strand its job: claim_next skips
        every job whose record is listed.  GC disposes of it and the next
        claim re-grants the job."""
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        torn = queue.done_path(job_id)
        with open(torn, "w") as handle:
            handle.write("{ torn")
        assert queue.status(job_id)["state"] == JOB_QUEUED

        assert torn in queue.gc(dry_run=True)
        assert os.path.exists(torn)
        assert torn in queue.gc()
        assert not os.path.exists(torn)
        got = queue.claim_next("w1")
        assert got is not None and got[0] == job_id

    def test_gc_keeps_good_completion_records(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        job_id = queue.submit(_job())
        queue.claim(job_id, "w1", ttl=60.0)
        queue.complete(job_id, {"worker_id": "w1"})
        assert queue.done_path(job_id) not in queue.gc()
        assert queue.status(job_id)["state"] == JOB_DONE


class TestDunders:
    def test_iter_and_len(self, tmp_path):
        queue = SpecQueue(str(tmp_path))
        ids = {queue.submit(_job()) for _ in range(3)}
        assert set(queue) == ids
        assert len(queue) == 3

"""Group commit: batches of results publish behind one durability barrier.

``ResultStore.publish_many`` stages every entry in a temp file, makes them
all durable with one barrier (one ``syncfs`` on Linux, else an fsync per
file) and only then renames them into place.  ``run_worker``'s claimed
rounds and the engine's store-backed sweeps publish through
:class:`~repro.dist.store.CommitGroup`, which hands a result out only once
the commit that made it durable has returned.
"""

import errno
import os
import stat
import sys

import pytest

from repro.api import (
    Engine,
    ParamSpec,
    ResultSet,
    SweepSpec,
    get_experiment,
    register_experiment,
    unregister_experiment,
)
from repro.api.engine import cache_key
from repro.dist import LocalStore, SharedStore, run_worker
from repro.dist import store as store_module
from repro.dist.store import COMMIT_INTERVAL_S, CommitGroup
from store_contract import HARNESSES

DIRECTORY_STORES = (LocalStore, SharedStore)


def _result(x):
    return ResultSet.from_records(
        [{"x": x, "y": 2.0 * x}],
        meta={"experiment": "group_exp", "version": "1", "params": {"x": x}},
    )


def _entries(store, n):
    return [
        (store.entry_path("group_exp", f"{i:016x}"), _result(float(i)))
        for i in range(n)
    ]


def _temp_files(directory):
    if not os.path.isdir(directory):
        return []
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


@pytest.fixture(params=DIRECTORY_STORES, ids=lambda cls: cls.__name__)
def directory_store(request, tmp_path):
    return request.param(str(tmp_path / "store"))


@pytest.fixture(params=HARNESSES, ids=lambda h: h.name)
def any_store(request, tmp_path):
    return request.param.make(tmp_path)


@pytest.fixture
def group_experiment():
    """A cheap point; a slow one where ``x`` names a sleep in seconds above
    100 (``x=100.25`` sleeps 0.25 s); a failing one for negative ``x``."""
    import time

    @register_experiment(
        "group_exp", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def group_exp(x):
        if x < 0.0:
            raise ValueError("negative x")
        if x > 100.0:
            time.sleep(x - 100.0)
        return [{"x": x, "y": 2.0 * x}]

    yield "group_exp"
    unregister_experiment("group_exp")


def _sweep_paths(store, xs):
    experiment = get_experiment("group_exp")
    keys = [
        cache_key("group_exp", experiment.version, experiment.resolve_params({"x": x}))
        for x in xs
    ]
    return [store.entry_path("group_exp", key) for key in keys]


def _record_batches(store, monkeypatch):
    sizes = []
    publish_many = store.publish_many

    def recording(entries):
        entries = list(entries)
        sizes.append(len(entries))
        publish_many(entries)

    monkeypatch.setattr(store, "publish_many", recording)
    return sizes


class TestPublishMany:
    def test_every_rename_follows_the_barrier(self, directory_store, monkeypatch):
        events = []
        barrier, replace = store_module._barrier, os.replace

        def recording_barrier(directory, staged):
            events.append(("barrier", len(staged)))
            barrier(directory, staged)

        def recording_replace(source, destination):
            events.append(("replace", os.path.basename(destination)))
            replace(source, destination)

        monkeypatch.setattr(store_module, "_barrier", recording_barrier)
        monkeypatch.setattr(os, "replace", recording_replace)
        entries = _entries(directory_store, 3)
        directory_store.publish_many(entries)
        assert events[0] == ("barrier", 3)
        assert [event[0] for event in events[1:]] == ["replace"] * 3

    def test_failing_stage_leaves_no_entry_and_no_temp_file(
        self, directory_store, monkeypatch
    ):
        writes = []
        write = os.write

        def failing_write(fd, data):
            writes.append(fd)
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "no space left on device")
            return write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)
        entries = _entries(directory_store, 3)
        with pytest.raises(OSError, match="no space"):
            directory_store.publish_many(entries)
        monkeypatch.undo()
        assert all(directory_store.load(path) is None for path, _ in entries)
        assert _temp_files(directory_store.directory) == []

    @pytest.mark.parametrize("n_entries", [1, 3])
    def test_failing_barrier_leaves_no_entry_and_no_temp_file(
        self, directory_store, monkeypatch, n_entries
    ):
        def failing_fsync(fd):
            raise OSError(errno.EIO, "input/output error")

        monkeypatch.setattr(store_module, "_syncfs", lambda directory: False)
        monkeypatch.setattr(os, "fsync", failing_fsync)
        entries = _entries(directory_store, n_entries)
        with pytest.raises(OSError, match="input/output"):
            directory_store.publish_many(entries)
        monkeypatch.undo()
        assert all(directory_store.load(path) is None for path, _ in entries)
        assert _temp_files(directory_store.directory) == []

    @pytest.mark.parametrize(
        "syncfs", [False, lambda fd: -1], ids=["missing", "failing"]
    )
    def test_missing_or_failing_syncfs_falls_back_to_fsync_per_file(
        self, directory_store, monkeypatch, syncfs
    ):
        synced = []
        fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(store_module, "_syncfs_call", syncfs)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        entries = _entries(directory_store, 4)
        directory_store.publish_many(entries)
        assert len(synced) == 4
        assert all(directory_store.load(path) is not None for path, _ in entries)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="syncfs is Linux-only"
    )
    def test_one_syncfs_replaces_the_fsyncs_of_a_batch(
        self, directory_store, monkeypatch
    ):
        # A first publish creates the directory syncfs is probed on.
        directory_store.publish_many(_entries(directory_store, 1))
        if not store_module._syncfs(directory_store.directory):
            pytest.skip("this libc has no working syncfs")
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        directory_store.publish_many(_entries(directory_store, 5))
        assert synced == []

    def test_single_publish_fsyncs_once(self, directory_store, monkeypatch):
        synced = []
        fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path, result = _entries(directory_store, 1)[0]
        directory_store.publish(path, result)
        assert len(synced) == 1

    @pytest.mark.parametrize("n_entries", [1, 3])
    def test_entries_keep_mode_and_bytes(self, directory_store, n_entries):
        umask = os.umask(0)
        os.umask(umask)
        entries = _entries(directory_store, n_entries)
        directory_store.publish_many(entries)
        for path, result in entries:
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600 & ~umask
            with open(path, "rb") as handle:
                assert handle.read() == result.to_json().encode("utf-8")

    def test_shared_store_batch_clears_leases_and_tombstones(self, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        entries = _entries(store, 3)
        for path, _ in entries:
            assert store.claim(path, "w1") == "acquired"
            store.record_failure(path, "w1", "earlier failure")
        store.publish_many(entries)
        assert store.leases() == [] and store.failures() == []

    def test_every_backend_publishes_a_batch(self, any_store):
        entries = _entries(any_store, 3)
        any_store.publish_many(entries)
        any_store.publish_many([])
        for path, result in entries:
            assert any_store.load(path).to_records() == result.to_records()


class TestCommitGroup:
    def test_cheap_points_wait_for_the_explicit_commit(self, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        group = CommitGroup(store)
        entries = _entries(store, 3)
        for index, (path, result) in enumerate(entries):
            assert group.add(path, result, 0.0, index) == []
        assert all(store.load(path) is None for path, _ in entries)
        assert group.commit() == [0, 1, 2]
        assert group.commits == 1
        assert all(store.load(path) is not None for path, _ in entries)
        assert group.commit() == [] and group.commits == 1

    def test_a_point_that_ran_the_interval_commits_with_what_it_overlapped(
        self, tmp_path
    ):
        store = SharedStore(str(tmp_path / "store"))
        group = CommitGroup(store)
        (cheap, cheap_result), (slow, slow_result) = _entries(store, 2)
        assert group.add(cheap, cheap_result, 0.0, "cheap") == []
        # A point that started COMMIT_INTERVAL_S ago is due on arrival.
        assert group.add(slow, slow_result, COMMIT_INTERVAL_S, "slow") == [
            "cheap",
            "slow",
        ]


class TestVisibility:
    @pytest.mark.parametrize("caller", ["worker", "engine"])
    def test_on_result_sees_a_loadable_entry(
        self, group_experiment, any_store, tmp_path, caller
    ):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        paths = _sweep_paths(any_store, xs)
        second = type(any_store)(any_store.directory)
        seen = []

        def on_result(point):
            assert second.load(paths[point.index]) is not None
            seen.append(point.index)

        spec = SweepSpec.grid(x=xs)
        if caller == "worker":
            run_worker(
                group_experiment, spec, any_store, worker_id="w1", on_result=on_result
            )
        else:
            Engine(store=any_store).sweep(group_experiment, spec, on_result=on_result)
        assert sorted(seen) == list(range(len(xs)))

    def test_closing_the_stream_commits_what_finished(self, group_experiment, tmp_path):
        store = SharedStore(str(tmp_path / "store"))
        xs = [1.0, -1.0, 3.0]
        stream = Engine(store=store).iter_sweep(group_experiment, SweepSpec.grid(x=xs))
        # A failed point streams at once, while x=1 still waits staged.
        first = next(stream)
        assert first.index == 1 and first.error is not None
        stream.close()
        done, failed, never_run = _sweep_paths(store, xs)
        assert store.load(done) is not None
        assert store.load(failed) is None and store.load(never_run) is None

    def test_an_exception_commits_what_finished(
        self, group_experiment, tmp_path, monkeypatch
    ):
        store = SharedStore(str(tmp_path / "store"))
        monkeypatch.setattr(store, "claim_many", _claim_all(store.claim_many))
        xs = [1.0, -1.0, 3.0]

        def on_result(point):
            raise RuntimeError(f"consumer gave up at point {point.index}")

        with pytest.raises(RuntimeError, match="point 1"):
            run_worker(
                group_experiment, SweepSpec.grid(x=xs), store, worker_id="w1",
                on_result=on_result,
            )
        done, failed, never_run = _sweep_paths(store, xs)
        assert store.load(done) is not None
        assert store.load(never_run) is None
        assert _temp_files(store.directory) == []


class TestBatching:
    def test_cheap_points_share_one_barrier(
        self, group_experiment, tmp_path, monkeypatch
    ):
        store = SharedStore(str(tmp_path / "store"))
        sizes = _record_batches(store, monkeypatch)
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0, 5.0])
        Engine(store=store).sweep(group_experiment, spec)
        assert sizes == [5]

    def test_worker_commits_once_per_claimed_round(
        self, group_experiment, tmp_path, monkeypatch
    ):
        store = SharedStore(str(tmp_path / "store"))
        sizes = _record_batches(store, monkeypatch)
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
        report = run_worker(group_experiment, spec, store, worker_id="w1")
        # Each pass claims half of what remains: rounds of 2, 1 and 1.
        assert report.claim_round_trips == 3
        assert sizes == [2, 1, 1]

    @pytest.mark.parametrize("caller", ["worker", "engine"])
    def test_a_slow_point_commits_alone(
        self, group_experiment, tmp_path, monkeypatch, caller
    ):
        monkeypatch.setattr(store_module, "COMMIT_INTERVAL_S", 0.25)
        store = SharedStore(str(tmp_path / "store"))
        sizes = _record_batches(store, monkeypatch)
        # Two cheap points, one that runs past the interval, two cheap ones.
        spec = SweepSpec.grid(x=[1.0, 2.0, 100.3, 4.0, 5.0])
        if caller == "worker":
            # One claimed round for the whole sweep.
            monkeypatch.setattr(store, "claim_many", _claim_all(store.claim_many))
            run_worker(group_experiment, spec, store, worker_id="w1")
        else:
            Engine(store=store).sweep(group_experiment, spec)
        assert sizes == [2, 1, 2]


def _claim_all(claim_many):
    def claim_everything(paths, worker_id, ttl, max_acquire=None):
        return claim_many(paths, worker_id, ttl)

    return claim_everything

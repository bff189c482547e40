"""The fork helper: every item exactly once, failures raise, no child left.

``repro.forking.forked`` is the one way ``repro`` starts processes: the
engine's ``process`` sweeps go through it.  Its children claim items from a
shared counter, so a lost update would run an item twice or skip it.
"""

import multiprocessing
import os
import time

import pytest

from repro import forking


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    assert multiprocessing.active_children() == []


def _claim(index: int) -> tuple[int, int]:
    return index, os.getpid()


def test_every_item_once_with_more_children_than_cpus():
    items = list(range(400))
    k = 2 * forking.cpu_count() + 1
    deadline = time.monotonic() + 60
    with forking.forked(_claim, items, k) as arrivals:
        got = list(arrivals)
    assert time.monotonic() < deadline
    assert sorted(index for index, _ in got) == items
    assert all(index == value for index, (value, _) in got)
    assert os.getpid() not in {pid for _, (_, pid) in got}


def test_a_raising_item_raises_in_the_parent():
    def fail_on_three(item):
        if item == 3:
            raise ValueError("boom")
        return item

    with pytest.raises(RuntimeError, match="failed on item 3: ValueError: boom"):
        with forking.forked(fail_on_three, list(range(6)), 2) as arrivals:
            list(arrivals)


def test_a_result_that_fails_to_pickle_names_its_error():
    with pytest.raises(RuntimeError, match="failed on item 0: .*pickle"):
        with forking.forked(lambda item: lambda: item, [0], 1) as arrivals:
            list(arrivals)


def test_a_child_killed_without_a_report_is_an_error(monkeypatch):
    monkeypatch.setattr(forking, "_serve", lambda fn, items, claimed, sender: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with 3"):
        with forking.forked(_claim, [1, 2], 2) as arrivals:
            list(arrivals)


def test_a_child_that_exits_early_is_an_error():
    with pytest.raises(RuntimeError, match="0 of 2 results"):
        with forking.forked(lambda item: os._exit(0), [1, 2], 2) as arrivals:
            list(arrivals)


def test_leaving_the_block_early_terminates_the_children():
    with forking.forked(time.sleep, [0.0] + [30.0] * 3, 2) as arrivals:
        next(arrivals)
    assert multiprocessing.active_children() == []

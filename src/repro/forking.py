"""Fan work out to forked children: the one module of ``repro`` that starts processes.

:func:`forked` forks up to ``k`` children from the ``"fork"`` start method.
A forked child inherits the caller's memory -- the function, its items, the
experiment registry and the tracing context -- so nothing is pickled on the
way in.  The children claim item indices from a counter they share, so a
slow item holds up no item behind it, and each sends ``(index, result)``
back through its own one-way pipe.  The engine's ``process`` executor
(:mod:`repro.api.engine`) fans out through it; the circuit kernel runs each
stack in the calling process.

Forking is safe only where :func:`can_fork` says so: on Linux, in a process
that runs one Python thread (the child gets a copy of only the forking
thread, and a lock another thread held stays held in it) and that no
:mod:`multiprocessing` parent started, so a child never forks again.
Callers run their work in process wherever it refuses.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager
from multiprocessing.connection import wait
from typing import Any, Callable, Iterator, Sequence


def can_fork() -> bool:
    """Whether this process may fork: Linux, one Python thread, not a child."""
    return (
        sys.platform.startswith("linux")
        and threading.active_count() == 1
        and multiprocessing.parent_process() is None
    )


def cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    every CPU where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(fn: Callable[[Any], Any], items: Sequence, claimed, sender) -> None:
    """Forked child: claim the next item index until none is left, sending
    ``(index, fn(item), None)`` for each.

    A raising item, or a result that fails to pickle, sends ``(index,
    None, "Type: message")`` and ends the child with status 1; the parent
    raises that message, and the caller decides how to recover.
    """
    try:
        while True:
            with claimed.get_lock():
                index = claimed.value
                claimed.value += 1
            if index >= len(items):
                return
            sender.send((index, fn(items[index]), None))
    except Exception as error:
        try:
            sender.send((index, None, f"{type(error).__name__}: {error}"))
        except Exception:
            pass  # the exit status alone reports the failure
        sys.exit(1)


def _arrivals(children: dict, n_items: int) -> Iterator[tuple[int, Any]]:
    """``(index, result)`` from every child's pipe, in arrival order.

    Raises the error a child reports, or if a child exits non-zero, or if
    the pipes all end before every item's result arrived.
    """
    pending = dict(children)
    received = 0
    while pending:
        for receiver in wait(list(pending)):
            try:
                arrival = receiver.recv()
            except EOFError:
                child = pending.pop(receiver)
                child.join()
                if child.exitcode != 0:
                    raise RuntimeError(
                        f"forked child {child.pid} exited with {child.exitcode}"
                    ) from None
                continue
            index, result, error = arrival
            if error is not None:
                raise RuntimeError(f"forked child failed on item {index}: {error}")
            received += 1
            yield index, result
    if received != n_items:
        raise RuntimeError(
            f"forked children closed their pipes after {received} of {n_items} results"
        )


@contextmanager
def forked(
    fn: Callable[[Any], Any], items: Sequence, k: int
) -> Iterator[Iterator[tuple[int, Any]]]:
    """Fork ``min(k, len(items))`` children that run ``fn`` over ``items``.

    The block gets an iterator of ``(index, fn(items[index]))`` in arrival
    order; the caller may do its own work before reading it, since the
    children run from the moment the block starts.  Reading it raises the
    error a child reports, and raises when a child exits non-zero or closes
    its pipe early.  Leaving the block, also early, terminates and joins
    every child.  Check :func:`can_fork` first.
    """
    context = multiprocessing.get_context("fork")
    claimed = context.Value("q", 0)
    children = {}
    try:
        for _ in range(min(k, len(items))):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_serve, args=(fn, items, claimed, sender), daemon=True
            )
            children[receiver] = child
            try:
                child.start()
            finally:
                # The child holds the only write end, so its exit ends the pipe.
                sender.close()
        yield _arrivals(children, len(items))
    finally:
        for receiver, child in children.items():
            receiver.close()
            if child.is_alive():
                child.terminate()
            if child.pid is not None:
                child.join()

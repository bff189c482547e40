"""Crash-injection harness: SIGKILL a worker subprocess at a protocol boundary.

A :class:`CrashingWorker` launches a real worker process against a store
(spelled as a :func:`repro.dist.resolve_store` spec so the same harness
drives directory *and* sqlite backends), runs it up to a chosen protocol
boundary, and kills it there with ``SIGKILL`` -- no cleanup, no atexit, the
worker just stops existing.  Tests then assert the recovery invariants on
the survivor side: leases expire and are taken over, published entries are
durable, GC clears exactly the residue the crash left.

Boundaries (:data:`BOUNDARIES`):

* ``claimed`` -- the worker holds a fresh lease but has not started the
  point (killed between claim and execute),
* ``executing`` -- the worker is mid-point with an active heartbeat
  (killed between execute and publish),
* ``staged`` -- in a three-point sweep, the worker finished the first point
  of its claimed round, which waits uncommitted for the round's group
  commit, and is running the second (killed between the two),
* ``published`` -- the worker completed and published every point (killed
  between publish and a clean exit).

The worker signals each boundary by touching a sentinel file, so the parent
kills at the boundary instead of after an arbitrary sleep.  Every execution
that *completes* appends one line to a shared log file, giving tests an
exactly-once counter that works across process boundaries.
"""

import os
import subprocess
import sys
import time

EXPERIMENT = "fault_point"
"""Name the crash-injection experiment registers under (child and parent)."""

BOUNDARIES = ("claimed", "executing", "staged", "published")

_WORKER_CODE = """
import os, sys, time

from repro.api import ParamSpec, SweepSpec, get_experiment, register_experiment
from repro.api.engine import cache_key
from repro.dist import run_worker
from repro.dist.sqlstore import resolve_store

store_spec, boundary, signal_dir, log_path, lease_ttl = sys.argv[1:6]
lease_ttl = float(lease_ttl)


def touch(name):
    with open(os.path.join(signal_dir, name), "w") as handle:
        handle.write(str(os.getpid()))


@register_experiment(
    "fault_point", params=(ParamSpec("x", "float", 1.0),), replace=True
)
def fault_point(x):
    if boundary == "executing" or (boundary == "staged" and x == 2.0):
        touch(boundary)
        time.sleep(60)  # hold the point until the harness kills us
    with open(log_path, "a") as handle:
        handle.write(f"{x}\\n")  # one line per *completed* execution
    return [{"x": x, "y": 2.0 * x}]


store = resolve_store(store_spec)
if boundary == "claimed":
    experiment = get_experiment("fault_point")
    resolved = experiment.resolve_params({"x": 1.0})
    path = store.entry_path(
        experiment.name, cache_key(experiment.name, experiment.version, resolved)
    )
    outcome = store.claim(path, "doomed", ttl=lease_ttl)
    assert outcome == "acquired", outcome
    touch("claimed")
    time.sleep(60)  # hold the lease until the harness kills us
else:
    run_worker(
        "fault_point",
        SweepSpec.grid(x=[1.0, 2.0, 3.0] if boundary == "staged" else [1.0]),
        store,
        worker_id="doomed",
        lease_ttl=lease_ttl,
        wait=False,
    )
    touch("published")
    time.sleep(60)  # stay alive so the kill, not exit, ends the process
"""


class CrashingWorker:
    """One doomed worker subprocess, killable at a protocol boundary."""

    def __init__(self, store_spec, boundary, workdir, lease_ttl=2.0):
        if boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {boundary!r}; use {BOUNDARIES}")
        self.store_spec = store_spec
        self.boundary = boundary
        self.workdir = str(workdir)
        self.lease_ttl = lease_ttl
        self.signal_dir = os.path.join(self.workdir, "signals")
        self.log_path = os.path.join(self.workdir, "executions.log")
        os.makedirs(self.signal_dir, exist_ok=True)
        self._process = None

    def start(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _WORKER_CODE,
                self.store_spec,
                self.boundary,
                self.signal_dir,
                self.log_path,
                str(self.lease_ttl),
            ],
            env=env,
        )
        return self

    def wait_boundary(self, timeout=30.0):
        """Block until the worker reports the boundary (or dies / times out)."""
        sentinel = os.path.join(self.signal_dir, self.boundary)
        deadline = time.monotonic() + timeout
        while not os.path.exists(sentinel):
            if self._process.poll() is not None:
                raise AssertionError(
                    f"worker exited (rc={self._process.returncode}) before "
                    f"reaching boundary {self.boundary!r}"
                )
            if time.monotonic() >= deadline:
                self._process.kill()
                self._process.wait()
                raise AssertionError(
                    f"worker never reached boundary {self.boundary!r} "
                    f"within {timeout} s"
                )
            time.sleep(0.02)
        return self

    def kill(self):
        """SIGKILL -- the worker gets no chance to clean anything up."""
        self._process.kill()
        self._process.wait()
        return self

    def completed_executions(self):
        """Executions that ran to completion (child or parent), from the log."""
        try:
            with open(self.log_path) as handle:
                return [line for line in handle if line.strip()]
        except FileNotFoundError:
            return []


def crash_worker_at(store_spec, boundary, workdir, lease_ttl=2.0, timeout=30.0):
    """Run one worker to ``boundary`` and SIGKILL it there; returns the
    :class:`CrashingWorker` for post-mortem assertions."""
    worker = CrashingWorker(store_spec, boundary, workdir, lease_ttl=lease_ttl)
    return worker.start().wait_boundary(timeout=timeout).kill()

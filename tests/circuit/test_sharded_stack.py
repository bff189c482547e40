"""Stacks stay whole: the kernel never splits a same-topology group.

``batched_transient_analysis`` runs each group as one stack in the calling
process; the engine's ``process`` executor is the only fan-out.  The guards
below are the conditions under which a stack used to stay in one piece --
one CPU, another thread alive, an engine pool worker, a small group at
paper defaults -- and each still yields one in-process stack, byte for
byte, with no process started by the kernel.
"""

import json
import multiprocessing
import os
import threading
from multiprocessing.process import BaseProcess

import pytest

from repro.api import Engine, SweepSpec
from repro.circuit import Circuit, Step, batched
from repro.circuit.batched import (
    TransientJob,
    _run_stack,
    batched_transient_analysis,
)
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC
from repro.obs.trace import tracing


def _circuit(contact_resistance: float) -> Circuit:
    """Fig. 11: step input, driver, RC line, load."""
    circuit = Circuit("stack probe")
    add_supply(circuit, NODE_45NM)
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, NODE_45NM.supply_voltage, rise_time=5e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    line = DistributedRC(
        total_resistance=1e4,
        total_capacitance=4e-14,
        contact_resistance=contact_resistance,
        n_segments=8,
    )
    add_rc_ladder(circuit, line, "near", "far", name_prefix="line")
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _jobs(contacts, n_steps: int = 150) -> list[TransientJob]:
    return [TransientJob(_circuit(contact), n_steps * 1e-12, 1e-12) for contact in contacts]


def _arrays(result) -> list[tuple[str, bytes]]:
    arrays = [("times", result.times)]
    arrays += sorted(result.node_voltages.items())
    arrays += sorted(("I " + name, values) for name, values in result.source_currents.items())
    return [(name, values.tobytes()) for name, values in arrays]


def _assert_byte_identical(got, want) -> None:
    assert len(got) == len(want)
    for got_result, want_result in zip(got, want):
        assert _arrays(got_result) == _arrays(want_result)


@pytest.fixture
def process_starts(monkeypatch, tmp_path):
    """Every ``Process.start`` from here on, in this process or in a forked
    one, as a list of the starting processes' pids."""
    log = tmp_path / "starts.log"
    log.touch()
    start = BaseProcess.start

    def counted_start(process):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", counted_start)
    return lambda: [int(line) for line in log.read_text().split()]


@pytest.fixture
def fake_cpus(monkeypatch):
    """``fake_cpus(n)``: pretend the process may run on ``n`` CPUs."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    assert multiprocessing.active_children() == []


class TestGuards:
    def test_another_thread_is_alive(self, process_starts):
        jobs = _jobs([1e3, 5e3, 2e4, 1e5])
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = batched_transient_analysis(jobs)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert process_starts() == []
        _assert_byte_identical(got, _run_stack(jobs))

    def test_inside_an_engine_pool_worker(self, process_starts):
        spec = SweepSpec.grid(contact_resistance=[1e5, 2e5])
        params = {
            "diameters_nm": (10.0,),
            "lengths_um": (10.0,),
            "channel_counts": (2.0, 4.0, 6.0, 8.0),
            "n_segments": 4,
        }
        pooled = Engine(executor="process", max_workers=2).sweep("fig12", spec, base_params=params)
        # Only the sweep's two children start; their stacks start nothing.
        assert process_starts() == [os.getpid()] * 2
        assert pooled.content_hash == Engine().sweep("fig12", spec, base_params=params).content_hash

    def test_one_cpu(self, fake_cpus, process_starts):
        # The CPU count decides nothing in the kernel: one CPU and many
        # give the same single stack.
        jobs = _jobs([1e3, 5e3, 2e4, 1e5])
        want = _run_stack(jobs)
        for cpus in (1, 4):
            fake_cpus(cpus)
            _assert_byte_identical(batched_transient_analysis(jobs), want)
        assert process_starts() == []

    @pytest.mark.parametrize("experiment, n_jobs", [("crosstalk", 3), ("variability_delay", 6)])
    def test_small_groups_at_paper_defaults(
        self, fake_cpus, process_starts, monkeypatch, experiment, n_jobs
    ):
        fake_cpus(4)
        sizes = []
        run_stack = batched._run_stack

        def recorded(jobs):
            sizes.append(len(jobs))
            return run_stack(jobs)

        monkeypatch.setattr(batched, "_run_stack", recorded)
        Engine().run(experiment)
        assert max(sizes) == n_jobs
        assert process_starts() == []


def test_children_write_spans_into_the_parents_trace(tmp_path):
    # A stack's child spans are written by the calling process, under its
    # ``circuit.batch`` span and in its trace.
    sink = tmp_path / "trace.jsonl"
    with tracing(str(sink)):
        batched_transient_analysis(_jobs([1e3, 5e3, 2e4, 1e5]))
    spans = [json.loads(line) for line in sink.read_text().splitlines()]
    assert {span["pid"] for span in spans} == {os.getpid()}
    (batch,) = [span for span in spans if span["name"] == "circuit.batch"]
    assert batch["attrs"] == {"n_jobs": 4}
    children = [span for span in spans if span["parent_id"] == batch["span_id"]]
    assert [span["name"] for span in children] == ["circuit.dc"]
    assert children[0]["trace_id"] == batch["trace_id"]

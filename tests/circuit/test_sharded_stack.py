"""Sharded stacks: a large same-topology group split across forked children.

``batched_transient_analysis`` splits a group of at least ``2 *
MIN_SHARD_JOBS`` jobs into one contiguous shard per CPU; the caller runs the
first and forked children the others.  A job's bits never depend on its
stack, so the joined results must equal one in-process stack byte for byte.
The tests force the split by lowering ``MIN_SHARD_JOBS`` and faking the CPU
affinity, so they shard on a 1-CPU host too.
"""

import json
import multiprocessing
import os
import threading
from multiprocessing.process import BaseProcess

import pytest

from repro import forking
from repro.analysis.fig12_delay_ratio import fig12_records
from repro.api import Engine, SweepSpec
from repro.api.results import content_hash
from repro.circuit import Circuit, Step, batched, mna
from repro.circuit.batched import (
    TransientJob,
    _run_stack,
    batched_transient_analysis,
)
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import ConvergenceError, MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC
from repro.obs import metrics
from repro.obs.trace import tracing


def _circuit(contact_resistance: float, n_segments: int) -> Circuit:
    """Fig. 11: step input, driver, RC line, load."""
    circuit = Circuit("sharded probe")
    add_supply(circuit, NODE_45NM)
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, NODE_45NM.supply_voltage, rise_time=5e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    line = DistributedRC(
        total_resistance=1e4,
        total_capacitance=4e-14,
        contact_resistance=contact_resistance,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, line, "near", "far", name_prefix="line")
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _jobs(contacts, n_segments: int = 8, n_steps: int = 150) -> list[TransientJob]:
    return [
        TransientJob(_circuit(contact, n_segments), n_steps * 1e-12, 1e-12)
        for contact in contacts
    ]


def _arrays(result) -> list[tuple[str, bytes]]:
    arrays = [("times", result.times)]
    arrays += sorted(result.node_voltages.items())
    arrays += sorted(("I " + name, values) for name, values in result.source_currents.items())
    return [(name, values.tobytes()) for name, values in arrays]


def _assert_byte_identical(got, want) -> None:
    assert len(got) == len(want)
    for got_result, want_result in zip(got, want):
        assert _arrays(got_result) == _arrays(want_result)


def _counter(mode: str) -> float:
    return metrics.counter("repro_batch_groups_total", mode=mode).value


@pytest.fixture
def shard_starts(monkeypatch, tmp_path):
    """Every ``Process.start`` of a shard child, in this process or in a
    forked one, as a list of the starting processes' pids."""
    log = tmp_path / "starts.log"
    log.touch()
    start = BaseProcess.start

    def counted_start(process):
        if process._target is forking._serve and process._args[0] is batched._run_stack:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", counted_start)
    return lambda: [int(line) for line in log.read_text().split()]


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(cpus, min_jobs)``: pretend the process may run on
    ``cpus`` CPUs and set ``MIN_SHARD_JOBS`` (kept when ``None``)."""

    def force(cpus: int, min_jobs: int | None = None) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if min_jobs is not None:
            monkeypatch.setattr(batched, "MIN_SHARD_JOBS", min_jobs)

    return force


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    assert multiprocessing.active_children() == []


class TestParity:
    def test_dense_group_in_two_shards(self, force_shards, shard_starts):
        jobs = _jobs([1e3, 5e3, 2e4, 1e5, 3e3, 7e3])
        assert MNAAssembler(jobs[0].circuit).size < mna.BAND_SIZE_THRESHOLD
        want = _run_stack(jobs)
        force_shards(cpus=2, min_jobs=2)
        before = _counter("sharded")
        got = batched_transient_analysis(jobs)
        assert shard_starts() == [os.getpid()]
        assert _counter("sharded") == before + 1
        _assert_byte_identical(got, want)

    def test_band_group_uneven_in_three_shards(self, force_shards, shard_starts):
        # 7 jobs in 3 shards: 3 + 2 + 2.
        jobs = _jobs([1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], n_segments=64, n_steps=40)
        assert MNAAssembler(jobs[0].circuit).size >= mna.BAND_SIZE_THRESHOLD
        want = _run_stack(jobs)
        force_shards(cpus=3, min_jobs=2)
        got = batched_transient_analysis(jobs)
        assert shard_starts() == [os.getpid()] * 2
        _assert_byte_identical(got, want)

    def test_shards_are_contiguous_and_joined_in_job_order(self, force_shards):
        jobs = _jobs([1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], n_steps=40)
        force_shards(cpus=3, min_jobs=2)
        # Interleave a second topology: each group is sharded on its own.
        mixed = []
        for job, other in zip(jobs, _jobs([4e3] * 7, n_segments=6, n_steps=40)):
            mixed += [job, other]
        got = batched_transient_analysis(mixed)
        _assert_byte_identical(got[0::2], _run_stack(jobs))
        _assert_byte_identical(got[1::2], _run_stack(mixed[1::2]))

    def test_fig12_hash_with_and_without_sharding(self, force_shards, shard_starts):
        force_shards(cpus=2)
        sharded = content_hash(fig12_records())
        assert len(shard_starts()) == 1
        force_shards(cpus=1)
        assert content_hash(fig12_records()) == sharded
        assert len(shard_starts()) == 1


class TestFailures:
    def test_convergence_error_in_a_child_shard(self, force_shards, monkeypatch):
        # Capped at 5 Newton iterations a step, the 1e5 ohm job fails and the
        # others converge; it sits in the child's shard.
        monkeypatch.setattr(mna, "TRANSIENT_NEWTON_ITERATIONS", 5)
        jobs = _jobs([1e3, 5e3, 1e3, 5e3, 1e3, 1e5], n_steps=200)
        _run_stack(jobs[:3])  # the caller's shard converges
        with pytest.raises(ConvergenceError) as serial:
            for job in jobs:
                _run_stack([job])
        force_shards(cpus=2, min_jobs=3)
        before = _counter("fallback")
        with pytest.raises(ConvergenceError) as sharded:
            batched_transient_analysis(jobs)
        assert _counter("fallback") == before + 1
        assert str(sharded.value) == str(serial.value)
        for field in ("time", "iterations", "max_delta", "size"):
            assert getattr(sharded.value, field) == getattr(serial.value, field)

    def test_child_that_dies(self, force_shards, monkeypatch):
        jobs = _jobs([1e3, 5e3, 2e4, 1e5])
        want = [_run_stack([job])[0] for job in jobs]
        force_shards(cpus=2, min_jobs=2)
        monkeypatch.setattr(forking, "_serve", lambda fn, items, claimed, sender: os._exit(1))
        before = _counter("fallback")
        got = batched_transient_analysis(jobs)
        assert _counter("fallback") == before + 1
        _assert_byte_identical(got, want)


class TestGuards:
    def test_another_thread_is_alive(self, force_shards, shard_starts):
        jobs = _jobs([1e3, 5e3, 2e4, 1e5])
        force_shards(cpus=2, min_jobs=2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = batched_transient_analysis(jobs)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert shard_starts() == []
        _assert_byte_identical(got, _run_stack(jobs))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers inherit the test's patches only when forked",
    )
    def test_inside_an_engine_pool_worker(self, force_shards, shard_starts):
        force_shards(cpus=2, min_jobs=2)
        spec = SweepSpec.grid(contact_resistance=[1e5, 2e5])
        params = {
            "diameters_nm": (10.0,),
            "lengths_um": (10.0,),
            "channel_counts": (2.0, 4.0, 6.0, 8.0),
            "n_segments": 4,
        }
        with Engine(executor="process", max_workers=2) as engine:
            pooled = engine.sweep("fig12", spec, base_params=params)
        assert shard_starts() == []
        force_shards(cpus=1)
        assert pooled.content_hash == Engine().sweep("fig12", spec, base_params=params).content_hash

    def test_one_cpu(self, force_shards, shard_starts):
        force_shards(cpus=1, min_jobs=2)
        jobs = _jobs([1e3, 5e3, 2e4, 1e5])
        _assert_byte_identical(batched_transient_analysis(jobs), _run_stack(jobs))
        assert shard_starts() == []

    @pytest.mark.parametrize("experiment, n_jobs", [("crosstalk", 3), ("variability_delay", 6)])
    def test_small_groups_at_paper_defaults(
        self, force_shards, shard_starts, monkeypatch, experiment, n_jobs
    ):
        assert n_jobs < 2 * batched.MIN_SHARD_JOBS
        force_shards(cpus=4)
        sizes = []
        run_stack = batched._run_stack

        def recorded(jobs):
            sizes.append(len(jobs))
            return run_stack(jobs)

        monkeypatch.setattr(batched, "_run_stack", recorded)
        Engine().run(experiment)
        assert max(sizes) == n_jobs
        assert shard_starts() == []


def test_children_write_spans_into_the_parents_trace(force_shards, tmp_path):
    sink = tmp_path / "trace.jsonl"
    jobs = _jobs([1e3, 5e3, 2e4, 1e5])
    force_shards(cpus=2, min_jobs=2)
    with tracing(str(sink)):
        batched_transient_analysis(jobs)
    spans = [json.loads(line) for line in sink.read_text().splitlines()]
    (batch,) = [span for span in spans if span["name"] == "circuit.batch"]
    assert batch["attrs"] == {"n_jobs": 4, "shards": 2}
    assert batch["pid"] == os.getpid()
    children = [span for span in spans if span["pid"] != os.getpid()]
    assert [span["name"] for span in children] == ["circuit.dc"]
    assert children[0]["trace_id"] == batch["trace_id"]
    assert children[0]["parent_id"] == batch["span_id"]

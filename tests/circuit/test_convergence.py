"""Newton non-convergence is a typed ``ConvergenceError`` on every path.

The one Newton loop, the stacked kernel's ``_Batch._newton``, raises it for
the DC operating point, for a one-job transient and for a stack, on both
sides of the band threshold, and the batched front end's per-job fallback
re-raises it, also when only one job of a stack fails.
"""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    ConvergenceError,
    Step,
    dc_operating_point,
    transient_analysis,
)
from repro.circuit import mna
from repro.circuit.batched import TransientJob, _run_stack, batched_transient_analysis
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import BAND_SIZE_THRESHOLD, MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC
from repro.obs import metrics

PREFIX = "Newton iteration did not converge at t="


def _inverter_line(contact_resistance: float = 2e3) -> Circuit:
    circuit = Circuit("inverter line")
    add_supply(circuit, NODE_45NM)
    v_dd = NODE_45NM.supply_voltage
    circuit.add_voltage_source("vin", "in", "0", Step(0.0, v_dd, delay=2e-12, rise_time=4e-12))
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    ladder = DistributedRC(
        total_resistance=1e4,
        total_capacitance=2e-14,
        contact_resistance=contact_resistance,
        n_segments=12,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out", technology=NODE_45NM).add_to(circuit)
    return circuit


@pytest.fixture(params=["dense", "band"])
def one_iteration(request, monkeypatch):
    """Newton capped at one iteration, on one side of the band threshold."""
    assert MNAAssembler(_inverter_line()).size < BAND_SIZE_THRESHOLD
    if request.param == "band":
        monkeypatch.setattr(mna, "BAND_SIZE_THRESHOLD", 0)
    monkeypatch.setattr(mna, "TRANSIENT_NEWTON_ITERATIONS", 1)
    monkeypatch.setattr(mna, "DC_NEWTON_ITERATIONS", 1)


def _check(error: ConvergenceError, circuit: Circuit) -> None:
    assert str(error).startswith(PREFIX)
    assert isinstance(error, RuntimeError)
    assert error.iterations == 1
    assert error.size == MNAAssembler(circuit).size
    assert np.isfinite(error.time) and error.max_delta >= mna.NEWTON_TOLERANCE


def test_dc_operating_point(one_iteration):
    circuit = _inverter_line()
    with pytest.raises(ConvergenceError) as info:
        dc_operating_point(circuit)
    _check(info.value, circuit)
    assert info.value.time == 0.0


def test_transient_analysis(one_iteration):
    circuit = _inverter_line()
    with pytest.raises(ConvergenceError) as info:
        transient_analysis(circuit, 1e-10, 1e-12, use_dc_start=False)
    _check(info.value, circuit)
    assert info.value.time > 0.0


def test_stacked_kernel_and_batched_fallback(one_iteration):
    jobs = [
        TransientJob(_inverter_line(resistance), 1e-10, 1e-12, use_dc_start=False)
        for resistance in (2e3, 4e3)
    ]
    with pytest.raises(ConvergenceError) as info:
        _run_stack(jobs)
    _check(info.value, jobs[0].circuit)
    # The stacked group fails, and its per-job fallback raises the same type.
    with pytest.raises(ConvergenceError) as info:
        batched_transient_analysis(jobs)
    _check(info.value, jobs[0].circuit)


@pytest.mark.parametrize("layout", ["dense", "band"])
def test_one_failing_job_in_a_stack(layout, monkeypatch):
    # Capped at 5 Newton iterations a step, the 2e4 ohm job fails and the
    # others converge.
    if layout == "band":
        monkeypatch.setattr(mna, "BAND_SIZE_THRESHOLD", 0)
    monkeypatch.setattr(mna, "TRANSIENT_NEWTON_ITERATIONS", 5)
    jobs = [TransientJob(_inverter_line(r), 2e-10, 1e-12) for r in (1e3, 5e3, 2e4)]
    _run_stack(jobs[:2])
    with pytest.raises(ConvergenceError) as alone:
        _run_stack(jobs[2:])
    fallbacks = metrics.counter("repro_batch_groups_total", mode="fallback")
    before = fallbacks.value
    with pytest.raises(ConvergenceError) as stacked:
        batched_transient_analysis(jobs)
    assert fallbacks.value == before + 1
    assert str(stacked.value) == str(alone.value)
    for field in ("time", "iterations", "max_delta", "size"):
        assert getattr(stacked.value, field) == getattr(alone.value, field)

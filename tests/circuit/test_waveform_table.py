"""The per-run source table of the stacked kernel equals ``value(t)``.

``_Batch`` samples every source waveform once per run (``_source_table``):
``Step`` in numpy, constants broadcast, any other callable (``Pulse`` and
``PieceWiseLinear`` included) once per time.  Each sample must have the bits
of the scalar ``value(t)`` the kernel used to call at every step.
"""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, PieceWiseLinear, Pulse, Step
from repro.circuit.batched import _Batch
from repro.circuit.elements import sample_waveform


def _wobble(time):
    return 1e-6 * math.sin(time * 3e11) + 2e-7


def _waveforms(scale: float) -> dict:
    """One waveform of each kind; ``scale`` stretches every time.  The unit
    is a power of two near 1 ps, so the breakpoint sums are exact and a
    breakpoint time lands exactly on each branch test of ``__call__``."""
    ps = 2.0**-40 * scale
    return {
        "step": Step(initial=0.1, final=1.2, delay=2 * ps, rise_time=3 * ps),
        "integer_step": Step(initial=0, final=1, delay=1 * ps, rise_time=7 * ps),
        "pulse": Pulse(
            low=-0.2, high=0.9, delay=1 * ps, rise_time=2 * ps, fall_time=3 * ps, width=4 * ps
        ),
        "periodic_pulse": Pulse(
            low=0.05, high=1.0, delay=0.5 * ps, rise_time=1.5 * ps, fall_time=2.5 * ps,
            width=1.25 * ps, period=7.5 * ps,
        ),
        "pwl": PieceWiseLinear(
            ((1 * ps, 0.0), (3 * ps, 1.0), (3 * ps, 0.4), (6 * ps, -0.3), (9.5 * ps, 0.25))
        ),
        "constant": 0.7,
    }


def _breakpoints(waveform) -> list[float]:
    """The times at which ``waveform`` changes branch, as ``__call__`` computes them."""
    if isinstance(waveform, Step):
        return [waveform.delay, waveform.delay + waveform.rise_time]
    if isinstance(waveform, Pulse):
        edges = [waveform.delay]
        for length in (waveform.rise_time, waveform.width, waveform.fall_time):
            edges.append(edges[-1] + length)
        if waveform.period is not None:
            edges += [edge + k * waveform.period for edge in edges for k in (1, 2)]
        return edges
    if isinstance(waveform, PieceWiseLinear):
        return [t for t, _ in waveform.points]
    return []


def _circuit(scale: float) -> Circuit:
    circuit = Circuit(f"sources x{scale}")
    for name, waveform in _waveforms(scale).items():
        circuit.add_voltage_source(f"v_{name}", name, "0", waveform)
        circuit.add_resistor(f"r_{name}", name, "0", 1e3)
    circuit.add_current_source("i_wobble", "0", "sink", _wobble)
    circuit.add_current_source("i_step", "0", "sink", Step(0.0, 1e-5, 1e-12 * scale, 2e-12))
    circuit.add_resistor("r_sink", "sink", "0", 1e3)
    return circuit


def _times(circuits) -> np.ndarray:
    """Each job's grid plus every breakpoint of every job's waveforms."""
    edges = sorted(
        {
            edge
            for circuit in circuits
            for source in circuit.voltage_sources + circuit.current_sources
            for edge in _breakpoints(source.waveform)
        }
    )
    grid = np.linspace(0.0, 30e-12, 61).tolist()
    times = np.array(sorted(set(grid + edges + [-1e-12])))
    return np.array([times] * len(circuits))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSourceTable:
    def test_table_equals_scalar_value_at_every_time(self):
        circuits = [_circuit(1.0), _circuit(1.5)]
        batch = _Batch(circuits, [1e-12, 1e-12])
        times = _times(circuits)
        currents, voltages = batch._source_table(times)
        assert voltages.shape == (times.shape[1], 6, 2)
        assert currents.shape == (times.shape[1], 2, 2)
        for table, kind in ((voltages, "voltage_sources"), (currents, "current_sources")):
            for job, circuit in enumerate(circuits):
                for p, source in enumerate(getattr(circuit, kind)):
                    # np.float64 times, as the step loop passes them.
                    want = [source.value(time) for time in times[job]]
                    assert _bits(table[:, p, job]) == _bits(want), source.name

    def test_every_breakpoint_is_sampled(self):
        circuits = [_circuit(1.0), _circuit(1.5)]
        times = _times(circuits)
        for job, circuit in enumerate(circuits):
            for source in circuit.voltage_sources:
                assert set(_breakpoints(source.waveform)) <= set(times[job].tolist())

    @pytest.mark.parametrize("name", sorted(_waveforms(1.0)))
    def test_sample_waveform_equals_python_float_calls(self, name):
        # The DC system samples at a Python-float time; the same bits.
        waveform = _waveforms(1.25)[name]
        times = _times([_circuit(1.25)])[0]
        want = [
            float(waveform(time)) if callable(waveform) else float(waveform)
            for time in times.tolist()
        ]
        assert _bits(sample_waveform(waveform, times)) == _bits(want)

    def test_plain_callable_falls_back_to_one_call_per_time(self):
        calls = []

        def waveform(time):
            calls.append(time)
            return _wobble(time)

        times = np.linspace(0.0, 5e-12, 11)
        got = sample_waveform(waveform, times)
        assert calls == times.tolist()
        assert _bits(got) == _bits([_wobble(time) for time in times])

    def test_one_time_table_matches_value_at_zero(self):
        circuits = [_circuit(1.0), _circuit(1.5)]
        batch = _Batch(circuits)
        currents, voltages = (table[0] for table in batch._source_table(np.zeros((2, 1))))
        for job, circuit in enumerate(circuits):
            assert _bits(voltages[:, job]) == _bits(
                [source.value(0.0) for source in circuit.voltage_sources]
            )
            assert _bits(currents[:, job]) == _bits(
                [source.value(0.0) for source in circuit.current_sources]
            )

"""Band Newton: per-step parity with the dense reference Newton loop.

The stacked kernel solves in band storage from
:data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns on, refactorizing
every Newton iteration of a nonlinear circuit and factorizing a linear one
once.  These tests pin it against the dense reference (``dense_reference.py``)
on a pathologically conditioned switching circuit, and count the
factorizations of a linear one.
"""

import numpy as np
import pytest

from dense_reference import dense_transient_analysis

from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit import mna
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9


def _inverter_line_circuit(n_segments: int = 12, contact_resistance: float = 1e-3) -> Circuit:
    """Inverter -> RC ladder -> inverter; the nonlinear Newton workload.

    The default contact resistance of 1 milliohm next to a 20 kiloohm ladder
    puts ~7 orders of magnitude of conductance spread into the MNA matrix --
    near-singular conditioning during the output transition.
    """
    circuit = Circuit("inverter line")
    add_supply(circuit, NODE_45NM)
    v_dd = NODE_45NM.supply_voltage
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, v_dd, delay=2e-12, rise_time=4e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    ladder = DistributedRC(
        total_resistance=2e4,
        total_capacitance=5e-14,
        contact_resistance=contact_resistance,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="line")
    Inverter("rcv", "far", "out", technology=NODE_45NM).add_to(circuit)
    circuit.add_capacitor("cl", "out", "0", 2e-15)
    return circuit


class TestSparseNewtonParity:
    def test_matches_dense_newton_solve_per_step(self, band_everywhere):
        """A one-job band stack and the dense reference Newton loop, each on
        its own trajectory from zero through 300 steps: every unknown (node
        voltages and source currents) <= 1e-9 at every step."""
        circuit = _inverter_line_circuit()
        band = transient_analysis(circuit, 300e-12, 1e-12, use_dc_start=False)
        dense = dense_transient_analysis(circuit, 300e-12, 1e-12, use_dc_start=False)
        assert band.n_points == dense.n_points == 301
        unknowns = [(band.voltage(n), dense.voltage(n)) for n in dense.node_voltages]
        unknowns += [(band.current(s), dense.current(s)) for s in dense.source_currents]
        worst = max(float(np.max(np.abs(got - want))) for got, want in unknowns)
        assert worst <= PARITY_RTOL

    def test_transient_waveforms_match_dense(self, band_everywhere):
        """Whole-transient parity through the public entry point.

        Each step converges to the shared 1e-9 Newton tolerance, and the
        companion state integrates that slack over 300 steps, so the
        open-loop waveform bound is a small multiple of the per-step
        tolerance -- the strict <= 1e-9 contract is per-step and lives in
        the lockstep test above.
        """
        circuit = _inverter_line_circuit()
        dense = dense_transient_analysis(circuit, 3e-10, 1e-12)
        band = transient_analysis(circuit, 3e-10, 1e-12)
        scale = max(np.max(np.abs(w)) for w in dense.node_voltages.values())
        worst = max(
            float(np.max(np.abs(dense.voltage(node) - band.voltage(node))))
            for node in dense.node_voltages
        )
        assert worst / scale < 20 * PARITY_RTOL


class TestFactorizationReuse:
    def test_linear_circuit_factorizes_once(self, band_everywhere, monkeypatch):
        """A linear circuit has one band factorization for the whole analysis."""
        circuit = Circuit("rc")
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-12))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        factorized = []
        solve = mna.BandLayout.solve

        def counted(self, bands, rhs, factors=None):
            if factors is None:
                factorized.append(len(bands))
            return solve(self, bands, rhs, factors)

        monkeypatch.setattr(mna.BandLayout, "solve", counted)
        band = transient_analysis(circuit, 49e-12, 1e-12, use_dc_start=False)
        assert factorized == [1]
        dense = dense_transient_analysis(circuit, 49e-12, 1e-12, use_dc_start=False)
        np.testing.assert_allclose(band.voltage("b"), dense.voltage("b"), rtol=0, atol=1e-15)

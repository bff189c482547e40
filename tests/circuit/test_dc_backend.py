"""DC operating point: routing by size and band-solve parity.

:func:`~repro.circuit.dc.dc_operating_point` assembles densely and solves
through :func:`~repro.circuit.mna.newton_solve`, whose linear solve is a
band LU solve from :data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns
on.  The oracle is the dense DC analysis of ``dense_reference.py``.
"""

import numpy as np
import pytest

from dense_reference import dense_dc_operating_point

from repro.circuit import Circuit, dc_operating_point
from repro.circuit import mna
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import BAND_SIZE_THRESHOLD, MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.core.line import DistributedRC


@pytest.fixture
def layouts(monkeypatch):
    """Sizes of every band layout built while the test runs."""
    sizes = []
    init = mna.BandLayout.__init__

    def recorded(self, assembler, capacitors_open=False):
        init(self, assembler, capacitors_open)
        sizes.append(self.size)

    monkeypatch.setattr(mna.BandLayout, "__init__", recorded)
    return sizes


def _large_ladder(n_segments: int = 120) -> Circuit:
    circuit = Circuit("dc ladder")
    circuit.add_voltage_source("vin", "a", "0", 1.0)
    circuit.add_resistor("rdrv", "a", "n0", 1.0e3)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 5.0e-15)
    circuit.add_resistor("rload", "far", "0", 1.0e6)
    return circuit


def _nonlinear_line(n_segments: int = 100) -> Circuit:
    circuit = Circuit("dc inverter line")
    add_supply(circuit)
    circuit.add_voltage_source("vin", "in", "0", 0.4)
    Inverter("drv", "in", "near").add_to(circuit)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out").add_to(circuit)
    return circuit


def _worst_delta(a, b) -> float:
    node = max(abs(a.node_voltages[n] - b.node_voltages[n]) for n in a.node_voltages)
    current = max(abs(a.source_currents[s] - b.source_currents[s]) for s in a.source_currents)
    return max(node, current)


class TestDCParity:
    def test_large_linear_ladder(self):
        circuit = _large_ladder()
        assert MNAAssembler(circuit).size >= BAND_SIZE_THRESHOLD
        dense = dense_dc_operating_point(circuit)
        band = dc_operating_point(circuit)
        assert _worst_delta(dense, band) <= 1.0e-9
        # Sanity: the ladder actually divides the supply.
        assert 0.9 < band.voltage("far") < 1.0

    def test_large_nonlinear_line(self):
        circuit = _nonlinear_line()
        assert MNAAssembler(circuit).size >= BAND_SIZE_THRESHOLD
        dense = dense_dc_operating_point(circuit)
        band = dc_operating_point(circuit)
        assert _worst_delta(dense, band) <= 1.0e-9

    def test_auto_routing_follows_threshold(self, layouts):
        """Large circuits solve in band storage; small ones keep the dense
        solve and equal the dense reference bit for bit."""
        large = _large_ladder()
        dc_operating_point(large)
        assert layouts == [MNAAssembler(large).size]

        small = Circuit("divider")
        small.add_voltage_source("v1", "a", "0", 2.0)
        small.add_resistor("r1", "a", "b", 1.0e3)
        small.add_resistor("r2", "b", "0", 1.0e3)
        assert MNAAssembler(small).size < BAND_SIZE_THRESHOLD
        auto_small = dc_operating_point(small)
        assert len(layouts) == 1
        assert _worst_delta(auto_small, dense_dc_operating_point(small)) == 0.0
        assert auto_small.voltage("b") == pytest.approx(1.0, rel=1e-9)

    def test_small_circuit_explicit_sparse_works(self, band_everywhere):
        """A small circuit forced into band storage solves correctly."""
        small = Circuit("divider")
        small.add_voltage_source("v1", "a", "0", 2.0)
        small.add_resistor("r1", "a", "b", 1.0e3)
        small.add_resistor("r2", "b", "0", 1.0e3)
        band = dc_operating_point(small)
        assert _worst_delta(band, dense_dc_operating_point(small)) <= 1.0e-9
        assert band.voltage("b") == pytest.approx(1.0, rel=1e-9)


class TestDCCompiledSystem:
    def test_inductor_becomes_short_at_dc(self, band_everywhere):
        circuit = Circuit("rl")
        circuit.add_voltage_source("v1", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1.0e3)
        circuit.add_inductor("l1", "b", "c", 1.0e-9)
        circuit.add_resistor("r2", "c", "0", 1.0e3)
        dense = dense_dc_operating_point(circuit)
        band = dc_operating_point(circuit)
        assert _worst_delta(dense, band) <= 1.0e-9
        assert band.voltage("b") == pytest.approx(band.voltage("c"), abs=1e-6)

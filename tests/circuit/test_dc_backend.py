"""DC operating point: routing by size and band-solve parity.

:func:`~repro.circuit.dc.dc_operating_point` is a one-job DC stack of the
stacked kernel, whose linear solve is a band LU solve from
:data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns on.  The oracle is
the dense DC analysis of ``dense_reference.py``.
"""

import numpy as np
import pytest

from dense_reference import dense_dc_operating_point

from repro.circuit import Circuit, dc_operating_point
from repro.circuit import mna
from repro.circuit.batched import _Batch
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


def _biased_line(contact_resistance: float, supply: float) -> Circuit:
    """Inverter -> RC ladder -> inductor -> inverter, the driver biased
    mid-rail so Newton works through the MOSFETs' active region."""
    circuit = Circuit("dc stack line")
    circuit.add_voltage_source("supply_vdd", "vdd", "0", supply)
    circuit.add_voltage_source("vin", "in", "0", 0.45 * supply)
    Inverter("drv", "in", "near").add_to(circuit)
    ladder = DistributedRC(
        total_resistance=2.0e4,
        total_capacitance=5.0e-14,
        contact_resistance=contact_resistance,
        n_segments=8,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    circuit.add_inductor("lw", "far", "rx", 1.0e-10)
    Inverter("rcv", "rx", "out").add_to(circuit)
    return circuit


class TestStackedDC:
    """A stack's DC starts are those of one-job DC stacks."""

    CASES = [(1.0e3, 0.8), (5.0e3, 1.0), (2.0e4, 1.2), (1.0e5, 1.5), (3.0e2, 0.6)]

    @pytest.fixture
    def circuits(self):
        circuits = [_biased_line(*case) for case in self.CASES]
        # The jobs need different numbers of Newton iterations, so rows
        # leave the stack's active set at different times.
        iterations = []
        stamp = _Batch._stamp_mosfets

        def counted(self, *args):
            iterations[-1] += 1
            return stamp(self, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Batch, "_stamp_mosfets", counted)
            for circuit in circuits:
                iterations.append(0)
                _Batch([circuit]).dc(0.0)
        assert len(set(iterations)) > 1, iterations
        return circuits

    def test_bitwise_equal_below_threshold(self, circuits):
        stack = _Batch(circuits)
        assembler = MNAAssembler(circuits[0])
        # The inductor adds a zero-volt branch current to the DC system.
        assert stack.band is None and stack.size == assembler.dc_size > assembler.size
        stacked = stack.dc(0.0)
        for solution, circuit in zip(stacked, circuits):
            assert solution.tobytes() == _Batch([circuit]).dc(0.0)[0].tobytes()
            dense = dense_dc_operating_point(circuit)
            got = dc_operating_point(circuit)
            assert got.node_voltages == dense.node_voltages
            assert got.source_currents == dense.source_currents

    def test_band_matches_dense(self, circuits, band_everywhere):
        stack = _Batch(circuits)
        assert stack.band is not None
        stacked = stack.dc(0.0)
        assembler = MNAAssembler(circuits[0])
        for solution, circuit in zip(stacked, circuits):
            assert solution.tobytes() == _Batch([circuit]).dc(0.0)[0].tobytes()
            dense = dense_dc_operating_point(circuit)
            worst = max(
                abs(solution[assembler.node_index(n)] - v) for n, v in dense.node_voltages.items()
            )
            worst = max(
                worst,
                *(
                    abs(solution[assembler.vsource_index(p)] - dense.current(s.name))
                    for p, s in enumerate(circuit.voltage_sources)
                ),
            )
            assert worst <= 1.0e-9

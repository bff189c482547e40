"""Tests for circuit elements, waveforms and the netlist container."""

import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    Inductor,
    PieceWiseLinear,
    Pulse,
    Resistor,
    Step,
    VoltageSource,
)
from repro.circuit.elements import evaluate_waveform
from repro.circuit.netlist import is_ground
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC


class TestWaveforms:
    def test_step_levels(self):
        step = Step(initial=0.0, final=1.0, delay=1e-9, rise_time=1e-10)
        assert step(0.0) == 0.0
        assert step(2e-9) == 1.0
        assert step(1.05e-9) == pytest.approx(0.5)

    def test_falling_step(self):
        step = Step(initial=1.0, final=0.0, delay=0.0, rise_time=1e-10)
        assert step(0.0) == 1.0
        assert step(1e-9) == 0.0

    def test_pulse_shape(self):
        pulse = Pulse(low=0.0, high=1.0, delay=0.0, rise_time=1e-10, fall_time=1e-10, width=1e-9)
        assert pulse(0.0) == pytest.approx(0.0)
        assert pulse(5e-10) == pytest.approx(1.0)
        assert pulse(5e-9) == pytest.approx(0.0)

    def test_pulse_periodic(self):
        pulse = Pulse(width=1e-9, rise_time=1e-10, fall_time=1e-10, period=4e-9)
        assert pulse(0.5e-9) == pytest.approx(pulse(4.5e-9))

    def test_pwl_interpolation(self):
        pwl = PieceWiseLinear(((0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)))
        assert pwl(-1.0) == 0.0
        assert pwl(0.5e-9) == pytest.approx(0.5)
        assert pwl(1.5e-9) == pytest.approx(0.75)
        assert pwl(5e-9) == pytest.approx(0.5)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PieceWiseLinear(())
        with pytest.raises(ValueError):
            PieceWiseLinear(((1e-9, 1.0), (0.5e-9, 0.0)))

    def test_constant_waveform(self):
        assert evaluate_waveform(0.8, 1e-9) == pytest.approx(0.8)

    def test_source_value(self):
        source = VoltageSource("v1", "a", "0", Step(final=1.0, delay=0.0, rise_time=1e-12))
        assert source.value(1e-9) == pytest.approx(1.0)


class TestElements:
    def test_resistor_validation(self):
        with pytest.raises(ValueError):
            Resistor("r1", "a", "b", 0.0)

    def test_capacitor_validation(self):
        with pytest.raises(ValueError):
            Capacitor("c1", "a", "b", -1e-15)

    def test_inductor_validation(self):
        with pytest.raises(ValueError):
            Inductor("l1", "a", "b", 0.0)


class TestCircuit:
    def test_nodes_exclude_ground(self):
        circuit = Circuit()
        circuit.add_resistor("r1", "a", "0", 1e3)
        circuit.add_capacitor("c1", "a", "gnd", 1e-15)
        assert circuit.nodes() == ["a"]
        assert is_ground("0") and is_ground("gnd")

    def test_duplicate_names_rejected(self):
        circuit = Circuit()
        circuit.add_resistor("x", "a", "b", 1e3)
        with pytest.raises(ValueError):
            circuit.add_capacitor("x", "a", "0", 1e-15)

    def test_duplicate_of_constructor_element_rejected(self):
        circuit = Circuit(resistors=[Resistor("x", "a", "b", 1e3)])
        with pytest.raises(ValueError):
            circuit.add_inductor("x", "b", "0", 1e-9)
        circuit.add_inductor("y", "b", "0", 1e-9)
        with pytest.raises(ValueError):
            circuit.add_resistor("y", "a", "0", 1e3)

    def test_building_a_ladder_scans_names_once(self, monkeypatch):
        """Adding an element does not rebuild the set of element names, so
        building a circuit takes linear time."""
        scans = []
        names = Circuit.element_names

        def counted(self):
            scans.append(1)
            return names(self)

        monkeypatch.setattr(Circuit, "element_names", counted)
        circuit = Circuit("ladder")
        ladder = DistributedRC(
            total_resistance=1e4, total_capacitance=1e-13, n_segments=1000
        )
        add_rc_ladder(circuit, ladder, "near", "far")
        assert len(circuit.resistors) >= 1000 and len(circuit.capacitors) >= 1000
        assert len(scans) <= 1

    def test_element_count(self):
        circuit = Circuit()
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-15)
        circuit.add_voltage_source("v1", "a", "0", 1.0)
        assert circuit.element_count == 3

    def test_mosfet_addition_and_nodes(self):
        circuit = Circuit()
        circuit.add_mosfet("m1", "d", "g", "0", NODE_45NM.nmos_parameters())
        assert set(circuit.nodes()) == {"d", "g"}

    def test_spice_export_contains_elements(self):
        circuit = Circuit(title="export test")
        circuit.add_resistor("r1", "a", "b", 1234.0)
        circuit.add_capacitor("c1", "b", "0", 2e-15)
        circuit.add_voltage_source("v1", "a", "0", Step())
        circuit.add_mosfet("mn", "b", "a", "0", NODE_45NM.nmos_parameters())
        text = circuit.to_spice()
        assert "* export test" in text
        assert "Rr1 a b 1234" in text
        assert "Cc1 b 0 2e-15" in text
        assert "Vv1 a 0 Step" in text
        assert "NMOS" in text
        assert text.strip().endswith(".end")

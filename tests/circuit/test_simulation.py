"""Tests for DC, transient, inverter, RC ladder and delay measurement."""

import math

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    Inverter,
    NODE_45NM,
    Step,
    dc_operating_point,
    measure_inverter_line_delay,
    propagation_delay,
    rise_time,
    transient_analysis,
    add_rc_ladder,
    crossing_time,
)
from repro.circuit.inverter import add_inverter_chain, add_supply
from repro.circuit.mna import MNAAssembler
from repro.core import DistributedRC, DopingProfile, InterconnectLine, MWCNTInterconnect
from repro.units import nm, um


def _voltage_divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_voltage_source("v1", "a", "0", 2.0)
    circuit.add_resistor("r1", "a", "b", 1e3)
    circuit.add_resistor("r2", "b", "0", 1e3)
    return circuit


class TestDC:
    def test_voltage_divider(self):
        result = dc_operating_point(_voltage_divider())
        assert result.voltage("b") == pytest.approx(1.0, rel=1e-6)
        assert result.voltage("a") == pytest.approx(2.0, rel=1e-6)

    def test_source_current(self):
        result = dc_operating_point(_voltage_divider())
        # 2 V across 2 kOhm: 1 mA flows out of the source's positive terminal,
        # i.e. the MNA branch current is -1 mA.
        assert result.current("v1") == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.add_current_source("i1", "0", "a", 1e-3)
        circuit.add_resistor("r1", "a", "0", 2e3)
        result = dc_operating_point(circuit)
        assert result.voltage("a") == pytest.approx(2.0, rel=1e-4)

    def test_ground_voltage_is_zero(self):
        result = dc_operating_point(_voltage_divider())
        assert result.voltage("0") == 0.0
        with pytest.raises(KeyError):
            result.voltage("missing")

    def test_inverter_static_levels(self):
        for v_in, expected in [(0.0, NODE_45NM.supply_voltage), (NODE_45NM.supply_voltage, 0.0)]:
            circuit = Circuit()
            add_supply(circuit, NODE_45NM)
            circuit.add_voltage_source("vin", "in", "0", v_in)
            Inverter("i0", "in", "out").add_to(circuit)
            result = dc_operating_point(circuit)
            assert result.voltage("out") == pytest.approx(expected, abs=0.02)

    def test_empty_circuit(self):
        result = dc_operating_point(Circuit())
        assert result.node_voltages == {}


class TestMNAAssembler:
    def test_unknown_node_raises(self):
        assembler = MNAAssembler(_voltage_divider())
        with pytest.raises(KeyError):
            assembler.node_index("zzz")

    def test_size_counts_nodes_and_sources(self):
        assembler = MNAAssembler(_voltage_divider())
        assert assembler.n_nodes == 2
        assert assembler.n_vsources == 1
        assert assembler.size == 3


class TestTransient:
    def test_rc_charging_time_constant(self):
        circuit = Circuit()
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, delay=0.0, rise_time=1e-15))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        result = transient_analysis(circuit, 5e-9, 5e-12)
        v_at_tau = float(np.interp(1e-9, result.times, result.voltage("b")))
        assert v_at_tau == pytest.approx(1 - math.exp(-1), abs=0.02)
        assert result.final_voltage("b") == pytest.approx(1.0, abs=0.01)

    def test_backward_euler_also_converges(self):
        circuit = Circuit()
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-15))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        result = transient_analysis(circuit, 10e-9, 10e-12, method="backward_euler")
        assert result.final_voltage("b") == pytest.approx(1.0, abs=0.02)

    def test_rl_circuit_current_rise(self):
        circuit = Circuit()
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-15))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_inductor("l1", "b", "0", 1e-6)
        # tau = L/R = 1 ns; after 5 tau the resistor drops the full supply.
        result = transient_analysis(circuit, 5e-9, 5e-12)
        assert result.final_voltage("b") == pytest.approx(0.0, abs=0.02)

    def test_dc_start_keeps_steady_state_flat(self):
        circuit = Circuit()
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        result = transient_analysis(circuit, 2e-9, 2e-12)
        assert np.allclose(result.voltage("b"), 1.0, atol=1e-6)

    def test_invalid_arguments(self):
        circuit = _voltage_divider()
        with pytest.raises(ValueError):
            transient_analysis(circuit, -1e-9, 1e-12)
        with pytest.raises(ValueError):
            transient_analysis(circuit, 1e-9, 2e-9)

    def test_result_accessors(self):
        circuit = _voltage_divider()
        result = transient_analysis(circuit, 1e-9, 1e-10)
        assert result.n_points == 11
        assert np.allclose(result.voltage("gnd"), 0.0)
        with pytest.raises(KeyError):
            result.voltage("nope")
        assert result.current("v1").shape == result.times.shape


class TestInverterTransient:
    def test_inverter_inverts_step(self):
        circuit = Circuit()
        add_supply(circuit, NODE_45NM)
        circuit.add_voltage_source("vin", "in", "0", Step(0.0, 1.0, delay=5e-12, rise_time=2e-12))
        Inverter("i0", "in", "out").add_to(circuit)
        circuit.add_capacitor("cl", "out", "0", 1e-15)
        result = transient_analysis(circuit, 200e-12, 0.2e-12)
        assert result.voltage("out")[0] == pytest.approx(1.0, abs=0.02)
        assert result.final_voltage("out") == pytest.approx(0.0, abs=0.02)

    def test_inverter_chain(self):
        circuit = Circuit()
        add_supply(circuit, NODE_45NM)
        circuit.add_voltage_source("vin", "n0", "0", Step(0.0, 1.0, delay=5e-12, rise_time=2e-12))
        inverters = add_inverter_chain(circuit, ["n0", "n1", "n2"])
        assert len(inverters) == 2
        result = transient_analysis(circuit, 300e-12, 0.5e-12)
        # Two inversions: the final output follows the input high.
        assert result.final_voltage("n2") == pytest.approx(1.0, abs=0.05)

    def test_chain_validation(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            add_inverter_chain(circuit, ["only"])
        with pytest.raises(ValueError):
            add_inverter_chain(circuit, ["a", "b"], sizes=[1.0, 2.0])

    def test_inverter_size_validation(self):
        with pytest.raises(ValueError):
            Inverter("x", "a", "b", size=0.0)


class TestRCLadder:
    def test_ladder_node_count_and_totals(self):
        circuit = Circuit()
        ladder = DistributedRC(
            total_resistance=1e4, total_capacitance=1e-14, contact_resistance=2e3, n_segments=10
        )
        add_rc_ladder(circuit, ladder, "a", "b", name_prefix="wire")
        total_r = sum(r.resistance for r in circuit.resistors)
        total_c = sum(c.capacitance for c in circuit.capacitors)
        assert total_r == pytest.approx(1e4 + 2e3, rel=1e-9)
        assert total_c == pytest.approx(1e-14, rel=1e-9)

    def test_ladder_accepts_interconnect_line(self):
        circuit = Circuit()
        line = InterconnectLine(MWCNTInterconnect(outer_diameter=nm(10), length=um(100)))
        nodes = add_rc_ladder(circuit, line, "a", "b", name_prefix="wire")
        assert len(nodes) >= line.n_segments - 1
        assert circuit.element_count > line.n_segments

    def test_ladder_dc_transparent(self):
        circuit = Circuit()
        circuit.add_voltage_source("v1", "a", "0", 1.0)
        ladder = DistributedRC(total_resistance=1e3, total_capacitance=1e-14, n_segments=5)
        add_rc_ladder(circuit, ladder, "a", "b", name_prefix="wire")
        circuit.add_resistor("rload", "b", "0", 1e6)
        result = dc_operating_point(circuit)
        assert result.voltage("b") == pytest.approx(1.0, rel=1e-3)


class TestDelayMeasurement:
    def test_crossing_time_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([0.0, 0.4, 1.0])
        assert crossing_time(times, values, 0.7) == pytest.approx(1.5)

    def test_crossing_time_direction_filter(self):
        times = np.linspace(0, 4, 5)
        values = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        assert crossing_time(times, values, 0.5, rising=False) == pytest.approx(1.5)

    def test_crossing_time_not_found(self):
        with pytest.raises(ValueError):
            crossing_time(np.array([0.0, 1.0]), np.array([0.0, 0.1]), 0.5)

    def test_crossing_time_shape_mismatch(self):
        with pytest.raises(ValueError):
            crossing_time(np.array([0.0, 1.0]), np.array([0.0]), 0.5)

    def test_measure_inverter_line_delay_sane(self):
        tube = MWCNTInterconnect(outer_diameter=nm(10), length=um(100))
        measurement = measure_inverter_line_delay(InterconnectLine(tube, n_segments=10))
        assert measurement.propagation_delay > 0
        # The run ends at the step where the far end, falling behind the
        # inverting driver, crosses 50 %.
        far = measurement.result.voltage("far")
        half = 0.5 * NODE_45NM.supply_voltage
        assert far[-2] > half >= far[-1]
        assert measurement.result.times[-1] >= measurement.propagation_delay

    def test_doping_reduces_measured_delay(self):
        pristine = MWCNTInterconnect(
            outer_diameter=nm(10), length=um(200), contact_resistance=100e3
        )
        doped = pristine.with_doping(DopingProfile.from_channels(10))
        delay_pristine = measure_inverter_line_delay(
            InterconnectLine(pristine, n_segments=10)
        ).propagation_delay
        delay_doped = measure_inverter_line_delay(
            InterconnectLine(doped, n_segments=10)
        ).propagation_delay
        assert delay_doped < delay_pristine

    def test_longer_line_is_slower(self):
        short = MWCNTInterconnect(outer_diameter=nm(14), length=um(50))
        long = MWCNTInterconnect(outer_diameter=nm(14), length=um(400))
        t_short = measure_inverter_line_delay(InterconnectLine(short, n_segments=10)).propagation_delay
        t_long = measure_inverter_line_delay(InterconnectLine(long, n_segments=10)).propagation_delay
        assert t_long > t_short

    def test_falling_input_also_measurable(self):
        tube = MWCNTInterconnect(outer_diameter=nm(10), length=um(100))
        measurement = measure_inverter_line_delay(
            InterconnectLine(tube, n_segments=8), rising_input=False
        )
        assert measurement.propagation_delay > 0

    def test_rise_time_of_rc_node(self):
        circuit = Circuit()
        circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-15))
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12)
        result = transient_analysis(circuit, 10e-9, 5e-12)
        # 10-90% rise time of a single-pole RC is 2.2 tau = 2.2 ns.
        assert rise_time(result, "b", 1.0) == pytest.approx(2.2e-9, rel=0.05)

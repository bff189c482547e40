"""Crosstalk noise analysis of coupled interconnects.

Fig. 10a of the paper highlights the electric-field streamlines coupling
neighbouring lines; this module closes the loop by quantifying the circuit
consequence: a switching aggressor line injects a noise glitch onto a quiet
victim line through the coupling capacitance extracted by the TCAD layer (or
the analytic coupled-line formula).  The victim/aggressor pair is simulated
with the MNA transient engine so the noise peak and the delay push-out of a
simultaneously switching victim are measured the way a signal-integrity flow
would.  The three cases share one topology (only the source waveforms
differ), so they run as one stack through
:func:`repro.circuit.batched.batched_transient_analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.batched import TransientJob, batched_transient_analysis
from repro.circuit.delay import crossing_time
from repro.circuit.elements import Step
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.netlist import Circuit
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM, TechnologyNode
from repro.circuit.transient import TransientResult
from repro.core.line import InterconnectLine


@dataclass(frozen=True)
class CrosstalkResult:
    """Outcome of a victim/aggressor crosstalk simulation.

    Attributes
    ----------
    noise_peak:
        Peak glitch amplitude induced on the quiet victim's far end, in volt.
    noise_peak_fraction:
        Glitch amplitude as a fraction of the supply voltage.
    victim_delay_quiet:
        Victim delay when the aggressor is quiet, in second.
    victim_delay_opposite_switching:
        Victim delay when the aggressor switches in the opposite direction
        (worst-case Miller coupling), in second.
    delay_pushout:
        Relative delay increase caused by the opposite-switching aggressor.
    """

    noise_peak: float
    noise_peak_fraction: float
    victim_delay_quiet: float
    victim_delay_opposite_switching: float
    delay_pushout: float


def _build_pair(
    line: InterconnectLine,
    coupling_capacitance: float,
    technology: TechnologyNode,
    victim_switches: bool,
    aggressor_switches: bool,
    aggressor_rising: bool,
) -> tuple[Circuit, float]:
    """Victim + aggressor circuit with distributed coupling between the lines."""
    v_dd = technology.supply_voltage
    circuit = Circuit(title="crosstalk victim/aggressor pair")
    add_supply(circuit, technology)

    if victim_switches:
        circuit.add_voltage_source(
            "vin_v", "vin", "0", Step(0.0, v_dd, delay=2e-12, rise_time=5e-12)
        )
    else:
        circuit.add_voltage_source("vin_v", "vin", "0", v_dd)  # victim driven low (output high... inverted)

    if aggressor_switches:
        start, stop = (0.0, v_dd) if aggressor_rising else (v_dd, 0.0)
        circuit.add_voltage_source(
            "vin_a", "ain", "0", Step(start, stop, delay=2e-12, rise_time=5e-12)
        )
    else:
        circuit.add_voltage_source("vin_a", "ain", "0", 0.0)

    Inverter("vdrv", "vin", "vnear", technology=technology).add_to(circuit)
    Inverter("adrv", "ain", "anear", technology=technology).add_to(circuit)

    victim_nodes = add_rc_ladder(circuit, line, "vnear", "vfar", name_prefix="victim")
    aggressor_nodes = add_rc_ladder(circuit, line, "anear", "afar", name_prefix="aggr")

    Inverter("vrcv", "vfar", "vout", technology=technology).add_to(circuit)
    Inverter("arcv", "afar", "aout", technology=technology).add_to(circuit)

    # Distribute the coupling capacitance along the two ladders.
    shared = min(len(victim_nodes), len(aggressor_nodes))
    if shared == 0:
        circuit.add_capacitor("cc_end", "vfar", "afar", coupling_capacitance)
    else:
        per_node = coupling_capacitance / shared
        for index in range(shared):
            circuit.add_capacitor(
                f"cc_{index}", victim_nodes[index], aggressor_nodes[index], per_node
            )
    return circuit, v_dd


def _victim_delay(result: TransientResult, v_dd: float) -> float:
    """50 %-to-50 % delay from the victim's input to its far end."""
    t_in = crossing_time(result.times, result.voltage("vin"), v_dd / 2)
    return crossing_time(result.times, result.voltage("vfar"), v_dd / 2, start_time=t_in) - t_in


def analyze_crosstalk(
    line: InterconnectLine,
    coupling_capacitance: float,
    technology: TechnologyNode = NODE_45NM,
    simulation_margin: float = 10.0,
    n_time_steps: int = 500,
) -> CrosstalkResult:
    """Simulate the victim/aggressor pair and extract noise and delay push-out.

    Three cases are simulated: a quiet victim next to a switching aggressor
    (the glitch), the victim switching alone, and the victim switching
    against an opposite-switching aggressor (the push-out).

    Parameters
    ----------
    line:
        Interconnect model used for *both* the victim and the aggressor.
    coupling_capacitance:
        Total line-to-line coupling capacitance in farad (e.g. the
        ``coupling_capacitance`` of a TCAD extraction times the line length).
    technology:
        Driver/receiver technology node.
    simulation_margin:
        Simulation window as a multiple of the victim's Elmore delay.
    n_time_steps:
        Number of transient steps per simulation.

    Returns
    -------
    CrosstalkResult
    """
    if coupling_capacitance < 0:
        raise ValueError("coupling capacitance cannot be negative")

    driver = Inverter("sizing", "a", "b", technology=technology)
    elmore = line.elmore_delay(driver.output_resistance(), driver.input_capacitance)
    stop_time = max(simulation_margin * elmore, 100e-12)
    dt = stop_time / n_time_steps

    # (victim switches, aggressor switches, aggressor rising) per case.
    cases = ((False, True, True), (True, False, True), (True, True, False))
    jobs = []
    for victim_switches, aggressor_switches, aggressor_rising in cases:
        circuit, v_dd = _build_pair(
            line, coupling_capacitance, technology, victim_switches,
            aggressor_switches, aggressor_rising,
        )
        jobs.append(TransientJob(circuit=circuit, stop_time=stop_time, time_step=dt))
    glitch, quiet, opposite = batched_transient_analysis(jobs)

    victim_far = glitch.voltage("vfar")
    noise_peak = float(np.max(np.abs(victim_far - victim_far[0])))
    t_quiet = _victim_delay(quiet, v_dd)
    t_opposite = _victim_delay(opposite, v_dd)

    return CrosstalkResult(
        noise_peak=noise_peak,
        noise_peak_fraction=noise_peak / v_dd,
        victim_delay_quiet=t_quiet,
        victim_delay_opposite_switching=t_opposite,
        delay_pushout=(t_opposite - t_quiet) / t_quiet if t_quiet > 0 else float("nan"),
    )

"""Reference crosstalk analysis: three serial dense transients.

This is the body :func:`repro.circuit.crosstalk.analyze_crosstalk` had
before it ran its three victim/aggressor transients as one stack.  It runs
every transient through the dense scalar transient of ``dense_reference.py``,
one call per case, at any size.  The stacked
implementation must equal it bit for bit (``test_crosstalk_stack.py``), and
the ``crosstalk`` case of ``benchmarks/perf/harness.py`` times it as its
reference side.
"""

from __future__ import annotations

import numpy as np

from dense_reference import dense_transient_analysis

from repro.circuit.crosstalk import CrosstalkResult, _build_pair
from repro.circuit.delay import crossing_time
from repro.circuit.inverter import Inverter
from repro.circuit.technology import NODE_45NM, TechnologyNode
from repro.core.line import InterconnectLine


def analyze_crosstalk_reference(
    line: InterconnectLine,
    coupling_capacitance: float,
    technology: TechnologyNode = NODE_45NM,
    simulation_margin: float = 10.0,
    n_time_steps: int = 500,
) -> CrosstalkResult:
    """Three serial dense transients; same signature as ``analyze_crosstalk``."""
    if coupling_capacitance < 0:
        raise ValueError("coupling capacitance cannot be negative")

    driver = Inverter("sizing", "a", "b", technology=technology)
    elmore = line.elmore_delay(driver.output_resistance(), driver.input_capacitance)
    stop_time = max(simulation_margin * elmore, 100e-12)
    dt = stop_time / n_time_steps

    # Case 1: quiet victim (held), switching aggressor -> glitch on the victim.
    circuit, v_dd = _build_pair(
        line, coupling_capacitance, technology, victim_switches=False,
        aggressor_switches=True, aggressor_rising=True,
    )
    result = dense_transient_analysis(circuit, stop_time, dt)
    victim_far = result.voltage("vfar")
    baseline = victim_far[0]
    noise_peak = float(np.max(np.abs(victim_far - baseline)))

    # Case 2: victim switches alone.
    circuit_quiet, _ = _build_pair(
        line, coupling_capacitance, technology, victim_switches=True,
        aggressor_switches=False, aggressor_rising=True,
    )
    quiet = dense_transient_analysis(circuit_quiet, stop_time, dt)
    t_in = crossing_time(quiet.times, quiet.voltage("vin"), v_dd / 2)
    t_quiet = (
        crossing_time(quiet.times, quiet.voltage("vfar"), v_dd / 2, start_time=t_in)
        - t_in
    )

    # Case 3: victim switches while the aggressor switches the other way.
    circuit_opp, _ = _build_pair(
        line, coupling_capacitance, technology, victim_switches=True,
        aggressor_switches=True, aggressor_rising=False,
    )
    opposite = dense_transient_analysis(circuit_opp, stop_time, dt)
    t_in_opp = crossing_time(opposite.times, opposite.voltage("vin"), v_dd / 2)
    t_opposite = (
        crossing_time(
            opposite.times, opposite.voltage("vfar"), v_dd / 2, start_time=t_in_opp
        )
        - t_in_opp
    )

    return CrosstalkResult(
        noise_peak=noise_peak,
        noise_peak_fraction=noise_peak / v_dd,
        victim_delay_quiet=t_quiet,
        victim_delay_opposite_switching=t_opposite,
        delay_pushout=(t_opposite - t_quiet) / t_quiet if t_quiet > 0 else float("nan"),
    )

"""Propagation-delay and slew measurement.

These helpers turn transient waveforms into the scalar metrics the paper's
Fig. 12 reports (propagation delay, and from it the delay ratio between doped
and pristine interconnects), plus the standard rise/fall-time measures.  The
module also provides :func:`measure_inverter_line_delay_batch`, the complete
"inverter - interconnect - inverter" benchmark of Fig. 11 over a list of
lines, and :func:`measure_inverter_line_delay`, the same benchmark for one
line (a batch of one).  Both run through
:func:`repro.circuit.batched.batched_transient_analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.batched import TransientJob, batched_transient_analysis
from repro.circuit.elements import Step
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.netlist import Circuit
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM, TechnologyNode
from repro.circuit.transient import TransientResult
from repro.core.line import DistributedRC, InterconnectLine


def crossing_time(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    rising: bool | None = None,
    start_time: float = 0.0,
) -> float:
    """First time the waveform crosses a threshold, with linear interpolation.

    Parameters
    ----------
    times, values:
        Waveform samples.
    threshold:
        Crossing level in volt.
    rising:
        Restrict to rising (True) or falling (False) crossings; ``None``
        accepts either.
    start_time:
        Ignore crossings before this time.

    Raises
    ------
    ValueError
        If no crossing is found.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")

    for i in range(1, times.size):
        if times[i] < start_time:
            continue
        v0, v1 = values[i - 1], values[i]
        crossed_up = v0 < threshold <= v1
        crossed_down = v0 > threshold >= v1
        if rising is True and not crossed_up:
            continue
        if rising is False and not crossed_down:
            continue
        if not (crossed_up or crossed_down):
            continue
        if v1 == v0:
            return float(times[i])
        fraction = (threshold - v0) / (v1 - v0)
        return float(times[i - 1] + fraction * (times[i] - times[i - 1]))

    raise ValueError(f"waveform never crosses {threshold} V after t={start_time}")


def propagation_delay(
    result: TransientResult,
    input_node: str,
    output_node: str,
    supply_voltage: float,
    threshold_fraction: float = 0.5,
) -> float:
    """Propagation delay between the 50 % crossings of two nodes in second."""
    threshold = threshold_fraction * supply_voltage
    t_in = crossing_time(result.times, result.voltage(input_node), threshold)
    t_out = crossing_time(result.times, result.voltage(output_node), threshold, start_time=t_in)
    return t_out - t_in


def rise_time(
    result: TransientResult,
    node: str,
    supply_voltage: float,
    low_fraction: float = 0.1,
    high_fraction: float = 0.9,
) -> float:
    """10 %-90 % rise (or fall) time of a node waveform in second."""
    waveform = result.voltage(node)
    rising = waveform[-1] > waveform[0]
    low = low_fraction * supply_voltage
    high = high_fraction * supply_voltage
    if rising:
        t_low = crossing_time(result.times, waveform, low, rising=True)
        t_high = crossing_time(result.times, waveform, high, rising=True, start_time=t_low)
    else:
        t_high = crossing_time(result.times, waveform, high, rising=False)
        t_low = crossing_time(result.times, waveform, low, rising=False, start_time=t_high)
        return t_low - t_high
    return t_high - t_low


@dataclass(frozen=True)
class DelayMeasurement:
    """Outcome of the inverter - line - inverter benchmark.

    Attributes
    ----------
    propagation_delay:
        50 %-to-50 % delay from the driver input to the far end of the line
        (the receiver input) in second.
    result:
        The transient result, for plotting or further inspection.  It ends
        at the step where the far end crossed 50 % (or, for a line measured
        in a stack, where the last line of the stack crossed).
    """

    propagation_delay: float
    result: TransientResult


def _build_delay_benchmark(
    line: DistributedRC | InterconnectLine,
    technology: TechnologyNode,
    driver_size: float,
    receiver_size: float,
    input_rise_time: float,
    rising_input: bool,
    simulation_margin: float,
    n_time_steps: int,
) -> tuple[Circuit, float, float, float]:
    """Build the Fig. 11 benchmark circuit and its simulation window.

    Returns ``(circuit, stop_time, time_step, v_dd)``.
    """
    if isinstance(line, InterconnectLine):
        ladder = line.distributed()
    else:
        ladder = line

    v_dd = technology.supply_voltage

    circuit = Circuit(title="inverter - interconnect - inverter delay benchmark")
    add_supply(circuit, technology)

    if rising_input:
        stimulus = Step(initial=0.0, final=v_dd, delay=2.0e-12, rise_time=input_rise_time)
    else:
        stimulus = Step(initial=v_dd, final=0.0, delay=2.0e-12, rise_time=input_rise_time)
    circuit.add_voltage_source("vin", "in", "0", stimulus)

    driver = Inverter("driver", "in", "near", technology=technology, size=driver_size)
    driver.add_to(circuit)

    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")

    receiver = Inverter("receiver", "far", "out", technology=technology, size=receiver_size)
    receiver.add_to(circuit)

    # Choose a window long enough for the slowest case: driver + line Elmore
    # estimate, several times over.
    elmore = ladder.elmore_delay(
        driver_resistance=driver.output_resistance(),
        load_capacitance=receiver.input_capacitance,
    )
    stop_time = max(simulation_margin * (elmore + input_rise_time), 50.0e-12)
    time_step = stop_time / n_time_steps
    return circuit, stop_time, time_step, v_dd


def _measure_from_result(result: TransientResult, v_dd: float) -> DelayMeasurement:
    """Extract the benchmark metrics from a finished transient result."""
    return DelayMeasurement(propagation_delay(result, "in", "far", v_dd), result)


def measure_inverter_line_delay(
    line: DistributedRC | InterconnectLine,
    technology: TechnologyNode = NODE_45NM,
    driver_size: float = 1.0,
    receiver_size: float = 1.0,
    input_rise_time: float = 5.0e-12,
    rising_input: bool = True,
    simulation_margin: float = 8.0,
    n_time_steps: int = 600,
    method: str = "trapezoidal",
) -> DelayMeasurement:
    """Run the Fig. 11 benchmark: driver inverter -> interconnect -> receiver inverter.

    The input is a step applied to the driver inverter; the measured
    propagation delay is between the 50 % crossing of the input and of the far
    end of the interconnect (the receiver input), matching the paper's
    definition of interconnect propagation delay.

    Parameters
    ----------
    line:
        Distributed description of the interconnect under test.
    technology:
        Technology node of the driver/receiver inverters (45 nm in the paper).
    driver_size, receiver_size:
        Inverter drive strengths.
    input_rise_time:
        Rise time of the stimulus step in second.
    rising_input:
        Direction of the input step; the far-end response has the opposite
        polarity because of the inverting driver.
    simulation_margin:
        Simulation window as a multiple of the line's Elmore-delay estimate
        (plus the input transition), so slow lines still cross; the run
        ends at the far end's 50 % crossing.
    n_time_steps:
        Number of fixed transient steps in the window.
    method:
        Integration method passed to the transient engine.

    Returns
    -------
    DelayMeasurement
    """
    return measure_inverter_line_delay_batch(
        [line],
        technology=technology,
        driver_size=driver_size,
        receiver_size=receiver_size,
        input_rise_time=input_rise_time,
        rising_input=rising_input,
        simulation_margin=simulation_margin,
        n_time_steps=n_time_steps,
        method=method,
    )[0]


def measure_inverter_line_delay_batch(
    lines: list[DistributedRC | InterconnectLine],
    technology: TechnologyNode = NODE_45NM,
    driver_size: float = 1.0,
    receiver_size: float = 1.0,
    input_rise_time: float = 5.0e-12,
    rising_input: bool = True,
    simulation_margin: float = 8.0,
    n_time_steps: int = 600,
    method: str = "trapezoidal",
) -> list[DelayMeasurement]:
    """:func:`measure_inverter_line_delay` over a list of lines.

    Every line gets its own Fig. 11 circuit and simulation window; the
    transients are then evaluated together by
    :func:`repro.circuit.batched.batched_transient_analysis`, which groups
    same-topology jobs into stacked solves and is bitwise-identical to
    per-job serial runs.  Lines whose segment counts differ simply land in
    different groups -- correctness never depends on the batching.  Each
    stack ends once every line's input and then far end have crossed 50 %
    (:attr:`~repro.circuit.batched.TransientJob.until`), so nothing after
    the last crossing is simulated.
    """
    jobs = []
    windows = []
    for line in lines:
        circuit, stop_time, time_step, v_dd = _build_delay_benchmark(
            line,
            technology,
            driver_size,
            receiver_size,
            input_rise_time,
            rising_input,
            simulation_margin,
            n_time_steps,
        )
        half = 0.5 * v_dd
        jobs.append(
            TransientJob(circuit, stop_time, time_step, method, until=(("in", half), ("far", half)))
        )
        windows.append(v_dd)
    results = batched_transient_analysis(jobs)
    return [
        _measure_from_result(result, v_dd) for result, v_dd in zip(results, windows)
    ]

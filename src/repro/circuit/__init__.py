"""Circuit-level simulation substrate for the Figs. 11-12 benchmark.

The paper benchmarks doped MWCNT interconnects by placing them between CMOS
45 nm inverters and measuring propagation delay in a SPICE-class simulator.
This subpackage provides the equivalent machinery:

* :mod:`repro.circuit.elements` -- linear elements and source waveforms,
* :mod:`repro.circuit.mosfet` -- an analytic square-law MOSFET large-signal
  model with smooth Newton stamps,
* :mod:`repro.circuit.technology` -- 45 nm / 14 nm technology-node parameters,
* :mod:`repro.circuit.netlist` -- the circuit container (nodes, elements,
  SPICE-like export),
* :mod:`repro.circuit.mna` -- the index map of the modified nodal analysis
  unknowns, the Newton constants and the band layout of large systems,
* :mod:`repro.circuit.batched` -- the stacked circuit kernel, the one MNA
  assembler and Newton loop: same-topology circuits solved as one stack,
  bit-identical to one-job stacks; circuits of 64 or more unknowns (long
  ladders) in band storage,
* :mod:`repro.circuit.dc` -- DC operating point, a one-job DC stack,
* :mod:`repro.circuit.transient` -- backward-Euler / trapezoidal transient,
  a one-job transient stack,
* :mod:`repro.circuit.inverter` -- CMOS inverter cells and chains,
* :mod:`repro.circuit.rcline` -- distributed RC ladder expansion of
  interconnect lines,
* :mod:`repro.circuit.delay` -- propagation-delay and slew measurement,
* :mod:`repro.circuit.crosstalk` -- victim/aggressor noise and push-out.

The storage layout follows circuit size alone; no entry point takes a
solver or Newton argument (the Newton constants live in
:mod:`repro.circuit.mna`).  A Newton solve that does not converge raises
:class:`~repro.circuit.mna.ConvergenceError`.
"""

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    PieceWiseLinear,
    Pulse,
    Resistor,
    Step,
    VoltageSource,
)
from repro.circuit.mna import ConvergenceError
from repro.circuit.netlist import Circuit
from repro.circuit.mosfet import MOSFET, MOSFETParameters
from repro.circuit.technology import TechnologyNode, NODE_45NM, NODE_14NM
from repro.circuit.inverter import Inverter
from repro.circuit.dc import dc_operating_point
from repro.circuit.transient import TransientResult, transient_analysis
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.delay import (
    crossing_time,
    propagation_delay,
    rise_time,
    measure_inverter_line_delay,
)

__all__ = [
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Step",
    "Pulse",
    "PieceWiseLinear",
    "Circuit",
    "ConvergenceError",
    "MOSFET",
    "MOSFETParameters",
    "TechnologyNode",
    "NODE_45NM",
    "NODE_14NM",
    "Inverter",
    "dc_operating_point",
    "transient_analysis",
    "TransientResult",
    "add_rc_ladder",
    "crossing_time",
    "propagation_delay",
    "rise_time",
    "measure_inverter_line_delay",
]

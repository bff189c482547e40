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
* :mod:`repro.circuit.mna` -- modified nodal analysis assembly (dense),
* :mod:`repro.circuit.compiled` -- compiled sparse stamping with
  factorization reuse, for circuits of 64 or more unknowns (long ladders;
  every paper-default circuit has 14-30 unknowns and stays dense),
* :mod:`repro.circuit.dc` -- Newton DC operating point,
* :mod:`repro.circuit.transient` -- backward-Euler / trapezoidal transient,
* :mod:`repro.circuit.batched` -- same-topology transients solved as one
  stack, bit-identical to per-job runs,
* :mod:`repro.circuit.inverter` -- CMOS inverter cells and chains,
* :mod:`repro.circuit.rcline` -- distributed RC ladder expansion of
  interconnect lines,
* :mod:`repro.circuit.delay` -- propagation-delay and slew measurement,
* :mod:`repro.circuit.crosstalk` -- victim/aggressor noise and push-out.

The solver backend is picked by circuit size
(:func:`~repro.circuit.compiled.resolve_backend`); no entry point takes a
per-call backend or Newton argument (the Newton tolerance, damping and
iteration caps are constants of :mod:`repro.circuit.mna`).  Tests and
benchmarks force a backend for a whole block with
:func:`~repro.circuit.compiled.solver_backend`, the only solver override.
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
from repro.circuit.compiled import (
    SPARSE_SIZE_THRESHOLD,
    CompiledMNA,
    resolve_backend,
    solver_backend,
)
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
    "CompiledMNA",
    "SPARSE_SIZE_THRESHOLD",
    "resolve_backend",
    "solver_backend",
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

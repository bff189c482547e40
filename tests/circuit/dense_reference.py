"""Dense reference circuit analyses: the oracle of the stacked kernel.

:class:`DenseAssembler` is the scalar MNA assembler the stacked kernel
(:class:`repro.circuit.batched._Batch`) replays: one Python statement per
matrix entry, with :class:`CompanionState` carried between time steps by
:meth:`DenseAssembler.update_state`.  On it run the scalar dense transient
and DC analyses: :meth:`DenseAssembler.assemble` plus ``np.linalg.solve``
at every Newton iteration, at any size.  (The DC analysis sizes its guess
by ``dc_size``, since a DC inductor is a zero-volt branch.)  Below
:data:`repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns they are the library
path bit for bit; above it the library solves in band storage and the tests
hold it to these analyses within 1e-9.  ``crosstalk_reference.py`` and the
reference sides of ``benchmarks/perf/harness.py`` run on them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from repro.circuit.dc import DCResult
from repro.circuit.delay import (
    DelayMeasurement,
    _build_delay_benchmark,
    _measure_from_result,
    measure_inverter_line_delay,
)
from repro.circuit.mna import (
    DC_NEWTON_ITERATIONS,
    GMIN,
    NEWTON_DAMPING_LIMIT,
    NEWTON_TOLERANCE,
    TRANSIENT_NEWTON_ITERATIONS,
    MNAAssembler,
)
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult, validate_transient_args
from repro.core import InterconnectLine


@dataclass
class CompanionState:
    """Dynamic-element state carried between transient time steps.

    Attributes
    ----------
    capacitor_voltages:
        Voltage across each capacitor at the previous accepted time point.
    capacitor_currents:
        Current through each capacitor at the previous accepted time point
        (needed by the trapezoidal rule).
    inductor_currents:
        Current through each inductor at the previous accepted time point.
    inductor_voltages:
        Voltage across each inductor at the previous accepted time point.
    """

    capacitor_voltages: dict[str, float]
    capacitor_currents: dict[str, float]
    inductor_currents: dict[str, float]
    inductor_voltages: dict[str, float]

    @classmethod
    def initial(cls, circuit: Circuit) -> "CompanionState":
        """State before the first time step (element initial conditions)."""
        return cls(
            capacitor_voltages={c.name: c.initial_voltage for c in circuit.capacitors},
            capacitor_currents={c.name: 0.0 for c in circuit.capacitors},
            inductor_currents={l.name: l.initial_current for l in circuit.inductors},
            inductor_voltages={l.name: 0.0 for l in circuit.inductors},
        )


class DenseAssembler(MNAAssembler):
    """Maps a circuit onto dense MNA matrices."""

    def node_voltage(self, solution: np.ndarray, name: str) -> float:
        """Voltage of a node in a solution vector (0 for ground)."""
        index = self.node_index(name)
        return 0.0 if index is None else float(solution[index])

    # --- stamping helpers ----------------------------------------------------------------

    @staticmethod
    def _stamp_conductance(matrix: np.ndarray, a: int | None, b: int | None, g: float) -> None:
        if a is not None:
            matrix[a, a] += g
        if b is not None:
            matrix[b, b] += g
        if a is not None and b is not None:
            matrix[a, b] -= g
            matrix[b, a] -= g

    @staticmethod
    def _stamp_branch(matrix: np.ndarray, row: int, p: int | None, n: int | None) -> None:
        """Stamp the incidence of a branch current (unknown ``row``) flowing
        from node ``p`` through the branch to node ``n``."""
        if p is not None:
            matrix[p, row] += 1.0
            matrix[row, p] += 1.0
        if n is not None:
            matrix[n, row] -= 1.0
            matrix[row, n] -= 1.0

    @staticmethod
    def _stamp_current(rhs: np.ndarray, a: int | None, b: int | None, current: float) -> None:
        """Stamp a current source pushing ``current`` from node ``a`` into node ``b``."""
        if a is not None:
            rhs[a] -= current
        if b is not None:
            rhs[b] += current

    # --- assembly -----------------------------------------------------------------------------

    def assemble(
        self,
        time: float,
        guess: np.ndarray,
        state: CompanionState | None = None,
        dt: float | None = None,
        method: str = "trapezoidal",
        capacitors_open: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the linearised MNA system ``A x = b``.

        Parameters
        ----------
        time:
            Simulation time used to evaluate source waveforms.
        guess:
            Current Newton estimate of the solution vector (used to linearise
            the MOSFETs).
        state:
            Previous-step dynamic state; required unless ``capacitors_open``.
        dt:
            Time-step size; required unless ``capacitors_open``.
        method:
            ``"trapezoidal"`` or ``"backward_euler"`` companion models.
        capacitors_open:
            DC mode -- capacitors are removed and inductors become shorts:
            zero-volt branches whose currents follow the voltage-source
            currents, so the system has :attr:`dc_size` unknowns.
        """
        if method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {method!r}")
        if not capacitors_open and (state is None or dt is None or dt <= 0):
            raise ValueError("transient assembly needs a previous state and a positive dt")

        size = self.dc_size if capacitors_open else self.size
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)

        # gmin keeps nodes that are only touched by gates / open capacitors regular.
        for i in range(self.n_nodes):
            matrix[i, i] += GMIN

        for resistor in self.circuit.resistors:
            self._stamp_conductance(
                matrix,
                self.node_index(resistor.a),
                self.node_index(resistor.b),
                1.0 / resistor.resistance,
            )

        for capacitor in self.circuit.capacitors:
            if capacitors_open or capacitor.capacitance == 0.0:
                continue
            a = self.node_index(capacitor.a)
            b = self.node_index(capacitor.b)
            v_prev = state.capacitor_voltages[capacitor.name]
            i_prev = state.capacitor_currents[capacitor.name]
            if method == "backward_euler":
                geq = capacitor.capacitance / dt
                ieq = geq * v_prev
            else:
                geq = 2.0 * capacitor.capacitance / dt
                ieq = geq * v_prev + i_prev
            self._stamp_conductance(matrix, a, b, geq)
            # The companion current source pushes ieq from b into a (it opposes
            # the conductance term so that v = v_prev gives zero current).
            self._stamp_current(rhs, b, a, ieq)

        for position, inductor in enumerate(self.circuit.inductors):
            a = self.node_index(inductor.a)
            b = self.node_index(inductor.b)
            if capacitors_open:
                # DC: an inductor is a short, a zero-volt branch.
                self._stamp_branch(matrix, self.size + position, a, b)
                continue
            i_prev = state.inductor_currents[inductor.name]
            v_prev = state.inductor_voltages[inductor.name]
            if method == "backward_euler":
                geq = dt / inductor.inductance
                ieq = i_prev
            else:
                geq = dt / (2.0 * inductor.inductance)
                ieq = i_prev + geq * v_prev
            self._stamp_conductance(matrix, a, b, geq)
            self._stamp_current(rhs, a, b, ieq)

        for source in self.circuit.current_sources:
            self._stamp_current(
                rhs,
                self.node_index(source.positive),
                self.node_index(source.negative),
                source.value(time),
            )

        for position, source in enumerate(self.circuit.voltage_sources):
            row = self.vsource_index(position)
            self._stamp_branch(
                matrix, row, self.node_index(source.positive), self.node_index(source.negative)
            )
            rhs[row] += source.value(time)

        for mosfet in self.circuit.mosfets:
            d = self.node_index(mosfet.drain)
            g = self.node_index(mosfet.gate)
            s = self.node_index(mosfet.source)
            v_d = 0.0 if d is None else guess[d]
            v_g = 0.0 if g is None else guess[g]
            v_s = 0.0 if s is None else guess[s]
            i_ds, gm, gds = mosfet.evaluate(v_g - v_s, v_d - v_s)

            # Linearised drain current:
            # i = i_ds + gm (v_gs - v_gs0) + gds (v_ds - v_ds0)
            #   = gm v_g + gds v_d - (gm + gds) v_s + i_eq
            i_eq = i_ds - gm * (v_g - v_s) - gds * (v_d - v_s)

            # Conductance part: current leaves the drain node, enters the source node.
            if d is not None:
                if g is not None:
                    matrix[d, g] += gm
                if d is not None:
                    matrix[d, d] += gds
                if s is not None:
                    matrix[d, s] -= gm + gds
            if s is not None:
                if g is not None:
                    matrix[s, g] -= gm
                if d is not None:
                    matrix[s, d] -= gds
                matrix[s, s] += gm + gds
            # Constant part of the linearisation acts like a current source
            # pushing i_eq from drain into source.
            self._stamp_current(rhs, d, s, i_eq)

        return matrix, rhs

    # --- dynamic-state update ----------------------------------------------------------------------

    def update_state(
        self,
        solution: np.ndarray,
        state: CompanionState,
        dt: float,
        method: str = "trapezoidal",
    ) -> CompanionState:
        """Compute the dynamic-element state after an accepted time step."""
        new_cap_v: dict[str, float] = {}
        new_cap_i: dict[str, float] = {}
        for capacitor in self.circuit.capacitors:
            v_now = self.node_voltage(solution, capacitor.a) - self.node_voltage(
                solution, capacitor.b
            )
            v_prev = state.capacitor_voltages[capacitor.name]
            i_prev = state.capacitor_currents[capacitor.name]
            if method == "backward_euler":
                i_now = capacitor.capacitance / dt * (v_now - v_prev)
            else:
                i_now = 2.0 * capacitor.capacitance / dt * (v_now - v_prev) - i_prev
            new_cap_v[capacitor.name] = v_now
            new_cap_i[capacitor.name] = i_now

        new_ind_i: dict[str, float] = {}
        new_ind_v: dict[str, float] = {}
        for inductor in self.circuit.inductors:
            v_now = self.node_voltage(solution, inductor.a) - self.node_voltage(
                solution, inductor.b
            )
            i_prev = state.inductor_currents[inductor.name]
            v_prev = state.inductor_voltages[inductor.name]
            if method == "backward_euler":
                i_now = i_prev + dt / inductor.inductance * v_now
            else:
                i_now = i_prev + dt / (2.0 * inductor.inductance) * (v_now + v_prev)
            new_ind_i[inductor.name] = i_now
            new_ind_v[inductor.name] = v_now

        return CompanionState(
            capacitor_voltages=new_cap_v,
            capacitor_currents=new_cap_i,
            inductor_currents=new_ind_i,
            inductor_voltages=new_ind_v,
        )


def dense_newton_solve(
    assembler: DenseAssembler,
    time: float,
    initial_guess: np.ndarray,
    state: CompanionState | None = None,
    dt: float | None = None,
    method: str = "trapezoidal",
    capacitors_open: bool = False,
    max_iterations: int = TRANSIENT_NEWTON_ITERATIONS,
) -> np.ndarray:
    """Newton-Raphson solve with a dense ``np.linalg.solve`` per iteration."""
    solution = initial_guess.astype(float).copy()
    nonlinear = bool(assembler.circuit.mosfets)

    for _ in range(max_iterations):
        matrix, rhs = assembler.assemble(
            time, solution, state=state, dt=dt, method=method, capacitors_open=capacitors_open
        )
        try:
            new_solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as error:
            raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error

        if not nonlinear:
            # Linear circuits are solved exactly in one step; damping would
            # only distort the solution.
            return new_solution

        delta = new_solution - solution
        max_delta = float(np.max(np.abs(delta))) if delta.size else 0.0
        if max_delta > NEWTON_DAMPING_LIMIT:
            delta *= NEWTON_DAMPING_LIMIT / max_delta
            solution = solution + delta
        else:
            solution = new_solution

        if max_delta < NEWTON_TOLERANCE:
            return solution

    raise RuntimeError(
        f"Newton iteration did not converge at t={time} after {max_iterations} iterations"
    )


def dense_dc_operating_point(circuit: Circuit, time: float = 0.0) -> DCResult:
    """DC operating point through :func:`dense_newton_solve`."""
    assembler = DenseAssembler(circuit)
    if assembler.size == 0:
        return DCResult(node_voltages={}, source_currents={})

    guess = np.zeros(assembler.dc_size)
    # A supply-aware starting guess speeds up and stabilises CMOS circuits:
    # start every node halfway to the largest DC source magnitude.
    supply_levels = [abs(v.value(time)) for v in circuit.voltage_sources]
    if supply_levels:
        guess[: assembler.n_nodes] = 0.5 * max(supply_levels)

    solution = dense_newton_solve(
        assembler,
        time,
        guess,
        capacitors_open=True,
        max_iterations=DC_NEWTON_ITERATIONS,
    )

    node_voltages = {
        name: float(solution[assembler.node_index(name)]) for name in assembler.node_names
    }
    source_currents = {
        source.name: float(solution[assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return DCResult(node_voltages=node_voltages, source_currents=source_currents)


def dense_transient_analysis(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    method: str = "trapezoidal",
    use_dc_start: bool = True,
) -> TransientResult:
    """Fixed-step transient: dense assembly and solve at every step."""
    validate_transient_args(stop_time, time_step, method)

    assembler = DenseAssembler(circuit)
    n_steps = int(round(stop_time / time_step))
    times = np.linspace(0.0, n_steps * time_step, n_steps + 1)

    solution = np.zeros(assembler.size)
    state = CompanionState.initial(circuit)

    if use_dc_start and assembler.size > 0:
        dc = dense_dc_operating_point(circuit, time=0.0)
        for name, voltage in dc.node_voltages.items():
            solution[assembler.node_index(name)] = voltage
        for position, source in enumerate(circuit.voltage_sources):
            solution[assembler.vsource_index(position)] = dc.source_currents[source.name]
        # Capacitors start charged to their DC voltages.
        state = CompanionState(
            capacitor_voltages={
                c.name: dc.voltage(c.a) - dc.voltage(c.b) for c in circuit.capacitors
            },
            capacitor_currents={c.name: 0.0 for c in circuit.capacitors},
            inductor_currents={l.name: 0.0 for l in circuit.inductors},
            inductor_voltages={l.name: 0.0 for l in circuit.inductors},
        )

    trace = np.empty((n_steps + 1, assembler.size))
    trace[0] = solution
    for step in range(1, n_steps + 1):
        solution = dense_newton_solve(
            assembler, times[step], solution, state=state, dt=time_step, method=method
        )
        state = assembler.update_state(solution, state, time_step, method=method)
        trace[step] = solution

    voltages = {
        name: np.ascontiguousarray(trace[:, assembler.node_index(name)])
        for name in assembler.node_names
    }
    currents = {
        source.name: np.ascontiguousarray(trace[:, assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return TransientResult(times=times, node_voltages=voltages, source_currents=currents)


def dense_inverter_line_delay(
    line: InterconnectLine, n_time_steps: int, run_steps: int | None = None
) -> DelayMeasurement:
    """:func:`~repro.circuit.delay.measure_inverter_line_delay` at its
    default settings, with the transient run by :func:`dense_transient_analysis`.

    The oracle runs the whole window, where the library stops at the far
    end's 50 % crossing, so its delay also checks that the stop changes no
    bit; its ``result`` is the whole window.  ``run_steps`` ends the run at
    that step of the same time grid instead: a benchmark times the oracle
    over the steps the library ran."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(measure_inverter_line_delay).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    circuit, stop_time, time_step, v_dd = _build_delay_benchmark(
        line,
        technology=defaults["technology"],
        driver_size=defaults["driver_size"],
        receiver_size=defaults["receiver_size"],
        input_rise_time=defaults["input_rise_time"],
        rising_input=defaults["rising_input"],
        simulation_margin=defaults["simulation_margin"],
        n_time_steps=n_time_steps,
    )
    if run_steps is not None:
        stop_time = run_steps * time_step
    result = dense_transient_analysis(circuit, stop_time, time_step, method=defaults["method"])
    return _measure_from_result(result, v_dd)

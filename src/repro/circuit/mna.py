"""Modified nodal analysis (MNA) assembly (dense reference path).

The assembler maps a :class:`~repro.circuit.netlist.Circuit` onto the dense
MNA matrix equation ``A x = b`` where ``x`` stacks the non-ground node
voltages followed by the branch currents of the independent voltage sources.
Nonlinear MOSFETs are handled by Newton iteration: each call to
:meth:`MNAAssembler.assemble` linearises them around the supplied operating
point, so repeated solves converge to the nonlinear solution.

This is the *reference* implementation: every stamp is written out
explicitly, one Python statement per matrix entry, which makes it the
ground truth the compiled sparse path
(:class:`repro.circuit.compiled.CompiledMNA` -- topology compiled once,
values refreshed per step, LU factorizations reused) is parity-tested
against.  It is also the faster backend below
:data:`~repro.circuit.compiled.SPARSE_SIZE_THRESHOLD` unknowns, where a
dense LAPACK solve on a contiguous array beats any sparse setup, so
:func:`repro.circuit.transient.transient_analysis` still routes small
circuits (and :mod:`repro.circuit.dc` all one-shot DC solves) through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit, is_ground

GMIN = 1.0e-12
"""Minimum conductance from every node to ground (keeps matrices regular)."""

NEWTON_TOLERANCE = 1.0e-9
"""Newton convergence threshold on the infinity norm of the update (volt)."""

NEWTON_DAMPING_LIMIT = 1.0
"""Maximum per-iteration change of any unknown (volt / ampere); larger
proposed updates are scaled down, which stabilises the MOSFET exponential
sub-threshold region."""

TRANSIENT_NEWTON_ITERATIONS = 60
"""Newton iteration cap per transient time step."""

DC_NEWTON_ITERATIONS = 200
"""Newton iteration cap of a DC operating-point solve."""


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


class MNAAssembler:
    """Maps a circuit onto dense MNA matrices."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self._node_index = {name: i for i, name in enumerate(self.node_names)}
        self.n_nodes = len(self.node_names)
        self.n_vsources = len(circuit.voltage_sources)
        self.size = self.n_nodes + self.n_vsources

    # --- index helpers --------------------------------------------------------------

    def node_index(self, name: str) -> int | None:
        """Matrix row/column of a node, or None for ground."""
        if is_ground(name):
            return None
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"node {name!r} is not part of the circuit") from None

    def vsource_index(self, position: int) -> int:
        """Matrix row/column of the ``position``-th voltage-source branch current."""
        return self.n_nodes + position

    def node_voltage(self, solution: np.ndarray, name: str) -> float:
        """Voltage of a node in a solution vector (0 for ground)."""
        index = self.node_index(name)
        return 0.0 if index is None else float(solution[index])

    def branch_current(self, solution: np.ndarray, source_name: str) -> float:
        """Current through a named voltage source in a solution vector."""
        for position, source in enumerate(self.circuit.voltage_sources):
            if source.name == source_name:
                return float(solution[self.vsource_index(position)])
        raise KeyError(f"no voltage source named {source_name!r}")

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
            DC mode -- capacitors are removed and inductors become shorts
            (modelled as very large conductances).
        """
        if method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {method!r}")
        if not capacitors_open and (state is None or dt is None or dt <= 0):
            raise ValueError("transient assembly needs a previous state and a positive dt")

        matrix = np.zeros((self.size, self.size))
        rhs = np.zeros(self.size)

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

        for inductor in self.circuit.inductors:
            a = self.node_index(inductor.a)
            b = self.node_index(inductor.b)
            if capacitors_open:
                # DC: an inductor is a short; model as a large conductance.
                self._stamp_conductance(matrix, a, b, 1.0e9)
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
            p = self.node_index(source.positive)
            n = self.node_index(source.negative)
            if p is not None:
                matrix[p, row] += 1.0
                matrix[row, p] += 1.0
            if n is not None:
                matrix[n, row] -= 1.0
                matrix[row, n] -= 1.0
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


def newton_solve(
    assembler: MNAAssembler,
    time: float,
    initial_guess: np.ndarray,
    state: CompanionState | None = None,
    dt: float | None = None,
    method: str = "trapezoidal",
    capacitors_open: bool = False,
    max_iterations: int = TRANSIENT_NEWTON_ITERATIONS,
) -> np.ndarray:
    """Newton-Raphson solve of the (possibly nonlinear) MNA system.

    Parameters
    ----------
    assembler:
        The circuit's :class:`MNAAssembler`.
    time:
        Simulation time for source evaluation.
    initial_guess:
        Starting solution vector (previous time point or zeros).
    state, dt, method, capacitors_open:
        Passed through to :meth:`MNAAssembler.assemble`.
    max_iterations:
        Newton iteration cap (:data:`TRANSIENT_NEWTON_ITERATIONS` or
        :data:`DC_NEWTON_ITERATIONS`).  Damping and the convergence test
        follow :data:`NEWTON_DAMPING_LIMIT` and :data:`NEWTON_TOLERANCE`.

    Raises
    ------
    RuntimeError
        If the iteration does not converge.
    """
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

"""Modified nodal analysis (MNA) assembly, Newton solve and band layout.

The assembler maps a :class:`~repro.circuit.netlist.Circuit` onto the dense
MNA matrix equation ``A x = b`` where ``x`` stacks the non-ground node
voltages followed by the branch currents of the independent voltage sources
(and, in DC, of the inductors, which are shorts).
Nonlinear MOSFETs are handled by Newton iteration: each call to
:meth:`MNAAssembler.assemble` linearises them around the supplied operating
point, so repeated solves converge to the nonlinear solution.

Every stamp is written out explicitly, one Python statement per matrix
entry: the ground truth the stacked kernel (:mod:`repro.circuit.batched`)
replays bit for bit.  From :data:`BAND_SIZE_THRESHOLD` unknowns on, systems
are solved in LAPACK band storage (:class:`BandLayout`).
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

BAND_SIZE_THRESHOLD = 64
"""Number of MNA unknowns from which a system is stored and solved in band
form (:class:`BandLayout`).  Below it a dense LAPACK solve wins; every
paper-default circuit has 14-30 unknowns.  Read only through :func:`uses_band`."""


def uses_band(size: int) -> bool:
    """Whether a system of ``size`` unknowns takes the band layout."""
    return size >= BAND_SIZE_THRESHOLD


class ConvergenceError(RuntimeError):
    """Newton iteration hit its cap without meeting :data:`NEWTON_TOLERANCE`.

    ``time`` is the simulation time of the failing solve (second),
    ``iterations`` the cap reached, ``max_delta`` the largest ``|delta|`` of
    the last iteration and ``size`` the number of unknowns.
    """

    def __init__(self, time: float, iterations: int, max_delta: float, size: int):
        super().__init__(
            f"Newton iteration did not converge at t={time} after {iterations} "
            f"iterations (max |delta| {max_delta:.3e}, {size} unknowns)"
        )
        self.time = time
        self.iterations = iterations
        self.max_delta = max_delta
        self.size = size


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
        # A DC solve shorts every inductor through a zero-volt branch, whose
        # current is one more unknown after the voltage-source currents.
        self.dc_size = self.size + len(circuit.inductors)

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


class BandLayout:
    """LAPACK band storage of one circuit's MNA matrix.

    The unknowns are ordered once by reverse Cuthill-McKee over every
    coordinate a stamp can touch: the static element pattern plus the MOSFET
    terminal couplings.  Under that ordering entry ``(i, j)`` lives in row
    ``kl + ku + i - j`` of the ``(2 kl + ku + 1, size)`` array LAPACK's band
    routines take; its first ``kl`` rows are pivoting workspace.  Each band
    array is held transposed, as a C-order ``(size, rows)`` block, which is
    LAPACK's column-major layout, so it reaches LAPACK without a copy.
    Right-hand sides and solutions stay in the assembler's order; only
    :meth:`solve` and :meth:`refine` permute.  ``capacitors_open`` selects the DC system of
    :meth:`MNAAssembler.assemble`, with its inductor branches.
    """

    def __init__(self, assembler: MNAAssembler, capacitors_open: bool = False):
        from scipy.linalg.lapack import dgbsv, dgbtrs
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        self._dgbsv, self._dgbtrs = dgbsv, dgbtrs
        self.size = size = assembler.dc_size if capacitors_open else assembler.size
        rows, cols = self._stamp_pattern(assembler, capacitors_open)
        graph = coo_matrix(
            (np.ones(2 * rows.size), (np.r_[rows, cols], np.r_[cols, rows])),
            shape=(size, size),
        ).tocsr()
        self.order = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
        self.position = np.empty(size, dtype=np.intp)
        self.position[self.order] = np.arange(size)
        offsets = self.position[rows] - self.position[cols]
        self.kl = int(offsets.max(initial=0))
        self.ku = int(-offsets.min(initial=0))
        self.rows = 2 * self.kl + self.ku + 1
        # The stamp pattern plus the diagonal, sorted by row: every row has
        # an entry, so ``refine`` sums each row's products by ``reduceat``.
        diagonal = np.arange(size)
        keys = np.unique(np.r_[rows, diagonal] * size + np.r_[cols, diagonal])
        pattern_rows, self._pattern_columns = np.divmod(keys, size)
        self._pattern_cells = self.index(pattern_rows, self._pattern_columns)
        self._row_starts = np.flatnonzero(np.diff(pattern_rows, prepend=-1))

    @staticmethod
    def _stamp_pattern(
        assembler: MNAAssembler, capacitors_open: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of every matrix entry a stamp can touch."""
        index = assembler.node_index
        circuit = assembler.circuit
        entries = [(i, i) for i in range(assembler.n_nodes)]
        branches = [
            (assembler.vsource_index(position), source.positive, source.negative)
            for position, source in enumerate(circuit.voltage_sources)
        ]
        two_terminal = circuit.resistors + circuit.capacitors
        if capacitors_open:
            branches += [
                (assembler.size + position, inductor.a, inductor.b)
                for position, inductor in enumerate(circuit.inductors)
            ]
        else:
            two_terminal = two_terminal + circuit.inductors
        for element in two_terminal:
            nodes = [n for n in (index(element.a), index(element.b)) if n is not None]
            entries += [(x, y) for x in nodes for y in nodes]
        for row, positive, negative in branches:
            for node in (index(positive), index(negative)):
                if node is not None:
                    entries += [(node, row), (row, node)]
        for mosfet in circuit.mosfets:
            d, g, s = index(mosfet.drain), index(mosfet.gate), index(mosfet.source)
            entries += [
                (x, y) for x in (d, s) for y in (d, g, s) if x is not None and y is not None
            ]
        pattern = np.array(entries, dtype=np.intp).reshape(-1, 2)
        return pattern[:, 0], pattern[:, 1]

    def index(self, row, col):
        """Flat position of matrix entry ``(row, col)`` in a band array
        (elementwise for index arrays)."""
        i, j = self.position[row], self.position[col]
        return j * self.rows + self.kl + self.ku + i - j

    def gather(self, matrix: np.ndarray) -> np.ndarray:
        """Band array of a dense ``(size, size)`` matrix, whose nonzeros all
        lie on the stamp pattern."""
        rows, cols = np.nonzero(matrix)
        band = np.zeros(self.size * self.rows)
        band[self.index(rows, cols)] = matrix[rows, cols]
        return band

    def solve(
        self,
        bands: np.ndarray,
        rhs: np.ndarray,
        factors: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Solve ``A_k x_k = rhs_k`` for a stack of band arrays (left
        unchanged) and right-hand sides, ``(jobs, size)``.

        One ``dgbsv`` per job; given the ``factors`` an earlier call
        returned for the same ``bands``, one ``dgbtrs`` instead.  Returns
        the solutions and the LU factors.  Raises
        :class:`numpy.linalg.LinAlgError` for a singular matrix, like
        :func:`numpy.linalg.solve`.
        """
        b = rhs[:, self.order]
        if factors is not None:
            return self._unpermute(self._substitute(factors, b)), factors
        factors, x = [], []
        for band, column in zip(bands, b):
            lu, pivots, solution, info = self._dgbsv(
                self.kl, self.ku, band.reshape(self.size, self.rows).T, column
            )
            if info > 0:
                raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
            factors.append((lu, pivots))
            x.append(solution)
        return self._unpermute(np.array(x)), factors

    def entries(self, bands: np.ndarray) -> np.ndarray:
        """Every stamp-pattern entry of each band array, in extended
        precision (``np.longdouble``): the matrix :meth:`refine` takes."""
        return bands[:, self._pattern_cells].astype(np.longdouble)

    def refine(
        self,
        entries: np.ndarray,
        rhs: np.ndarray,
        solutions: np.ndarray,
        factors: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """One step of iterative refinement of :meth:`solve`'s ``solutions``
        for matrices given by their :meth:`entries`.

        The residual is accumulated in extended precision, so the refined
        result is the solution of the stamped system to within a few units
        in the last place, whatever the elimination order: the rounding
        error the band ordering adds is removed.  (Where ``np.longdouble``
        is plain double precision the step still runs, with less to gain.)
        """
        product = np.add.reduceat(
            entries * solutions[:, self._pattern_columns], self._row_starts, axis=1
        )
        residual = (rhs - product).astype(float)
        return solutions + self._unpermute(self._substitute(factors, residual[:, self.order]))

    def _substitute(self, factors, b: np.ndarray) -> np.ndarray:
        """Forward and back substitution through each job's LU factors."""
        return np.array(
            [
                self._dgbtrs(lu, self.kl, self.ku, column, pivots)[0]
                for (lu, pivots), column in zip(factors, b)
            ]
        )

    def _unpermute(self, x: np.ndarray) -> np.ndarray:
        solutions = np.empty_like(x)
        solutions[:, self.order] = x
        return solutions


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
        Starting solution vector (previous time point or zeros), of
        :attr:`MNAAssembler.dc_size` unknowns when ``capacitors_open``.
    state, dt, method, capacitors_open:
        Passed through to :meth:`MNAAssembler.assemble`.
    max_iterations:
        Newton iteration cap (:data:`TRANSIENT_NEWTON_ITERATIONS` or
        :data:`DC_NEWTON_ITERATIONS`).  Damping and the convergence test
        follow :data:`NEWTON_DAMPING_LIMIT` and :data:`NEWTON_TOLERANCE`;
        the linear solve is :func:`numpy.linalg.solve` below
        :data:`BAND_SIZE_THRESHOLD` unknowns and :meth:`BandLayout.solve`
        from it on.

    Raises
    ------
    ConvergenceError
        If the iteration does not converge (a :class:`RuntimeError`, like
        the one raised for a singular matrix).
    """
    solution = initial_guess.astype(float).copy()
    nonlinear = bool(assembler.circuit.mosfets)
    size = assembler.dc_size if capacitors_open else assembler.size
    band = BandLayout(assembler, capacitors_open) if uses_band(size) else None
    max_delta = float("nan")

    for _ in range(max_iterations):
        matrix, rhs = assembler.assemble(
            time, solution, state=state, dt=dt, method=method, capacitors_open=capacitors_open
        )
        try:
            if band is None:
                new_solution = np.linalg.solve(matrix, rhs)
            else:
                bands = band.gather(matrix)[None]
                stacked, factors = band.solve(bands, rhs[None])
                new_solution = stacked[0]
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
            if band is not None:
                # The accepted iterate of a nonlinear band solve is refined.
                solution = band.refine(band.entries(bands), rhs[None], stacked, factors)[0]
            return solution

    raise ConvergenceError(time, max_iterations, max_delta, size)

"""Modified nodal analysis (MNA): index map, Newton constants and band layout.

:class:`MNAAssembler` maps a :class:`~repro.circuit.netlist.Circuit` onto the
unknowns of the MNA equation ``A x = b``: the non-ground node voltages
followed by the branch currents of the independent voltage sources (and, in
DC, of the inductors, which are shorts).  The stacked kernel
(:class:`repro.circuit.batched._Batch`) stamps and solves the matrices; its
Newton loop follows the constants here.  From :data:`BAND_SIZE_THRESHOLD`
unknowns on, systems are solved in LAPACK band storage (:class:`BandLayout`).
"""

from __future__ import annotations

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


class MNAAssembler:
    """Index map of a circuit's MNA unknowns."""

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
    :meth:`solve` and :meth:`refine` permute.  ``capacitors_open`` selects
    the DC system, with its inductor branches.
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

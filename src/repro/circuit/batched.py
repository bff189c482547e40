"""The stacked circuit kernel: the one MNA assembler and Newton loop.

Sweep points over one interconnect topology differ only in element *values*
-- the MNA pattern, node numbering and step count are identical -- so this
module evaluates a whole batch of such circuits in lockstep, and a single
circuit as a batch of one:

* the static part of every MNA matrix (GMIN, resistors, companion
  conductances, voltage-source and DC inductor rows) is built **once** into
  a stacked array;
* the MOSFET linearisation runs once per Newton iteration over an
  ``(active jobs x devices)`` array (:func:`repro.circuit.mosfet.evaluate_stack`)
  and is stamped by ordered ``np.add.at`` calls through precomputed flat
  indices; the companion and source terms of the right-hand side are one
  ``np.bincount`` per step;
* the Newton bookkeeping (per-row max |delta|, damping, the set of rows
  still iterating) and the companion-state update are array operations.

One stamping builder makes either system: the transient one, or the DC one
(capacitors open, inductors zero-volt branches).  One Newton method solves
each transient step and the DC operating point; a stack computes the DC
start of all its jobs together.  :func:`~repro.circuit.dc.dc_operating_point`
and :func:`~repro.circuit.transient.transient_analysis` are one-job stacks.

Below :data:`~repro.circuit.mna.BAND_SIZE_THRESHOLD` unknowns each job
holds a dense matrix and all jobs are solved by one stacked
``np.linalg.solve``.  From the threshold on each job holds its matrix in
LAPACK band storage (:class:`repro.circuit.mna.BandLayout`): one ``dgbsv``
per active job, a refined solve for each accepted Newton iterate, and a
linear circuit factorized once.

**Bitwise identity is a hard contract** for the dense layout: it replays
the floating-point statement sequence of the scalar dense assembler and
Newton loop kept as the test oracle (``tests/circuit/dense_reference.py``)
over the batch axis (the rules are in ``docs/PERFORMANCE.md``), so a job's
bits never depend on the stack it runs in.  The band layout stamps the same
terms in the same order but eliminates in another order, so it agrees with
the dense path to solver precision (the tests hold it to 1e-9).

Jobs are grouped by a structural signature (matrix size, element topology,
zero-capacitance pattern, step count, method); singleton groups, and every
job of a group whose stacked solve fails, run as one-job stacks, so
batching can change performance but never results.  A stack stops once
every job has crossed the levels its caller measures
(:attr:`TransientJob.until`); time marching is causal, so the cut changes
no such crossing.  Stacks run in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit import mna
from repro.circuit.elements import sample_waveform
from repro.circuit.mna import (
    GMIN,
    NEWTON_DAMPING_LIMIT,
    NEWTON_TOLERANCE,
    BandLayout,
    ConvergenceError,
    MNAAssembler,
    uses_band,
)
from repro.circuit.mosfet import evaluate_stack, parameter_stack
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult, validate_transient_args
from repro.obs import metrics
from repro.obs.trace import trace_span


@dataclass(frozen=True)
class TransientJob:
    """One transient analysis to run inside a batch.

    Fields mirror the :func:`~repro.circuit.transient.transient_analysis`
    signature; jobs whose derived step count, method and circuit topology
    match are evaluated together.

    ``until`` is an ordered chain of ``(node, level)`` crossings, in either
    direction, each counted only from the step at which the one before it
    crossed (the ``start_time`` rule of
    :func:`~repro.circuit.delay.propagation_delay`).  A stack whose every
    job has a chain ends at the first step where every chain is complete;
    a stack with any job without one runs to ``stop_time``.
    """

    circuit: Circuit
    stop_time: float
    time_step: float
    method: str = "trapezoidal"
    use_dc_start: bool = True
    until: tuple[tuple[str, float], ...] = ()


def topology_signature(job: TransientJob, assembler: MNAAssembler) -> tuple:
    """Structural key deciding which jobs may share a stacked solve.

    Two jobs with equal signatures stamp the same matrix coordinates in the
    same order for the same number of steps -- only values differ, which is
    exactly what the batched kernel vectorises over.
    """
    circuit = job.circuit
    index = assembler.node_index
    n_steps = int(round(job.stop_time / job.time_step))
    return (
        assembler.size,
        assembler.n_nodes,
        n_steps,
        job.method,
        job.use_dc_start,
        tuple((index(r.a), index(r.b)) for r in circuit.resistors),
        tuple(
            (index(c.a), index(c.b), c.capacitance == 0.0) for c in circuit.capacitors
        ),
        tuple((index(l.a), index(l.b)) for l in circuit.inductors),
        tuple((index(s.positive), index(s.negative)) for s in circuit.current_sources),
        tuple(
            (assembler.vsource_index(p), index(s.positive), index(s.negative))
            for p, s in enumerate(circuit.voltage_sources)
        ),
        tuple((index(m.drain), index(m.gate), index(m.source)) for m in circuit.mosfets),
    )


class _Batch:
    """The stacked MNA system of same-topology circuits: the one assembler
    and the one Newton loop of the circuit solver.

    Given ``time_steps`` (one per circuit) it is the transient system of
    ``method``'s companion models; without them the DC system: capacitors
    open, each inductor a zero-volt branch whose current follows the
    voltage-source currents (:attr:`MNAAssembler.dc_size` unknowns).  Each
    circuit's static matrix is one row of :attr:`static_matrices`: ``size *
    size`` dense entries below the band threshold, a
    :class:`~repro.circuit.mna.BandLayout` array from it on; :meth:`_cell`
    maps a coordinate to its column there.
    """

    def __init__(
        self,
        circuits: list[Circuit],
        time_steps: list[float] | None = None,
        method: str = "trapezoidal",
    ):
        self.circuits = circuits
        self.n_jobs = len(circuits)
        self.assemblers = [MNAAssembler(circuit) for circuit in circuits]
        base = self.assemblers[0]
        capacitors_open = time_steps is None
        self.size = base.dc_size if capacitors_open else base.size
        self.time_steps = time_steps
        self.trapezoidal = method == "trapezoidal"
        self.nonlinear = bool(circuits[0].mosfets)
        self.band = BandLayout(base, capacitors_open) if uses_band(self.size) else None
        self._factors = None

        circuit = circuits[0]
        index = base.node_index
        res_idx = [(index(r.a), index(r.b)) for r in circuit.resistors]
        cap_idx = [(index(c.a), index(c.b)) for c in circuit.capacitors]
        ind_idx = [(index(l.a), index(l.b)) for l in circuit.inductors]
        iso_idx = [(index(s.positive), index(s.negative)) for s in circuit.current_sources]
        self.vso_rows = [base.vsource_index(p) for p in range(len(circuit.voltage_sources))]
        mos_idx = [
            (index(m.drain), index(m.gate), index(m.source)) for m in circuit.mosfets
        ]
        self.mos_params = parameter_stack([[m.parameters for m in c.mosfets] for c in circuits])
        self.mos_terminals = self._padded_columns(mos_idx, 3)
        self.cap_terminals = self._padded_columns(cap_idx, 2)
        self.ind_terminals = self._padded_columns(ind_idx, 2)

        # Element values as (elements x jobs) arrays.  The derived
        # conductances are the scalar expressions of the dense assembler,
        # elementwise, so every job's value is bit-for-bit its own.
        res_g = 1.0 / np.array([[r.resistance for r in c.resistors] for c in circuits]).T
        cap_zero = [c.capacitance == 0.0 for c in circuit.capacitors]
        if not capacitors_open:
            dt = np.array(time_steps)
            cap_c = np.array([[e.capacitance for e in c.capacitors] for c in circuits]).T
            ind_l = np.array([[e.inductance for e in c.inductors] for c in circuits]).T
            if self.trapezoidal:
                self.cap_geq = 2.0 * cap_c / dt
                self.ind_geq = dt / (2.0 * ind_l)
            else:
                self.cap_geq = cap_c / dt
                self.ind_geq = dt / ind_l

        # Static stacked matrix: everything the dense assembler stamps
        # before the MOSFETs, in the same statement order, added by one
        # ordered np.add.at.  Matrix and rhs accumulations never mix
        # targets, so splitting them preserves each entry's accumulation
        # order (hence its bits).
        coordinates: list[tuple[int, int]] = []
        values: list = []

        def stamp(row: int, col: int, value) -> None:
            coordinates.append((row, col))
            values.append(value)

        def stamp_conductance(a: int | None, b: int | None, g) -> None:
            if a is not None:
                stamp(a, a, g)
            if b is not None:
                stamp(b, b, g)
            if a is not None and b is not None:
                stamp(a, b, -g)
                stamp(b, a, -g)

        for i in range(base.n_nodes):
            stamp(i, i, GMIN)
        for (a, b), g in zip(res_idx, res_g):
            stamp_conductance(a, b, g)
        if capacitors_open:
            # DC: capacitors are open, inductors zero-volt branches.
            branches = [(base.size + p, a, b) for p, (a, b) in enumerate(ind_idx)]
            companions, skipped = [], []
        else:
            for (a, b), zero, g in zip(cap_idx, cap_zero, self.cap_geq):
                if not zero:
                    stamp_conductance(a, b, g)
            for (a, b), g in zip(ind_idx, self.ind_geq):
                stamp_conductance(a, b, g)
            branches = []
            # Capacitor p pushes its companion current from b into a,
            # inductor p from a into b.
            companions = [(b, a) for a, b in cap_idx] + ind_idx
            skipped = cap_zero + [False] * len(ind_idx)
        for row, source in zip(self.vso_rows, circuit.voltage_sources):
            branches.append((row, index(source.positive), index(source.negative)))
        for row, p, n in branches:
            if p is not None:
                stamp(p, row, 1.0)
                stamp(row, p, 1.0)
            if n is not None:
                stamp(n, row, -1.0)
                stamp(row, n, -1.0)
        storage = self.size * (self.size if self.band is None else self.band.rows)
        self.static_matrices = np.zeros((self.n_jobs, storage))
        if coordinates:
            rows, cols = np.array(coordinates).T
            table = np.empty((len(values), self.n_jobs))
            for k, value in enumerate(values):
                table[k] = value
            np.add.at(self.static_matrices, (slice(None), self._cell(rows, cols)), table.T)
        if self.nonlinear:
            self._matrix_buffer = np.empty_like(self.static_matrices)

        # Right-hand-side pushes, in the assembler's order: the companion
        # currents, then current source p from a into b.  Entry 2q of the
        # signed current stack is -current q, entry 2q + 1 is +current q.
        pushes = companions + iso_idx
        skipped += [False] * len(iso_idx)
        self.push_cells, self.push_entries = self._signed_targets(
            [
                (node, 2 * q + sign)
                for q, (nodes, skip) in enumerate(zip(pushes, skipped))
                if not skip
                for sign, node in enumerate(nodes)
            ]
        )
        self.push_bins = (np.arange(self.n_jobs)[:, None] * self.size + self.push_cells).ravel()

        # MOSFET stamps in the assembler's order, as (row, column) terminals
        # (0 drain, 1 gate, 2 source) and coefficient k: entry k * devices + p
        # is the k-th of (gm, gds, -(gm + gds), -gm, -gds, gm + gds) of
        # device p.  The constant part i_eq is pushed from drain into source.
        n_mos = len(mos_idx)
        matrix_stamps = []
        rhs_stamps = []
        for p, nodes in enumerate(mos_idx):
            for k, (row, col) in enumerate(((0, 1), (0, 0), (0, 2), (2, 1), (2, 0), (2, 2))):
                if nodes[row] is not None and nodes[col] is not None:
                    matrix_stamps.append((self._cell(nodes[row], nodes[col]), k * n_mos + p))
            rhs_stamps += [(nodes[0], p), (nodes[2], n_mos + p)]
        self.mos_cells, self.mos_entries = self._signed_targets(matrix_stamps)
        self.mos_rhs_cells, self.mos_rhs_entries = self._signed_targets(rhs_stamps)

    def _cell(self, row, col):
        """Column of matrix entry ``(row, col)`` in a job's storage row
        (elementwise for index arrays)."""
        if self.band is None:
            return row * self.size + col
        return self.band.index(row, col)

    @staticmethod
    def _signed_targets(stamps: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """(target, source entry) pairs as index arrays, ground targets dropped."""
        kept = [pair for pair in stamps if pair[0] is not None]
        targets, entries = np.array(kept, dtype=np.intp).reshape(-1, 2).T
        return targets, entries

    def _padded_columns(self, terminals: list[tuple], width: int) -> list[np.ndarray]:
        """Per-terminal node columns into a ground-padded solution.

        Ground maps to the extra slot ``size``, which always holds the 0.0
        the dense assembler uses for a grounded terminal.
        """
        padded = [[self.size if node is None else node for node in nodes] for nodes in terminals]
        return list(np.array(padded, dtype=np.intp).reshape(-1, width).T)

    @staticmethod
    def _branch_voltages(padded: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
        """``v(a) - v(b)`` of every two-terminal element, (elements x jobs)."""
        a, b = columns
        return (padded[:, a] - padded[:, b]).T

    # --- right-hand side and MOSFET stamps ---------------------------------

    def _source_table(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Waveform values of every current and every voltage source at each
        of each job's ``times`` (one row per job), two (times x sources x
        jobs) tables, each value bit for bit its source's ``value(t)``."""
        tables = []
        for kind in ("current_sources", "voltage_sources"):
            per_job = [getattr(circuit, kind) for circuit in self.circuits]
            table = np.empty((times.shape[1], len(per_job[0]), self.n_jobs))
            for job, (job_times, sources) in enumerate(zip(times, per_job)):
                for p, source in enumerate(sources):
                    table[:, p, job] = sample_waveform(source.waveform, job_times)
            tables.append(table)
        return tables[0], tables[1]

    def _base_rhs(
        self, currents: np.ndarray, voltages: np.ndarray, state: tuple = ()
    ) -> np.ndarray:
        """Right-hand side before the MOSFET stamps, with the source values
        ``currents`` and ``voltages`` (sources x jobs).  A transient step
        passes the companion ``state`` ``(cap_v, cap_i, ind_i, ind_v)``; the
        DC system has none."""
        currents = [currents]
        if state:
            cap_v, cap_i, ind_i, ind_v = state
            if self.trapezoidal:
                cap_ieq = self.cap_geq * cap_v + cap_i
                ind_ieq = ind_i + self.ind_geq * ind_v
            else:
                cap_ieq = self.cap_geq * cap_v
                ind_ieq = ind_i
            currents = [cap_ieq, ind_ieq] + currents
        currents = np.concatenate(currents)
        signed = np.stack((-currents, currents), axis=1).reshape(-1, self.n_jobs)
        # bincount adds each bin's pushes to 0.0 in turn: np.add.at into
        # zeros, bit for bit, without its per-element overhead.
        # (Without pushes bincount returns integers.)
        rhs = np.bincount(
            self.push_bins, signed[self.push_entries].T.ravel(), self.n_jobs * self.size
        ).astype(float, copy=False).reshape(self.n_jobs, self.size)
        rhs[:, self.vso_rows] += voltages.T
        return rhs

    def _stamp_mosfets(
        self,
        matrices: np.ndarray,
        rhs: np.ndarray,
        parameters: np.ndarray,
        guess: np.ndarray,
    ) -> None:
        """Linearise every MOSFET of every row at once and stamp it.

        The model runs once over the ``(rows x devices)`` array
        (:func:`repro.circuit.mosfet.evaluate_stack`, bit for bit the scalar
        :meth:`~repro.circuit.mosfet.MOSFET.evaluate`).  The stamps are then
        added by one ordered ``np.add.at`` each for the matrix and the
        right-hand side, so every entry accumulates the same terms in the
        same sequence as the dense assembler.
        """
        padded = np.zeros((guess.shape[0], self.size + 1))
        padded[:, : self.size] = guess
        v_d, v_g, v_s = (padded[:, column] for column in self.mos_terminals)
        v_gs = v_g - v_s
        v_ds = v_d - v_s
        i_ds, gm, gds = evaluate_stack(parameters, v_gs, v_ds)
        g_sum = gm + gds
        coefficients = np.concatenate((gm, gds, -g_sum, -gm, -gds, g_sum), axis=1)
        np.add.at(matrices, (slice(None), self.mos_cells), coefficients[:, self.mos_entries])
        i_eq = i_ds - gm * v_gs - gds * v_ds
        pushed = np.concatenate((-i_eq, i_eq), axis=1)
        np.add.at(rhs, (slice(None), self.mos_rhs_cells), pushed[:, self.mos_rhs_entries])

    def _advance_state(self, padded: np.ndarray, cap_v, cap_i, ind_i, ind_v) -> tuple:
        """Companion state ``(cap_v, cap_i, ind_i, ind_v)`` after a step whose
        ground-padded solutions are ``padded``; the coefficients 2C/dt, C/dt,
        dt/2L and dt/L are the cap_geq and ind_geq values."""
        cap_now = self._branch_voltages(padded, self.cap_terminals)
        ind_now = self._branch_voltages(padded, self.ind_terminals)
        if self.trapezoidal:
            cap_i = self.cap_geq * (cap_now - cap_v) - cap_i
            ind_i = ind_i + self.ind_geq * (ind_now + ind_v)
        else:
            cap_i = self.cap_geq * (cap_now - cap_v)
            ind_i = ind_i + self.ind_geq * ind_now
        return cap_now, cap_i, ind_i, ind_now

    # --- solves -------------------------------------------------------------

    def _solve(
        self, matrices: np.ndarray, rhs: np.ndarray, time: float, factors=None
    ) -> tuple[np.ndarray, list | None]:
        """Solve every row: one stacked dense ``gesv`` (no factors), or
        :meth:`BandLayout.solve <repro.circuit.mna.BandLayout.solve>`, which
        reuses the band LU ``factors`` when given and returns them."""
        try:
            if self.band is None:
                stack = matrices.reshape(-1, self.size, self.size)
                return np.linalg.solve(stack, rhs[..., None])[..., 0], None
            return self.band.solve(matrices, rhs, factors)
        except np.linalg.LinAlgError as error:
            raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error

    def _newton(
        self, base_rhs: np.ndarray, guess: np.ndarray, times, max_iterations: int
    ) -> np.ndarray:
        """Newton solve of every job's system from ``guess``, (jobs, size).

        A linear system is solved exactly in one step (damping would only
        distort it); its matrix never changes, so a band LU is factorized
        once per batch.  A nonlinear job iterates until its largest update
        is below :data:`~repro.circuit.mna.NEWTON_TOLERANCE`, each update
        scaled down to :data:`~repro.circuit.mna.NEWTON_DAMPING_LIMIT`, and
        then leaves the active set; a band job's accepted iterate is
        refined.  ``times`` holds each job's source time.
        """
        if not self.nonlinear:
            solutions, self._factors = self._solve(
                self.static_matrices, base_rhs, times[0], self._factors
            )
            return solutions
        solutions = guess.copy()
        active = np.arange(self.n_jobs)
        for _ in range(max_iterations):
            guess = solutions[active]
            matrices = self._matrix_buffer[: active.size]
            np.take(self.static_matrices, active, axis=0, out=matrices)
            rhs = base_rhs[active]
            self._stamp_mosfets(matrices, rhs, self.mos_params[:, active], guess)
            new_solutions, factors = self._solve(matrices, rhs, times[active[0]])

            delta = new_solutions - guess
            max_delta = np.abs(delta).max(axis=1)
            damped = max_delta > NEWTON_DAMPING_LIMIT
            if damped.any():
                scale = NEWTON_DAMPING_LIMIT / max_delta[damped]
                new_solutions[damped] = guess[damped] + delta[damped] * scale[:, None]
            converged = max_delta < NEWTON_TOLERANCE
            if self.band is not None and converged.any():
                rows = np.flatnonzero(converged)
                new_solutions[rows] = self.band.refine(
                    self.band.entries(matrices[rows]),
                    rhs[rows],
                    new_solutions[rows],
                    [factors[row] for row in rows],
                )
            solutions[active] = new_solutions
            if converged.all():
                return solutions
            active, max_delta = active[~converged], max_delta[~converged]
        raise ConvergenceError(times[active[0]], max_iterations, float(max_delta[0]), self.size)

    def dc(self, time: float) -> np.ndarray:
        """DC operating points of the DC system, sources at ``time``, as
        (jobs, dc_size) solutions."""
        times = np.full((self.n_jobs, 1), time)
        currents, voltages = (table[0] for table in self._source_table(times))
        guess = np.zeros((self.n_jobs, self.size))
        # A supply-aware starting guess speeds up and stabilises CMOS
        # circuits: start every node halfway to the largest DC source magnitude.
        if voltages.size:
            guess[:, : self.assemblers[0].n_nodes] = 0.5 * np.abs(voltages).max(axis=0)[:, None]
        with trace_span("circuit.dc", n_jobs=self.n_jobs, size=self.size):
            return self._newton(
                self._base_rhs(currents, voltages),
                guess,
                [time] * self.n_jobs,
                mna.DC_NEWTON_ITERATIONS,
            )

    def run(self, n_steps: int, use_dc_start: bool, until: list[tuple]) -> list[TransientResult]:
        """Fixed-step transients of the transient system, ``n_steps`` steps
        of each job's time step, from the DC operating point at ``t = 0``
        or (without ``use_dc_start``) from the element initial conditions,
        cut at the step that completes ``until``, each job's
        :attr:`TransientJob.until` chain, if none is empty."""
        n_jobs, size = self.n_jobs, self.size
        times = np.array(
            [np.linspace(0.0, n_steps * dt, n_steps + 1) for dt in self.time_steps]
        )
        solutions = np.zeros((n_jobs, size))

        # Companion state, (elements x jobs): element initial conditions,
        # or capacitors charged to the DC operating point, inductors at rest.
        cap_v = np.array(
            [[c.initial_voltage for c in circuit.capacitors] for circuit in self.circuits], float
        ).T
        ind_i = np.array(
            [[l.initial_current for l in circuit.inductors] for circuit in self.circuits], float
        ).T
        cap_i = np.zeros_like(cap_v)
        ind_v = np.zeros_like(ind_i)
        padded = np.zeros((n_jobs, size + 1))
        if use_dc_start and size > 0:
            # The DC unknowns start with the transient ones.
            solutions = _Batch(self.circuits).dc(0.0)[:, :size]
            padded[:, :size] = solutions
            cap_v = self._branch_voltages(padded, self.cap_terminals)
            ind_i = np.zeros_like(ind_i)

        # Crossing chains as (jobs x links) node columns and levels; job j
        # waits for its link reached[j] until it has reached them all.
        stops = all(until)
        if stops:
            lengths = np.array([len(chain) for chain in until])
            columns = np.zeros((n_jobs, lengths.max()), dtype=np.intp)
            levels = np.zeros((n_jobs, lengths.max()))
            for job, (assembler, chain) in enumerate(zip(self.assemblers, until)):
                for link, (node, level) in enumerate(chain):
                    columns[job, link] = assembler.node_index(node)
                    levels[job, link] = level
            reached = np.zeros(n_jobs, dtype=np.intp)

        # Every source sampled once over the whole run, (steps, sources, jobs).
        currents, voltages = self._source_table(times)
        # Time on the last axis: every waveform cut from it is a view, not a copy.
        trace = np.empty((n_jobs, size, n_steps + 1))
        trace[:, :, 0] = solutions
        end = n_steps
        for step in range(1, n_steps + 1):
            base_rhs = self._base_rhs(
                currents[step], voltages[step], (cap_v, cap_i, ind_i, ind_v)
            )
            solutions = self._newton(
                base_rhs, solutions, times[:, step], mna.TRANSIENT_NEWTON_ITERATIONS
            )
            padded[:, :size] = solutions
            cap_v, cap_i, ind_i, ind_v = self._advance_state(padded, cap_v, cap_i, ind_i, ind_v)
            trace[:, :, step] = solutions
            if not stops:
                continue
            # Each waiting link that crosses between the last two samples,
            # as crossing_time tests it, is reached; the next link of its
            # chain may cross in the same step.
            while True:
                waiting = np.flatnonzero(reached < lengths)
                link = reached[waiting]
                nodes, level = columns[waiting, link], levels[waiting, link]
                v0, v1 = trace[waiting, nodes, step - 1], trace[waiting, nodes, step]
                crossed = ((v0 < level) & (level <= v1)) | ((v0 > level) & (level >= v1))
                if not crossed.any():
                    break
                reached[waiting[crossed]] += 1
            if (reached == lengths).all():
                end = step
                break

        return [
            TransientResult.from_trace(assembler, job_times[: end + 1], job_trace[:, : end + 1].T)
            for assembler, job_times, job_trace in zip(self.assemblers, times, trace)
        ]


def _run_stack(jobs: list[TransientJob]) -> list[TransientResult]:
    """Run jobs of one topology signature as one stack."""
    first = jobs[0]
    batch = _Batch([job.circuit for job in jobs], [job.time_step for job in jobs], first.method)
    n_steps = int(round(first.stop_time / first.time_step))
    return batch.run(n_steps, first.use_dc_start, [job.until for job in jobs])


def batched_transient_analysis(jobs: list[TransientJob]) -> list[TransientResult]:
    """Evaluate transient jobs, batching same-topology groups.

    Results are returned in job order and equal calling
    :func:`~repro.circuit.transient.transient_analysis` per job bit for bit
    up to the step their stack stops at (see module docstring).  Singleton groups, and groups whose stacked
    kernel raises, run as one-job stacks instead.
    """
    results: list[TransientResult | None] = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for position, job in enumerate(jobs):
        validate_transient_args(job.stop_time, job.time_step, job.method)
        signature = topology_signature(job, MNAAssembler(job.circuit))
        groups.setdefault(signature, []).append(position)

    for indices in groups.values():
        group_jobs = [jobs[i] for i in indices]
        if len(group_jobs) == 1:
            metrics.counter("repro_batch_groups_total", mode="serial").inc()
            group_results = _run_stack(group_jobs)
        else:
            try:
                with trace_span("circuit.batch", n_jobs=len(group_jobs)):
                    group_results = _run_stack(group_jobs)
                metrics.counter("repro_batch_groups_total", mode="stacked").inc()
                metrics.histogram("repro_batch_group_points").observe(len(group_jobs))
            except Exception:
                # Never let batching change observable behaviour: rerun the
                # group job by job so a genuinely failing job raises the same
                # error a one-job caller would see.
                metrics.counter("repro_batch_groups_total", mode="fallback").inc()
                group_results = [_run_stack([job])[0] for job in group_jobs]
        for index, result in zip(indices, group_results):
            results[index] = result

    return results  # type: ignore[return-value]

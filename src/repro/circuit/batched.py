"""Batched transient evaluation of same-topology circuits.

Sweep points over one interconnect topology differ only in element *values*
(resistances, capacitances, source waveforms, MOSFET parameters) -- the MNA
pattern, node numbering and step count are identical.  The serial path pays
the full Python re-stamping cost per point per step; this module evaluates a
whole batch of such circuits in lockstep instead:

* the static part of every dense MNA matrix (GMIN, resistors, companion
  conductances, voltage-source rows) is built **once** into a stacked
  ``(n_jobs, size, size)`` array -- the per-step / per-iteration Python
  re-stamp the serial path does disappears entirely;
* the MOSFET linearisation runs once per Newton iteration over an
  ``(active jobs x devices)`` array (:func:`repro.circuit.mosfet.evaluate_stack`),
  and its stamps are added device by device in the dense assembler's order;
* the linear solve of every job becomes one stacked LAPACK call
  (``np.linalg.solve`` over the leading batch axis);
* the Newton bookkeeping (per-row max |delta|, damping, the set of rows
  still iterating) and the companion-state update are array operations;
* only source waveform evaluation still runs per job.

This is the paper-default path: :func:`repro.analysis.fig12_delay_ratio.fig12_records`
and the ``variability_delay`` experiment run all their transients as one
stack through :func:`repro.circuit.delay.measure_inverter_line_delay_batch`,
and :func:`repro.circuit.crosstalk.analyze_crosstalk` runs its three
victim/aggressor transients as one stack.  A single
:func:`repro.circuit.delay.measure_inverter_line_delay` is a batch of one.

**Bitwise identity is a hard contract.**  The batched kernel replays the
exact floating-point statement sequence of the dense reference
(:class:`repro.circuit.mna.MNAAssembler` + :func:`~repro.circuit.mna.newton_solve`
as driven by :func:`repro.circuit.transient.transient_analysis`), vectorised
over the batch axis.  Arithmetic ``+ - * /`` runs as numpy ufuncs, which
perform the same IEEE operations as the scalar statements; ``exp``,
``log1p`` and ``**2`` stay per element through :mod:`math` and Python's
``**``, because numpy's SIMD ``exp``/``log1p`` and its ``v * v`` squaring
differ from libm in the last bit of some values.  A stacked
``np.linalg.solve`` is bitwise-identical to per-slice solves, and each
matrix entry accumulates its terms in the scalar order.  Batched results
therefore carry the same content hashes as serial per-point runs -- the
engine's cache and the CI identity checks rely on it.

Jobs are grouped by a structural signature (matrix size, element topology,
zero-capacitance pattern, step count, method); singleton groups, circuits
that resolve to the sparse backend, and any group whose stacked solve fails
for one job fall back to per-job
:func:`~repro.circuit.transient.transient_analysis`, so batching can change
performance but never results.  Singletons take the scalar dense loop
because a stack of one is 1.3-2x slower: on the Fig. 11 delay circuit
(600 steps, 2-vCPU x86 host) a one-job :class:`_Batch` took 212-373 ms
against the scalar loop's 142-184 ms at 8 segments, and 255-337 ms
against 163-252 ms at 20 segments.  With one row to vectorise over, the
array bookkeeping per Newton iteration costs more than the Python
re-stamping it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.dc import dc_operating_point
from repro.circuit.mna import (
    GMIN,
    NEWTON_DAMPING_LIMIT,
    NEWTON_TOLERANCE,
    TRANSIENT_NEWTON_ITERATIONS,
    CompanionState,
    MNAAssembler,
)
from repro.circuit.mosfet import evaluate_stack, parameter_stack
from repro.circuit.netlist import Circuit
from repro.circuit.compiled import resolve_backend
from repro.circuit.transient import (
    TransientResult,
    transient_analysis,
    validate_transient_args,
)
from repro.obs import metrics
from repro.obs.trace import trace_span


@dataclass(frozen=True)
class TransientJob:
    """One transient analysis to run inside a batch.

    Fields mirror the :func:`~repro.circuit.transient.transient_analysis`
    signature; jobs whose derived step count, method and circuit topology
    match are evaluated together.
    """

    circuit: Circuit
    stop_time: float
    time_step: float
    method: str = "trapezoidal"
    use_dc_start: bool = True


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


def _stamp_conductance_stack(
    matrices: np.ndarray, a: int | None, b: int | None, g: np.ndarray
) -> None:
    """Vector twin of ``MNAAssembler._stamp_conductance`` over the batch axis."""
    if a is not None:
        matrices[:, a, a] += g
    if b is not None:
        matrices[:, b, b] += g
    if a is not None and b is not None:
        matrices[:, a, b] -= g
        matrices[:, b, a] -= g


class _Batch:
    """Precompiled stacked dense system for one group of same-topology jobs."""

    def __init__(self, jobs: list[TransientJob]):
        self.jobs = jobs
        self.n_jobs = len(jobs)
        self.assemblers = [MNAAssembler(job.circuit) for job in jobs]
        base = self.assemblers[0]
        self.size = base.size
        self.n_nodes = base.n_nodes
        first = jobs[0]
        self.method = first.method
        self.trapezoidal = first.method == "trapezoidal"
        self.use_dc_start = first.use_dc_start
        self.n_steps = int(round(first.stop_time / first.time_step))
        self.nonlinear = bool(first.circuit.mosfets)
        self.dt = np.array([job.time_step for job in jobs])
        # Per-job time axes, exactly as the serial path builds them.
        self.times = [
            np.linspace(0.0, self.n_steps * job.time_step, self.n_steps + 1)
            for job in jobs
        ]

        circuit = first.circuit
        index = base.node_index
        self.res_idx = [(index(r.a), index(r.b)) for r in circuit.resistors]
        self.cap_idx = [(index(c.a), index(c.b)) for c in circuit.capacitors]
        self.ind_idx = [(index(l.a), index(l.b)) for l in circuit.inductors]
        self.iso_idx = [(index(s.positive), index(s.negative)) for s in circuit.current_sources]
        self.vso_idx = [
            (base.vsource_index(p), index(s.positive), index(s.negative))
            for p, s in enumerate(circuit.voltage_sources)
        ]
        self.mos_idx = [
            (index(m.drain), index(m.gate), index(m.source)) for m in circuit.mosfets
        ]
        self.mos_params = parameter_stack(
            [[m.parameters for m in job.circuit.mosfets] for job in jobs]
        )
        self.mos_terminals = self._padded_columns(self.mos_idx, 3)
        self.cap_terminals = self._padded_columns(self.cap_idx, 2)
        self.ind_terminals = self._padded_columns(self.ind_idx, 2)

        # Per-element value vectors across the batch axis.  The derived
        # conductances repeat the scalar expressions of MNAAssembler.assemble
        # elementwise, so every job's value is bit-for-bit the serial one.
        self.res_g = [
            1.0 / np.array([job.circuit.resistors[p].resistance for job in jobs])
            for p in range(len(circuit.resistors))
        ]
        # Capacitor and inductor values are (elements x jobs) arrays.
        self.cap_c = np.array(
            [[c.capacitance for c in job.circuit.capacitors] for job in jobs]
        ).T
        self.cap_zero = [c.capacitance == 0.0 for c in circuit.capacitors]
        if self.trapezoidal:
            self.cap_geq = 2.0 * self.cap_c / self.dt
        else:
            self.cap_geq = self.cap_c / self.dt
        self.ind_l = np.array(
            [[l.inductance for l in job.circuit.inductors] for job in jobs]
        ).T
        if self.trapezoidal:
            self.ind_geq = self.dt / (2.0 * self.ind_l)
        else:
            self.ind_geq = self.dt / self.ind_l

        # Static stacked matrix: everything MNAAssembler.assemble stamps
        # before the MOSFET loop, in the same statement order.  Matrix and
        # rhs accumulations never mix targets, so splitting them preserves
        # each entry's accumulation order (hence its bits).
        matrices = np.zeros((self.n_jobs, self.size, self.size))
        for i in range(self.n_nodes):
            matrices[:, i, i] += GMIN
        for p, (a, b) in enumerate(self.res_idx):
            _stamp_conductance_stack(matrices, a, b, self.res_g[p])
        for p, (a, b) in enumerate(self.cap_idx):
            if self.cap_zero[p]:
                continue
            _stamp_conductance_stack(matrices, a, b, self.cap_geq[p])
        for p, (a, b) in enumerate(self.ind_idx):
            _stamp_conductance_stack(matrices, a, b, self.ind_geq[p])
        for row, p, n in self.vso_idx:
            if p is not None:
                matrices[:, p, row] += 1.0
                matrices[:, row, p] += 1.0
            if n is not None:
                matrices[:, n, row] -= 1.0
                matrices[:, row, n] -= 1.0
        self.static_matrices = matrices

    def _padded_columns(self, terminals: list[tuple], width: int) -> list[np.ndarray]:
        """Per-terminal node columns into a ground-padded solution.

        Ground maps to the extra slot ``size``, which always holds the 0.0
        the dense assembler uses for a grounded terminal.
        """
        return [
            np.array(
                [self.size if nodes[i] is None else nodes[i] for nodes in terminals],
                dtype=np.intp,
            )
            for i in range(width)
        ]

    @staticmethod
    def _branch_voltages(padded: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
        """``v(a) - v(b)`` of every two-terminal element, (elements x jobs)."""
        a, b = columns
        return (padded[:, a] - padded[:, b]).T

    # --- per-step right-hand side (everything before the MOSFET loop) ------

    def _base_rhs(self, step: int, cap_v, cap_i, ind_i, ind_v) -> np.ndarray:
        rhs = np.zeros((self.n_jobs, self.size))
        if self.trapezoidal:
            cap_ieq = self.cap_geq * cap_v + cap_i
        else:
            cap_ieq = self.cap_geq * cap_v
        for p, (a, b) in enumerate(self.cap_idx):
            if self.cap_zero[p]:
                continue
            # _stamp_current(rhs, b, a, ieq): rhs[b] -= ieq; rhs[a] += ieq.
            if b is not None:
                rhs[:, b] -= cap_ieq[p]
            if a is not None:
                rhs[:, a] += cap_ieq[p]
        if self.trapezoidal:
            ind_ieq = ind_i + self.ind_geq * ind_v
        else:
            ind_ieq = ind_i
        for p, (a, b) in enumerate(self.ind_idx):
            if a is not None:
                rhs[:, a] -= ind_ieq[p]
            if b is not None:
                rhs[:, b] += ind_ieq[p]
        for p, (a, b) in enumerate(self.iso_idx):
            values = np.array(
                [
                    job.circuit.current_sources[p].value(self.times[k][step])
                    for k, job in enumerate(self.jobs)
                ]
            )
            if a is not None:
                rhs[:, a] -= values
            if b is not None:
                rhs[:, b] += values
        for p, (row, _, _) in enumerate(self.vso_idx):
            rhs[:, row] += np.array(
                [
                    job.circuit.voltage_sources[p].value(self.times[k][step])
                    for k, job in enumerate(self.jobs)
                ]
            )
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
        added device by device in the dense assembler's order, so every matrix
        and right-hand-side entry accumulates the same terms in the same
        sequence as the per-job path.
        """
        padded = np.zeros((guess.shape[0], self.size + 1))
        padded[:, : self.size] = guess
        v_d, v_g, v_s = (padded[:, column] for column in self.mos_terminals)
        v_gs = v_g - v_s
        v_ds = v_d - v_s
        i_ds, gm, gds = evaluate_stack(parameters, v_gs, v_ds)
        i_eq = (i_ds - gm * v_gs - gds * v_ds).T
        g_sum = (gm + gds).T
        gm = gm.T
        gds = gds.T
        for p, (d, g, s) in enumerate(self.mos_idx):
            if d is not None:
                if g is not None:
                    matrices[:, d, g] += gm[p]
                matrices[:, d, d] += gds[p]
                if s is not None:
                    matrices[:, d, s] -= g_sum[p]
            if s is not None:
                if g is not None:
                    matrices[:, s, g] -= gm[p]
                if d is not None:
                    matrices[:, s, d] -= gds[p]
                matrices[:, s, s] += g_sum[p]
            if d is not None:
                rhs[:, d] -= i_eq[p]
            if s is not None:
                rhs[:, s] += i_eq[p]

    # --- full run ----------------------------------------------------------

    def run(self) -> list[TransientResult]:
        n_jobs, size = self.n_jobs, self.size
        solutions = np.zeros((n_jobs, size))

        n_cap = len(self.cap_idx)
        n_ind = len(self.ind_idx)
        cap_v = np.zeros((n_cap, n_jobs))
        cap_i = np.zeros((n_cap, n_jobs))
        ind_i = np.zeros((n_ind, n_jobs))
        ind_v = np.zeros((n_ind, n_jobs))
        for k, job in enumerate(self.jobs):
            initial = CompanionState.initial(job.circuit)
            for p, capacitor in enumerate(job.circuit.capacitors):
                cap_v[p, k] = initial.capacitor_voltages[capacitor.name]
            for p, inductor in enumerate(job.circuit.inductors):
                ind_i[p, k] = initial.inductor_currents[inductor.name]

        if self.use_dc_start and size > 0:
            for k, job in enumerate(self.jobs):
                assembler = self.assemblers[k]
                dc = dc_operating_point(job.circuit, time=0.0)
                for name, voltage in dc.node_voltages.items():
                    solutions[k, assembler.node_index(name)] = voltage
                for position, source in enumerate(job.circuit.voltage_sources):
                    solutions[k, assembler.vsource_index(position)] = dc.source_currents[
                        source.name
                    ]
                for p, capacitor in enumerate(job.circuit.capacitors):
                    cap_v[p, k] = dc.voltage(capacitor.a) - dc.voltage(capacitor.b)
                    cap_i[p, k] = 0.0
                ind_i[:, k] = 0.0
                ind_v[:, k] = 0.0

        padded = np.zeros((n_jobs, size + 1))
        matrix_buffer = np.empty_like(self.static_matrices)
        trace = np.empty((n_jobs, self.n_steps + 1, size))
        trace[:, 0] = solutions

        all_rows = np.arange(n_jobs)
        for step in range(1, self.n_steps + 1):
            base_rhs = self._base_rhs(step, cap_v, cap_i, ind_i, ind_v)
            if not self.nonlinear:
                # One linear solve per step, like newton_solve's early return.
                # The stacked solve is bitwise-identical to per-slice solves.
                solutions = np.linalg.solve(
                    self.static_matrices, base_rhs[..., None]
                )[..., 0]
            else:
                # Per-row Newton with newton_solve's damping and stopping
                # rule; a row leaves the active set once it converges.
                active = all_rows
                for _ in range(TRANSIENT_NEWTON_ITERATIONS):
                    guess = solutions[active]
                    matrices = matrix_buffer[: active.size]
                    np.take(self.static_matrices, active, axis=0, out=matrices)
                    rhs = base_rhs[active]
                    self._stamp_mosfets(matrices, rhs, self.mos_params[:, active], guess)
                    new_solutions = np.linalg.solve(matrices, rhs[..., None])[..., 0]

                    delta = new_solutions - guess
                    max_delta = np.max(np.abs(delta), axis=1)
                    damped = max_delta > NEWTON_DAMPING_LIMIT
                    if damped.any():
                        scale = NEWTON_DAMPING_LIMIT / max_delta[damped]
                        new_solutions[damped] = guess[damped] + delta[damped] * scale[:, None]
                    solutions[active] = new_solutions
                    active = active[~(max_delta < NEWTON_TOLERANCE)]
                    if not active.size:
                        break
                if active.size:
                    time = self.times[active[0]][step]
                    raise RuntimeError(
                        f"Newton iteration did not converge at t={time} "
                        f"after {TRANSIENT_NEWTON_ITERATIONS} iterations"
                    )

            # State update: vector twin of MNAAssembler.update_state, whose
            # coefficients 2C/dt, C/dt, dt/2L and dt/L are the cap_geq and
            # ind_geq values.
            padded[:, :size] = solutions
            cap_now = self._branch_voltages(padded, self.cap_terminals)
            if self.trapezoidal:
                cap_i = self.cap_geq * (cap_now - cap_v) - cap_i
            else:
                cap_i = self.cap_geq * (cap_now - cap_v)
            cap_v = cap_now
            ind_now = self._branch_voltages(padded, self.ind_terminals)
            if self.trapezoidal:
                ind_i = ind_i + self.ind_geq * (ind_now + ind_v)
            else:
                ind_i = ind_i + self.ind_geq * ind_now
            ind_v = ind_now

            trace[:, step] = solutions

        results = []
        for k, job in enumerate(self.jobs):
            assembler = self.assemblers[k]
            voltages = {
                name: np.ascontiguousarray(trace[k][:, assembler.node_index(name)])
                for name in assembler.node_names
            }
            currents = {
                source.name: np.ascontiguousarray(
                    trace[k][:, assembler.vsource_index(position)]
                )
                for position, source in enumerate(job.circuit.voltage_sources)
            }
            results.append(
                TransientResult(
                    times=self.times[k], node_voltages=voltages, source_currents=currents
                )
            )
        return results


def _run_serial(job: TransientJob) -> TransientResult:
    return transient_analysis(
        job.circuit,
        job.stop_time,
        job.time_step,
        method=job.method,
        use_dc_start=job.use_dc_start,
    )


def batched_transient_analysis(jobs: list[TransientJob]) -> list[TransientResult]:
    """Evaluate transient jobs, batching same-topology dense groups.

    Results are returned in job order and are bitwise-identical to calling
    :func:`~repro.circuit.transient.transient_analysis` per job (see module
    docstring).  Jobs that resolve to the sparse backend, singleton groups,
    and groups whose stacked kernel raises run per job through the serial
    path instead.
    """
    results: list[TransientResult | None] = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    serial_indices: list[int] = []
    for position, job in enumerate(jobs):
        validate_transient_args(job.stop_time, job.time_step, job.method)
        assembler = MNAAssembler(job.circuit)
        if resolve_backend(assembler.size) != "dense":
            serial_indices.append(position)
            continue
        groups.setdefault(topology_signature(job, assembler), []).append(position)

    for position in serial_indices:
        results[position] = _run_serial(jobs[position])

    for indices in groups.values():
        if len(indices) == 1:
            metrics.counter("repro_batch_groups_total", mode="serial").inc()
            results[indices[0]] = _run_serial(jobs[indices[0]])
            continue
        group_jobs = [jobs[i] for i in indices]
        try:
            with trace_span("circuit.batch", n_jobs=len(group_jobs)):
                group_results = _Batch(group_jobs).run()
            metrics.counter("repro_batch_groups_total", mode="stacked").inc()
            metrics.histogram("repro_batch_group_points").observe(len(group_jobs))
        except Exception:
            # Never let batching change observable behaviour: rerun the
            # group serially so a genuinely failing job raises the same
            # error a serial caller would see.
            metrics.counter("repro_batch_groups_total", mode="fallback").inc()
            group_results = [_run_serial(job) for job in group_jobs]
        for index, result in zip(indices, group_results):
            results[index] = result

    return results  # type: ignore[return-value]

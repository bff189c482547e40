"""Compiled sparse MNA: one-time topology compilation, cheap per-step updates.

The dense :class:`~repro.circuit.mna.MNAAssembler` re-stamps a full
``np.zeros((size, size))`` matrix element-by-element in Python on every call,
which dominates the wall-clock of transient analyses the moment a line is
expanded into more than a few dozen RC segments.  This module splits the work
the way production SPICE engines do:

*compile* (once per circuit and time step)
    Walk the netlist a single time and record, for every stamp the dense
    assembler would make, its matrix coordinate and -- when the value cannot
    change during the analysis -- the value itself.  For a fixed time step
    the companion-model conductances of capacitors and inductors are as
    static as the resistors, so the only *dynamic* matrix entries left are
    the MOSFET linearisations.  The coordinate list is converted to a CSR
    pattern once, together with a gather map from stamp slots to CSR data
    positions.

*update* (per time step / Newton iteration)
    Refresh the few dynamic values (MOSFET ``gm``/``gds`` stamps into the
    preallocated value buffer, companion currents and source values into the
    right-hand side) and rebuild ``csr.data`` with one ``bincount`` -- no
    Python loop over the topology, no allocation proportional to
    ``size**2``.

*solve* (per time step / Newton iteration)
    ``scipy.sparse.linalg.splu``.  For a linear circuit (no MOSFETs) the
    matrix values cannot change between steps, so the numeric LU
    factorization is computed once and reused for every remaining step --
    each step then costs one right-hand-side build plus two sparse
    triangular solves.  Nonlinear circuits keep the compiled pattern (and
    all static values) and refactorize every Newton iteration through a
    precomputed CSC twin of the pattern -- the CSR->CSC conversion happens
    once at compile time, not per Newton iteration.

Backend selection is centralised in :func:`resolve_backend`: circuits below
:data:`SPARSE_SIZE_THRESHOLD` unknowns keep the dense path (where dense
LAPACK wins), larger ones take this compiled sparse path.  No entry point
takes a per-call backend argument.  The one override is the
:func:`solver_backend` context manager, which forces every solve in a block
onto one backend (the parity tests run the same workload through both).

Every circuit the paper-default experiments build has 14-30 unknowns, so
this class is never constructed on the paper pass; it serves long ladders
(hundreds of segments) and the ``benchmarks/perf`` cases that use them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuit.mna import (
    GMIN,
    NEWTON_DAMPING_LIMIT,
    NEWTON_TOLERANCE,
    TRANSIENT_NEWTON_ITERATIONS,
    CompanionState,
    MNAAssembler,
)
from repro.circuit.netlist import Circuit

SPARSE_SIZE_THRESHOLD = 64
"""Number of MNA unknowns above which the compiled sparse path is selected.

Below this, a dense LAPACK solve on a contiguous array beats the sparse
setup cost; above it, Python re-stamping plus dense LU lose badly to the
compiled update + factorization reuse.  The crossover was measured with
``benchmarks/perf`` (see docs/PERFORMANCE.md)."""

BACKENDS = ("dense", "sparse")

_BACKEND_OVERRIDE: str | None = None


def resolve_backend(size: int) -> str:
    """Pick the MNA solver backend for a system of ``size`` unknowns.

    An active :func:`solver_backend` override wins; otherwise the size
    heuristic against :data:`SPARSE_SIZE_THRESHOLD` decides.
    """
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    return "sparse" if size >= SPARSE_SIZE_THRESHOLD else "dense"


@contextmanager
def solver_backend(backend: str | None) -> Iterator[None]:
    """Force every transient analysis in the block onto one backend.

    ``None`` restores automatic (size-based) selection.  The parity tests use
    this to run identical workloads through both paths::

        with solver_backend("dense"):
            reference = transient_analysis(circuit, stop, dt)
        with solver_backend("sparse"):
            fast = transient_analysis(circuit, stop, dt)
    """
    if backend is not None and backend not in BACKENDS:
        raise ValueError(f"unknown MNA backend {backend!r}; use one of {BACKENDS}")
    global _BACKEND_OVERRIDE
    previous = _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = backend
    try:
        yield
    finally:
        _BACKEND_OVERRIDE = previous


@dataclass
class SolverStats:
    """Counters a :class:`CompiledMNA` accumulates across solve calls.

    ``factorizations`` counts numeric LU factorizations, ``iterations``
    Newton iterations and ``steps`` calls to :meth:`CompiledMNA.solve_step`.
    The reuse tests assert against these.
    """

    factorizations: int = 0
    iterations: int = 0
    steps: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot (feeds the ``repro.obs`` solver metrics and spans)."""
        return {
            "factorizations": self.factorizations,
            "iterations": self.iterations,
            "steps": self.steps,
        }


def _gather(solution: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Solution values at ``indices``; entries of ``-1`` (ground) read 0."""
    return np.where(indices >= 0, solution[indices], 0.0)


@dataclass
class ArrayState:
    """Vectorised companion-model state (array twin of :class:`CompanionState`).

    Arrays are aligned with ``circuit.capacitors`` / ``circuit.inductors``
    order, which lets the per-step state update run as four numpy
    expressions instead of a Python loop over element dicts.
    """

    capacitor_voltages: np.ndarray
    capacitor_currents: np.ndarray
    inductor_currents: np.ndarray
    inductor_voltages: np.ndarray

    @classmethod
    def zeros(cls, circuit: Circuit) -> "ArrayState":
        """All-zero state (DC solves and cold transient starts)."""
        n_cap = len(circuit.capacitors)
        n_ind = len(circuit.inductors)
        return cls(
            capacitor_voltages=np.zeros(n_cap),
            capacitor_currents=np.zeros(n_cap),
            inductor_currents=np.zeros(n_ind),
            inductor_voltages=np.zeros(n_ind),
        )

    @classmethod
    def from_companion(cls, state: CompanionState, circuit: Circuit) -> "ArrayState":
        """Pack a dict-based :class:`CompanionState` into aligned arrays."""
        return cls(
            capacitor_voltages=np.array(
                [state.capacitor_voltages[c.name] for c in circuit.capacitors]
            ),
            capacitor_currents=np.array(
                [state.capacitor_currents[c.name] for c in circuit.capacitors]
            ),
            inductor_currents=np.array(
                [state.inductor_currents[l.name] for l in circuit.inductors]
            ),
            inductor_voltages=np.array(
                [state.inductor_voltages[l.name] for l in circuit.inductors]
            ),
        )

    def to_companion(self, circuit: Circuit) -> CompanionState:
        """Unpack back into the dict-based state (debugging / interop)."""
        return CompanionState(
            capacitor_voltages={
                c.name: float(v) for c, v in zip(circuit.capacitors, self.capacitor_voltages)
            },
            capacitor_currents={
                c.name: float(i) for c, i in zip(circuit.capacitors, self.capacitor_currents)
            },
            inductor_currents={
                l.name: float(i) for l, i in zip(circuit.inductors, self.inductor_currents)
            },
            inductor_voltages={
                l.name: float(v) for l, v in zip(circuit.inductors, self.inductor_voltages)
            },
        )


class CompiledMNA:
    """Sparse MNA system compiled for one circuit at a fixed transient step.

    Parameters
    ----------
    circuit:
        The circuit to compile.
    dt:
        Fixed transient time-step size in second (companion conductances are
        baked into the static value buffer, which is what makes the per-step
        update cheap).  ``None`` is allowed only with ``capacitors_open``.
    method:
        ``"trapezoidal"`` or ``"backward_euler"``, matching
        :meth:`MNAAssembler.assemble`.
    assembler:
        An existing :class:`MNAAssembler` of the same circuit to reuse for
        index bookkeeping (avoids walking the netlist twice); one is built
        when omitted.
    capacitors_open:
        DC mode, mirroring ``MNAAssembler.assemble(capacitors_open=True)``:
        capacitors are removed, inductors become shorts (large
        conductances), no companion models are stamped.  The compiled
        system then solves the operating point
        (:func:`repro.circuit.dc.dc_operating_point` routes large circuits
        through it); :meth:`update_state` is transient-only and raises.
    """

    def __init__(
        self,
        circuit: Circuit,
        dt: float | None,
        method: str = "trapezoidal",
        assembler: MNAAssembler | None = None,
        capacitors_open: bool = False,
    ):
        if method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {method!r}")
        if not capacitors_open and (dt is None or dt <= 0):
            raise ValueError("compiled transient assembly needs a positive dt")
        self.circuit = circuit
        self.base = assembler if assembler is not None else MNAAssembler(circuit)
        self.size = self.base.size
        self.dt = dt
        self.method = method
        self.capacitors_open = capacitors_open
        self._trapezoidal = method == "trapezoidal"
        self.nonlinear = bool(circuit.mosfets)
        self._lu = None  # cached numeric factorization (linear circuits only)
        self.stats = SolverStats()

        index = self.base.node_index
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def stamp_conductance(a: int | None, b: int | None, g: float) -> None:
            if a is not None:
                rows.append(a), cols.append(a), vals.append(g)
            if b is not None:
                rows.append(b), cols.append(b), vals.append(g)
            if a is not None and b is not None:
                rows.append(a), cols.append(b), vals.append(-g)
                rows.append(b), cols.append(a), vals.append(-g)

        for i in range(self.base.n_nodes):
            rows.append(i), cols.append(i), vals.append(GMIN)

        for resistor in circuit.resistors:
            stamp_conductance(index(resistor.a), index(resistor.b), 1.0 / resistor.resistance)

        # Capacitor companion conductances: static for a fixed dt.  The rhs
        # companion current changes per step, so record the index/geq arrays
        # the vectorised rhs build needs.  Zero-capacitance elements are
        # skipped exactly like the dense assembler skips them.
        cap_active: list[int] = []
        cap_a: list[int] = []
        cap_b: list[int] = []
        cap_geq: list[float] = []
        for position, capacitor in enumerate(circuit.capacitors):
            cap_a.append(-1 if index(capacitor.a) is None else index(capacitor.a))
            cap_b.append(-1 if index(capacitor.b) is None else index(capacitor.b))
            if capacitors_open or capacitor.capacitance == 0.0:
                continue
            geq = (
                2.0 * capacitor.capacitance / dt
                if self._trapezoidal
                else capacitor.capacitance / dt
            )
            stamp_conductance(index(capacitor.a), index(capacitor.b), geq)
            cap_active.append(position)
            cap_geq.append(geq)
        self._cap_a = np.asarray(cap_a, dtype=np.intp)
        self._cap_b = np.asarray(cap_b, dtype=np.intp)
        self._cap_active = np.asarray(cap_active, dtype=np.intp)
        self._cap_geq = np.asarray(cap_geq)
        self._cap_c = np.array([c.capacitance for c in circuit.capacitors])

        ind_a: list[int] = []
        ind_b: list[int] = []
        ind_geq: list[float] = []
        for inductor in circuit.inductors:
            if capacitors_open:
                # DC: an inductor is a short, modelled as a large conductance
                # exactly like the dense assembler; no companion state.
                stamp_conductance(index(inductor.a), index(inductor.b), 1.0e9)
                continue
            geq = (
                dt / (2.0 * inductor.inductance)
                if self._trapezoidal
                else dt / inductor.inductance
            )
            stamp_conductance(index(inductor.a), index(inductor.b), geq)
            ind_a.append(-1 if index(inductor.a) is None else index(inductor.a))
            ind_b.append(-1 if index(inductor.b) is None else index(inductor.b))
            ind_geq.append(geq)
        self._ind_a = np.asarray(ind_a, dtype=np.intp)
        self._ind_b = np.asarray(ind_b, dtype=np.intp)
        self._ind_geq = np.asarray(ind_geq)
        self._ind_l = np.array([l.inductance for l in circuit.inductors])

        self._vsource_rows: list[tuple[int, object]] = []
        for position, source in enumerate(circuit.voltage_sources):
            row = self.base.vsource_index(position)
            p = index(source.positive)
            n = index(source.negative)
            if p is not None:
                rows.append(p), cols.append(row), vals.append(1.0)
                rows.append(row), cols.append(p), vals.append(1.0)
            if n is not None:
                rows.append(n), cols.append(row), vals.append(-1.0)
                rows.append(row), cols.append(n), vals.append(-1.0)
            self._vsource_rows.append((row, source))

        self._isources = [
            (index(s.positive), index(s.negative), s) for s in circuit.current_sources
        ]

        # MOSFET stamps occupy the dynamic tail of the value buffer; each
        # entry remembers which linearised coefficient fills it per Newton
        # iteration (codes 0-5: +gm, +gds, -(gm+gds), -gm, -gds, +(gm+gds),
        # mirroring MNAAssembler.assemble exactly).
        self._static_nnz = len(vals)
        self._mosfets: list[tuple[int | None, int | None, int | None, list[int]]] = []
        for mosfet in circuit.mosfets:
            d, g, s = index(mosfet.drain), index(mosfet.gate), index(mosfet.source)
            codes: list[int] = []

            def stamp_mosfet(row: int, col: int, code: int) -> None:
                rows.append(row), cols.append(col), vals.append(0.0)
                codes.append(code)

            if d is not None:
                if g is not None:
                    stamp_mosfet(d, g, 0)  # +gm
                stamp_mosfet(d, d, 1)  # +gds
                if s is not None:
                    stamp_mosfet(d, s, 2)  # -(gm + gds)
            if s is not None:
                if g is not None:
                    stamp_mosfet(s, g, 3)  # -gm
                if d is not None:
                    stamp_mosfet(s, d, 4)  # -gds
                stamp_mosfet(s, s, 5)  # +(gm + gds)
            self._mosfets.append((d, g, s, codes))

        self._values = np.asarray(vals)
        row_array = np.asarray(rows, dtype=np.intp)
        col_array = np.asarray(cols, dtype=np.intp)

        # Collapse duplicate coordinates into the canonical CSR pattern once;
        # ``_slot_to_csr`` maps every stamp slot to its data position so the
        # per-step rebuild is a single bincount over the value buffer.
        linear = row_array * self.size + col_array
        unique, inverse = np.unique(linear, return_inverse=True)
        self._slot_to_csr = inverse
        self._nnz = unique.size
        self._csr = sp.csr_matrix(
            (np.zeros(self._nnz), (unique // self.size, unique % self.size)),
            shape=(self.size, self.size),
        )
        self._csr.sort_indices()
        if self._csr.nnz != self._nnz:  # pragma: no cover - structural invariant
            raise AssertionError("CSR pattern lost entries during compilation")
        if self.nonlinear:
            self._static_data = np.bincount(
                self._slot_to_csr[: self._static_nnz],
                weights=self._values[: self._static_nnz],
                minlength=self._nnz,
            )
        else:
            self._csr.data[:] = np.bincount(
                self._slot_to_csr, weights=self._values, minlength=self._nnz
            )

        # The factorization wants CSC.  The pattern is static, so convert
        # once and record the CSR->CSC data permutation: refreshing the CSC
        # values is then a single gather, bitwise-identical to (and much
        # cheaper than) calling ``tocsc()`` per factorization.  The marker
        # matrix carries data *positions* through the conversion; with no
        # duplicate coordinates left, its converted data IS the permutation.
        marker = sp.csr_matrix(
            (np.arange(self._nnz, dtype=np.intp), self._csr.indices, self._csr.indptr),
            shape=(self.size, self.size),
        ).tocsc()
        self._csr_to_csc = marker.data.astype(np.intp)
        self._csc = self._csr.tocsc()

    # --- per-step update --------------------------------------------------

    def assemble(
        self, time: float, guess: np.ndarray, state: ArrayState
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """Refresh dynamic values and return the system ``(A, b)``.

        The returned matrix is the internally cached CSR instance -- callers
        must factorize/solve before the next :meth:`assemble` call.
        """
        rhs = np.zeros(self.size)

        if self._cap_active.size:
            v_prev = state.capacitor_voltages[self._cap_active]
            i_prev = state.capacitor_currents[self._cap_active]
            if self._trapezoidal:
                ieq = self._cap_geq * v_prev + i_prev
            else:
                ieq = self._cap_geq * v_prev
            # The companion source pushes ieq from b into a (see the dense
            # assembler): rhs[b] -= ieq, rhs[a] += ieq.
            a = self._cap_a[self._cap_active]
            b = self._cap_b[self._cap_active]
            np.add.at(rhs, a[a >= 0], ieq[a >= 0])
            np.add.at(rhs, b[b >= 0], -ieq[b >= 0])

        if self._ind_a.size:
            i_prev = state.inductor_currents
            if self._trapezoidal:
                ieq = i_prev + self._ind_geq * state.inductor_voltages
            else:
                ieq = i_prev
            np.add.at(rhs, self._ind_a[self._ind_a >= 0], -ieq[self._ind_a >= 0])
            np.add.at(rhs, self._ind_b[self._ind_b >= 0], ieq[self._ind_b >= 0])

        for p, n, source in self._isources:
            current = source.value(time)
            if p is not None:
                rhs[p] -= current
            if n is not None:
                rhs[n] += current

        for row, source in self._vsource_rows:
            rhs[row] += source.value(time)

        if self.nonlinear:
            tail = np.empty(self._values.size - self._static_nnz)
            offset = 0
            for mosfet, (d, g, s, codes) in zip(self.circuit.mosfets, self._mosfets):
                v_d = 0.0 if d is None else guess[d]
                v_g = 0.0 if g is None else guess[g]
                v_s = 0.0 if s is None else guess[s]
                i_ds, gm, gds = mosfet.evaluate(v_g - v_s, v_d - v_s)
                coefficients = (gm, gds, -(gm + gds), -gm, -gds, gm + gds)
                for code in codes:
                    tail[offset] = coefficients[code]
                    offset += 1
                i_eq = i_ds - gm * (v_g - v_s) - gds * (v_d - v_s)
                if d is not None:
                    rhs[d] -= i_eq
                if s is not None:
                    rhs[s] += i_eq
            self._csr.data[:] = self._static_data + np.bincount(
                self._slot_to_csr[self._static_nnz :], weights=tail, minlength=self._nnz
            )

        return self._csr, rhs

    # --- solve ------------------------------------------------------------

    def _factorize(self, time: float):
        """Numeric LU of the current matrix values through the CSC twin."""
        self._csc.data[:] = self._csr.data[self._csr_to_csc]
        try:
            lu = spla.splu(self._csc)
        except RuntimeError as error:
            raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error
        self.stats.factorizations += 1
        return lu

    def solve_step(
        self,
        time: float,
        initial_guess: np.ndarray,
        state: ArrayState,
        max_iterations: int = TRANSIENT_NEWTON_ITERATIONS,
    ) -> np.ndarray:
        """Solve one transient step (Newton iteration for nonlinear circuits).

        Mirrors :func:`repro.circuit.mna.newton_solve` -- same damping, same
        convergence test -- with the dense assemble/solve replaced by the
        compiled update plus sparse LU.  For linear circuits the cached
        factorization makes this a single pair of triangular solves;
        nonlinear circuits refactorize every Newton iteration.
        """
        self.stats.steps += 1
        if not self.nonlinear:
            _, rhs = self.assemble(time, initial_guess, state)
            if self._lu is None:
                # The matrix values cannot change for a linear circuit at a
                # fixed dt: factorize once, reuse for every remaining step.
                self._lu = self._factorize(time)
            return self._lu.solve(rhs)

        solution = initial_guess.astype(float).copy()
        for _ in range(max_iterations):
            _, rhs = self.assemble(time, solution, state)
            lu = self._factorize(time)
            new_solution = lu.solve(rhs)
            self.stats.iterations += 1

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

    # --- dynamic-state update ---------------------------------------------

    def update_state(self, solution: np.ndarray, state: ArrayState) -> ArrayState:
        """Vectorised twin of :meth:`MNAAssembler.update_state`."""
        if self.capacitors_open:
            raise RuntimeError(
                "update_state needs companion models; a DC-compiled system "
                "(capacitors_open=True) has none"
            )
        v_now_cap = _gather(solution, self._cap_a) - _gather(solution, self._cap_b)
        if self._trapezoidal:
            i_now_cap = (
                2.0 * self._cap_c / self.dt * (v_now_cap - state.capacitor_voltages)
                - state.capacitor_currents
            )
        else:
            i_now_cap = self._cap_c / self.dt * (v_now_cap - state.capacitor_voltages)

        v_now_ind = _gather(solution, self._ind_a) - _gather(solution, self._ind_b)
        if self._trapezoidal:
            i_now_ind = state.inductor_currents + self.dt / (2.0 * self._ind_l) * (
                v_now_ind + state.inductor_voltages
            )
        else:
            i_now_ind = state.inductor_currents + self.dt / self._ind_l * v_now_ind

        return ArrayState(
            capacitor_voltages=v_now_cap,
            capacitor_currents=i_now_cap,
            inductor_currents=i_now_ind,
            inductor_voltages=v_now_ind,
        )

"""Batched transient evaluation: bitwise identity with serial runs.

``batched_transient_analysis`` stacks same-topology transients into one
vectorised Newton loop.  The contract these tests pin is *bitwise*
identity: every float a batched run produces must equal what the serial
path produces for the same job, so batching can never perturb a result,
a content hash, or a cache key.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from dense_reference import DenseAssembler, dense_transient_analysis

from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit.batched import (
    TransientJob,
    _Batch,
    _run_stack,
    batched_transient_analysis,
    topology_signature,
)
from repro.circuit.delay import (
    _build_delay_benchmark,
    measure_inverter_line_delay,
    measure_inverter_line_delay_batch,
    propagation_delay,
)
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import BAND_SIZE_THRESHOLD, MNAAssembler
from repro.circuit import mosfet
from repro.circuit.mosfet import MOSFET, MOSFETParameters, parameter_stack
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.doping import DopingProfile
from repro.core.line import DistributedRC, InterconnectLine
from repro.core.mwcnt import MWCNTInterconnect
from repro.units import nm, um


def _line(contact_resistance: float, n_segments: int = 8) -> DistributedRC:
    return DistributedRC(
        total_resistance=1e4,
        total_capacitance=4e-14,
        contact_resistance=contact_resistance,
        n_segments=n_segments,
    )


def _inverter_circuit(contact_resistance: float, n_segments: int = 8) -> Circuit:
    circuit = Circuit("batched probe")
    add_supply(circuit, NODE_45NM)
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, NODE_45NM.supply_voltage, rise_time=5e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    add_rc_ladder(
        circuit, _line(contact_resistance, n_segments), "near", "far", name_prefix="line"
    )
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _jobs(contacts, n_segments: int = 8) -> list:
    return [
        TransientJob(_inverter_circuit(contact, n_segments), 2e-10, 1e-12)
        for contact in contacts
    ]


def _assert_results_identical(batched, serial):
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert np.array_equal(got.times, want.times)
        assert set(got.node_voltages) == set(want.node_voltages)
        for node in want.node_voltages:
            assert np.array_equal(got.voltage(node), want.voltage(node)), node


def _assert_stacked_kernel_matches_serial(jobs):
    """The stacked kernel itself (no per-job fallback) against the dense
    scalar oracle, byte for byte."""
    for got, job in zip(_run_stack(jobs), jobs):
        want = dense_transient_analysis(
            job.circuit,
            job.stop_time,
            job.time_step,
            method=job.method,
            use_dc_start=job.use_dc_start,
        )
        for node in want.node_voltages:
            assert got.voltage(node).tobytes() == want.voltage(node).tobytes(), node
        for source in want.source_currents:
            assert got.current(source).tobytes() == want.current(source).tobytes()


class TestBatchedTransient:
    def test_bitwise_identical_to_serial(self):
        contacts = [1e3, 5e3, 2e4, 1e5]
        batched = batched_transient_analysis(_jobs(contacts))
        serial = [
            transient_analysis(job.circuit, job.stop_time, job.time_step)
            for job in _jobs(contacts)
        ]
        _assert_results_identical(batched, serial)

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    @pytest.mark.parametrize("capacitors", [True, False])
    @pytest.mark.parametrize("inductor", [True, False])
    def test_stacked_kernel_covers_every_element(self, method, capacitors, inductor):
        """Every element kind and both integration methods."""

        def circuit(resistance):
            c = Circuit("element probe")
            add_supply(c, NODE_45NM)
            c.add_voltage_source("vin", "in", "0", Step(0.0, 1.0, rise_time=5e-12))
            c.add_current_source("ib", "n3", "0", Step(0.0, 1e-6, rise_time=5e-12))
            Inverter("drv", "in", "n1", technology=NODE_45NM).add_to(c)
            c.add_resistor("r1", "n1", "n2", resistance)
            if inductor:
                c.add_inductor("l1", "n2", "n3", 1e-10)
            else:
                c.add_resistor("r2", "n2", "n3", resistance)
            if capacitors:
                c.add_capacitor("c1", "n3", "0", 1e-15)
                c.add_capacitor("c0", "n2", "0", 0.0)
            c.add_resistor("rl", "n3", "0", 1e5)
            return c

        _assert_stacked_kernel_matches_serial(
            [
                TransientJob(circuit(resistance), 1e-10, 1e-12, method=method)
                for resistance in (1e3, 2e3, 5e3)
            ]
        )

    def test_stacked_kernel_without_companion_terms(self):
        """Resistive dividers: no capacitor, inductor or current source
        pushes anything into the right-hand side."""

        def circuit(resistance):
            c = Circuit("divider")
            c.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=5e-12))
            c.add_resistor("r1", "a", "b", 1e3)
            c.add_resistor("r2", "b", "0", resistance)
            return c

        _assert_stacked_kernel_matches_serial(
            [TransientJob(circuit(resistance), 2e-11, 1e-12) for resistance in (1e3, 3e3)]
        )

    def test_stacked_kernel_damped_newton(self):
        """A cold start on a 3 V supply drives damped Newton updates in some rows."""

        def circuit(load):
            c = Circuit("damping probe")
            c.add_voltage_source("supply", "vdd", "0", 3.0)
            c.add_voltage_source("vin", "in", "0", Step(3.0, 0.0, rise_time=5e-12))
            Inverter("drv", "in", "out", technology=NODE_45NM).add_to(c)
            c.add_capacitor("cl", "out", "0", load)
            return c

        _assert_stacked_kernel_matches_serial(
            [
                TransientJob(circuit(load), 5e-11, 1e-12, use_dc_start=False)
                for load in (1e-15, 3e-15)
            ]
        )

    def test_mixed_topologies_grouped_independently(self):
        """Different segment counts land in different stacks, same answers,
        joined back in job order."""
        six, ten = _jobs([1e3, 1e4, 3e4], n_segments=6), _jobs([1e3, 1e4, 3e4], n_segments=10)
        jobs = [job for pair in zip(six, ten) for job in pair]
        batched = batched_transient_analysis(jobs)
        serial = [
            transient_analysis(job.circuit, job.stop_time, job.time_step)
            for job in jobs
        ]
        _assert_results_identical(batched, serial)

    def test_singleton_batch(self):
        jobs = _jobs([7e3])
        batched = batched_transient_analysis(jobs)
        serial = [transient_analysis(jobs[0].circuit, 2e-10, 1e-12)]
        _assert_results_identical(batched, serial)

    def test_empty_batch(self):
        assert batched_transient_analysis([]) == []

    def test_topology_signature_groups_same_structure(self):
        a = TransientJob(_inverter_circuit(1e3), 2e-10, 1e-12)
        b = TransientJob(_inverter_circuit(9e4), 2e-10, 1e-12)
        c = TransientJob(_inverter_circuit(1e3, n_segments=10), 2e-10, 1e-12)
        sig_a = topology_signature(a, MNAAssembler(a.circuit))
        sig_b = topology_signature(b, MNAAssembler(b.circuit))
        sig_c = topology_signature(c, MNAAssembler(c.circuit))
        d = dataclasses.replace(a, until=(("far", 0.5),))
        assert sig_a == sig_b
        assert sig_a != sig_c
        assert topology_signature(d, MNAAssembler(d.circuit)) == sig_a


class TestBatchedDelay:
    def test_delay_batch_identical_to_serial(self):
        lines = [_line(1e5 + 2.5e4 * index) for index in range(4)]
        batched = measure_inverter_line_delay_batch(lines, n_time_steps=150)
        serial = [measure_inverter_line_delay(line, n_time_steps=150) for line in lines]
        for got, want in zip(batched, serial):
            assert got.propagation_delay == want.propagation_delay
            # The stack runs to its last line's crossing, so each one-line
            # run is a prefix of it.
            n_points = want.result.n_points
            assert got.result.n_points >= n_points
            for node in ("in", "far", "out"):
                got_wave = got.result.voltage(node)[:n_points]
                assert got_wave.tobytes() == want.result.voltage(node).tobytes()

    def test_fig12_records_batch_identical(self):
        from repro.analysis.fig12_delay_ratio import (
            DelayRatioStudy,
            fig12_records,
            fig12_records_batch,
        )

        studies = [
            DelayRatioStudy(
                diameters_nm=(10.0,),
                lengths_um=(10.0, 50.0),
                channel_counts=(2.0, 8.0),
                n_segments=6,
            ),
            DelayRatioStudy(
                diameters_nm=(14.0,),
                lengths_um=(10.0,),
                channel_counts=(2.0, 4.0),
                n_segments=6,
            ),
        ]
        oracle = [_fig12_serial_oracle(study) for study in studies]
        assert fig12_records_batch(studies) == oracle
        assert [fig12_records(study) for study in studies] == oracle

    def test_variability_delay_matches_serial_oracle(self):
        from repro.api import Engine

        params = {"length_um": 10.0, "n_segments": 4, "n_time_steps": 120}
        engine = Engine()
        got = engine.run("variability_delay", **params).to_records()

        upstream = engine.run("variability", length_um=params["length_um"])
        device = MWCNTInterconnect(outer_diameter=nm(10.0), length=um(10.0))
        capacitance = device.capacitance_per_length * um(10.0)
        want = []
        for row in upstream.to_records():
            mean = row["mean_kohm"] * 1e3
            sigma = row["std_kohm"] * 1e3
            corners = {
                "fast": max(mean - sigma, 0.05 * mean),
                "mean": mean,
                "slow": mean + sigma,
            }
            delays = {
                corner: measure_inverter_line_delay(
                    DistributedRC(
                        total_resistance=resistance,
                        total_capacitance=capacitance,
                        n_segments=params["n_segments"],
                    ),
                    n_time_steps=params["n_time_steps"],
                ).propagation_delay
                for corner, resistance in corners.items()
            }
            for corner in ("fast", "mean", "slow"):
                want.append(
                    {
                        "population": row["population"],
                        "corner": corner,
                        "resistance_kohm": corners[corner] / 1e3,
                        "delay_ps": delays[corner] * 1e12,
                        "delay_spread": delays[corner] / delays["mean"],
                    }
                )
        assert len(want) == 6
        assert got == want


def _delay_lines(n_segments: int, lengths_um=(50.0, 200.0, 500.0)) -> list:
    return [
        InterconnectLine(
            MWCNTInterconnect(
                outer_diameter=nm(10), length=um(length), contact_resistance=100e3
            ),
            n_segments=n_segments,
        )
        for length in lengths_um
    ]


def _delay_jobs(lines, until: bool, rising_input=True, simulation_margin=8.0, n_steps=600):
    """The delay benchmark's jobs, with its crossing chain or without one,
    and their supply voltages."""
    jobs, supplies = [], []
    for line in lines:
        circuit, stop_time, time_step, v_dd = _build_delay_benchmark(
            line, NODE_45NM, 1.0, 1.0, 5e-12, rising_input, simulation_margin, n_steps
        )
        chain = (("in", 0.5 * v_dd), ("far", 0.5 * v_dd)) if until else ()
        jobs.append(TransientJob(circuit, stop_time, time_step, until=chain))
        supplies.append(v_dd)
    return jobs, supplies


class TestStopAtCrossing:
    """A delay stack ends at its last far-end crossing and keeps every delay bit."""

    @pytest.mark.parametrize("rising_input", [True, False], ids=["rising", "falling"])
    @pytest.mark.parametrize("n_segments", [20, 80], ids=["dense", "band"])
    def test_stopped_delay_equals_full_window(self, n_segments, rising_input):
        lines = _delay_lines(n_segments)
        jobs, supplies = _delay_jobs(lines, until=False, rising_input=rising_input)
        size = MNAAssembler(jobs[0].circuit).size
        assert (size >= BAND_SIZE_THRESHOLD) == (n_segments == 80)
        full = batched_transient_analysis(jobs)
        stopped = measure_inverter_line_delay_batch(lines, rising_input=rising_input)
        for got, want, v_dd in zip(stopped, full, supplies):
            delay = propagation_delay(want, "in", "far", v_dd)
            assert got.propagation_delay.hex() == delay.hex()
            n_points = got.result.n_points
            assert n_points < want.n_points
            assert got.result.times.tobytes() == want.times[:n_points].tobytes()
            for node in want.node_voltages:
                got_wave = got.result.voltage(node)
                assert got_wave.tobytes() == want.voltage(node)[:n_points].tobytes()

    def test_stack_stops_at_its_last_crossing(self):
        lines = _delay_lines(6)
        alone = [measure_inverter_line_delay(line) for line in lines]
        ends = [measurement.result.n_points for measurement in alone]
        assert len(set(ends)) == len(ends)
        stacked = measure_inverter_line_delay_batch(lines)
        for got, want in zip(stacked, alone):
            assert got.propagation_delay.hex() == want.propagation_delay.hex()
            assert got.result.n_points == max(ends)
        # A job without a chain keeps its whole stack running.
        jobs, _ = _delay_jobs(lines, until=True)
        jobs[1] = dataclasses.replace(jobs[1], until=())
        assert [result.n_points for result in batched_transient_analysis(jobs)] == [601] * 3

    def test_job_that_never_crosses_runs_every_step(self):
        # Half an Elmore delay of window: the 500 um line's far end never
        # reaches 50 %, the 10 um line's does.
        lines = _delay_lines(6, lengths_um=(10.0, 500.0))
        settings = {"simulation_margin": 0.5, "n_time_steps": 60}
        jobs, supplies = _delay_jobs(lines, until=True, simulation_margin=0.5, n_steps=60)
        crossing, never = batched_transient_analysis(jobs)
        assert crossing.n_points == never.n_points == 61
        delay = propagation_delay(crossing, "in", "far", supplies[0])
        alone = measure_inverter_line_delay(lines[0], **settings)
        assert delay.hex() == alone.propagation_delay.hex()

        full_jobs, _ = _delay_jobs(lines[1:], until=False, simulation_margin=0.5, n_steps=60)
        with pytest.raises(ValueError) as want:
            propagation_delay(batched_transient_analysis(full_jobs)[0], "in", "far", supplies[1])
        assert str(want.value).startswith("waveform never crosses")
        with pytest.raises(ValueError) as got:
            propagation_delay(never, "in", "far", supplies[1])
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as measured:
            measure_inverter_line_delay(lines[1], **settings)
        assert str(measured.value) == str(want.value)


def _fig12_serial_oracle(study) -> list[dict]:
    """Fig. 12 records from one dense transient per line, line by line.

    The reference the stacked enumeration must reproduce bit for bit: it
    walks the grid in record order through the unbatched
    :func:`measure_inverter_line_delay`, reusing the pristine delay for
    ``Nc = 2``.
    """

    def delay(diameter, length, channels):
        doping = (
            DopingProfile.pristine()
            if channels == 2.0
            else DopingProfile.from_channels(channels)
        )
        tube = MWCNTInterconnect(
            outer_diameter=diameter * 1e-9,
            length=length * 1e-6,
            doping=doping,
            contact_resistance=study.contact_resistance,
        )
        line = InterconnectLine(tube, n_segments=study.n_segments)
        return measure_inverter_line_delay(
            line, technology=study.technology
        ).propagation_delay

    records = []
    for diameter in study.diameters_nm:
        for length in study.lengths_um:
            pristine = delay(diameter, length, 2.0)
            for channels in study.channel_counts:
                value = pristine if channels == 2.0 else delay(diameter, length, channels)
                records.append(
                    {
                        "diameter_nm": diameter,
                        "length_um": length,
                        "channels_per_shell": channels,
                        "delay_ps": value * 1e12,
                        "delay_ratio": value / pristine,
                        "delay_reduction_percent": 100.0 * (1.0 - value / pristine),
                    }
                )
    return records

def _probe_parameters(polarity: int, beta_scale: float = 1.0):
    # Binary-exact threshold and slope, so x = (V_gs - V_th) / slope lands
    # exactly on the +-30 softplus branch points for the probe voltages.
    return MOSFETParameters(
        polarity=polarity,
        threshold_voltage=0.25,
        transconductance=4e-4 * beta_scale,
        width=1e-7,
        length=5e-8,
        subthreshold_slope=0.0625,
    )


def _softplus_argument(device: MOSFET, v_gs: float, v_ds: float) -> float:
    """``x = (V_gs - V_th) / slope`` of the scalar model, reverse conduction included."""
    p = device.parameters
    vgs_n, vds_n = p.polarity * v_gs, p.polarity * v_ds
    if not vds_n >= 0.0:
        vgs_n -= vds_n
    return (vgs_n - p.threshold_voltage) / p.subthreshold_slope


def _triode_square_probe(v_gs: float) -> float:
    """A triode ``V_ds`` of the probe NMOS at ``v_gs`` whose square by
    ``**2`` (libm pow) changes ``core = v_eff vds - vds**2 / 2`` from the
    one ``vds * vds`` gives."""
    p = _probe_parameters(+1)
    x = (v_gs - p.threshold_voltage) / p.subthreshold_slope
    v_eff = p.subthreshold_slope * math.log1p(math.exp(x))
    return next(
        v
        for v in np.linspace(0.3, 1.2, 200001).tolist()
        if v_eff * v - 0.5 * v**2 != v_eff * v - 0.5 * (v * v)
    )


def _stamp_probe_circuit(beta_scale: float) -> Circuit:
    """NMOS and PMOS devices, with a grounded drain, gate and source each."""
    n = _probe_parameters(+1, beta_scale)
    p = _probe_parameters(-1, beta_scale)
    circuit = Circuit("fused stamp probe")
    circuit.add_mosfet("mn", "a", "b", "c", n)
    circuit.add_mosfet("mp", "c", "b", "a", p)
    circuit.add_mosfet("mn_d0", "0", "a", "b", n)
    circuit.add_mosfet("mp_g0", "a", "0", "c", p)
    circuit.add_mosfet("mn_s0", "b", "c", "0", n)
    circuit.add_mosfet("mp_d0", "0", "c", "b", p)
    circuit.add_mosfet("mp_s0", "c", "a", "0", p)
    for node in ("a", "b", "c"):
        circuit.add_resistor(f"r_{node}", node, "0", 1e3)
    return circuit


class TestFusedMosfetStamp:
    """The stacked MOSFET stamp equals scalar ``evaluate`` + dense stamps."""

    # Overdrives of exactly 30 and -30 softplus slopes (V_gs = 2.125 and
    # -1.625 with V_th = 0.25, slope = 1/16), one ulp either side, for both
    # polarities; signed zeros for V_ds = 0.0 / -0.0; plain values that give
    # reverse conduction; and values whose square by ``**2`` (libm pow)
    # differs from ``v * v`` in the last bit, as a triode V_ds and as a
    # saturation V_eff = V_gs - V_th.
    EDGES = (2.125, -1.625)
    SQUARE_PROBES = (
        next(v for v in np.linspace(0.5, 0.7, 2001).tolist() if v**2 != v * v),
        next(
            v
            for v in np.linspace(1.9, 2.1, 2001).tolist()
            if (v - 0.25) ** 2 != (v - 0.25) * (v - 0.25)
        ),
    )
    VOLTAGES = sorted(
        {
            value
            for edge in EDGES
            for signed in (edge, -edge)
            for value in (
                signed,
                float(np.nextafter(signed, np.inf)),
                float(np.nextafter(signed, -np.inf)),
            )
        }
        | {0.6, -0.4}
        | set(SQUARE_PROBES)
    ) + [0.0, -0.0]

    def test_probe_voltages_hit_the_branch_points(self):
        n = _probe_parameters(+1)
        assert (2.125 - n.threshold_voltage) / n.subthreshold_slope == 30.0
        assert (-1.625 - n.threshold_voltage) / n.subthreshold_slope == -30.0

    def test_bitwise_equal_to_scalar_assembly(self):
        circuits = [_stamp_probe_circuit(1.0), _stamp_probe_circuit(3.0)]
        batch = _Batch(circuits)
        assert batch.size == 3

        guesses = np.array(list(itertools.product(self.VOLTAGES, repeat=3)))
        jobs = np.arange(len(guesses)) % len(circuits)
        assert any(np.signbit(row).any() and (row == 0.0).any() for row in guesses)

        matrices = batch.static_matrices[jobs]
        rhs = np.zeros((len(guesses), batch.size))
        batch._stamp_mosfets(matrices, rhs, batch.mos_params[:, jobs], guesses)

        assemblers = [DenseAssembler(circuit) for circuit in circuits]
        for row, (guess, job) in enumerate(zip(guesses, jobs)):
            want_matrix, want_rhs = assemblers[job].assemble(
                0.0, guess, capacitors_open=True
            )
            # Bytes, not a tolerance: signed zeros and the last bit count.
            assert matrices[row].tobytes() == want_matrix.tobytes(), guess
            assert rhs[row].tobytes() == want_rhs.tobytes(), guess

    @pytest.mark.parametrize("rows", [1, 16, 17])
    def test_scalar_and_array_model_paths_agree(self, monkeypatch, rows):
        """Both ``evaluate_stack`` paths are ``MOSFET.evaluate`` byte for byte.

        Four devices per row: 1 row takes the scalar path by default, 16 and
        17 rows the array path; each size is also forced onto the other.
        """
        devices = [
            MOSFET(f"m{i}", "d", "g", "s", _probe_parameters(polarity, scale))
            for i, (polarity, scale) in enumerate([(1, 1.0), (-1, 1.0), (1, 3.0), (-1, 3.0)])
        ]
        pairs = list(itertools.product(self.VOLTAGES, repeat=2))
        picks = np.arange(rows * len(devices)) * 7 % len(pairs)
        grid = np.array([pairs[i] for i in picks]).reshape(rows, len(devices), 2)
        v_gs, v_ds = grid[..., 0].copy(), grid[..., 1].copy()
        parameters = parameter_stack([[device.parameters for device in devices]] * rows)
        want = np.array(
            [
                [device.evaluate(a, b) for device, a, b in zip(devices, row_gs, row_ds)]
                for row_gs, row_ds in zip(v_gs.tolist(), v_ds.tolist())
            ]
        ).transpose(2, 0, 1)
        for limit in (0, 10**6):
            monkeypatch.setattr(mosfet, "SCALAR_STACK_SIZE", limit)
            got = np.array(mosfet.evaluate_stack(parameters, v_gs, v_ds))
            assert got.tobytes() == want.tobytes(), limit

    def test_array_path_across_the_softplus_tails(self, monkeypatch):
        """The array path, on stacks with reverse conduction whose softplus
        arguments straddle +-30, is ``MOSFET.evaluate`` byte for byte."""
        devices = [
            MOSFET(f"m{i}", "d", "g", "s", _probe_parameters(polarity, scale))
            for i, (polarity, scale) in enumerate([(1, 1.0), (-1, 1.0), (1, 3.0), (-1, 3.0)])
        ]
        rng = np.random.default_rng(5)
        # A softplus argument of exactly 30, in forward and reverse
        # conduction, and a triode V_ds whose ``**2`` is not ``v * v`` (one
        # row each; pair k belongs to device k % 4).
        pairs = [
            (sign * v_gs, sign * v_ds)
            for v_gs, v_ds in ((2.125, 0.3), (1.625, -0.5), (2.0, _triode_square_probe(2.0)))
            for sign in (d.parameters.polarity for d in devices)
        ]
        pairs += map(tuple, rng.uniform(-3.0, 3.0, (4 * 40 - len(pairs), 2)).tolist())
        grid = np.array(pairs).reshape(-1, 4, 2)
        v_gs, v_ds = grid[..., 0].copy(), grid[..., 1].copy()
        x = np.array(
            [
                [_softplus_argument(d, a, b) for d, a, b in zip(devices, row_gs, row_ds)]
                for row_gs, row_ds in zip(v_gs.tolist(), v_ds.tolist())
            ]
        )
        sign = np.array([d.parameters.polarity for d in devices])
        assert (sign * v_ds < 0.0).any() and (np.abs(x) == 30.0).any()
        assert (x > 30.0).any() and (x < -30.0).any() and (np.abs(x) < 30.0).any()
        want = np.array(
            [
                [device.evaluate(a, b) for device, a, b in zip(devices, row_gs, row_ds)]
                for row_gs, row_ds in zip(v_gs.tolist(), v_ds.tolist())
            ]
        ).transpose(2, 0, 1)
        parameters = parameter_stack([[device.parameters for device in devices]] * len(grid))
        monkeypatch.setattr(mosfet, "SCALAR_STACK_SIZE", 0)
        got = np.array(mosfet.evaluate_stack(parameters, v_gs, v_ds))
        assert got.tobytes() == want.tobytes()

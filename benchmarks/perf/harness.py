"""Perf-trajectory harness: times the hot paths, asserts speedup + parity.

Each case times a *legacy* implementation against the *fast* path, checks
numerical parity between the two, and reports wall-clock numbers.
:func:`run_suite` executes every case and returns the machine-readable
record that ``run.py`` writes to ``BENCH_<pr>.json`` -- the perf trajectory
future PRs extend and compare against.

The fast sides are the public circuit entry points, which run circuits of
64 or more unknowns in band storage (``transient_rc_line``,
``delay_benchmark`` and ``crosstalk``; their reference sides are the dense
scalar analyses of ``tests/circuit/dense_reference.py``), the vectorised
Monte Carlo,
stacked same-topology transient batching (``batched_sweep``), stacked
engine sweeps (``engine_sweep``) and batched lease claims in the worker
loop (``dist_workers``).

Modes
-----
``full`` (default)
    Paper-scale problem sizes.  Speedup floors are asserted (the ISSUE-3 /
    ISSUE-8 acceptance criteria in :data:`SPEEDUP_FLOORS`).
``smoke``
    Reduced sizes for CI: parity is still asserted (it is
    size-independent), speedup floors are reported but not enforced --
    shared CI runners make wall-clock guarantees meaningless.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api import Engine, SweepSpec
from repro.circuit import Circuit, Step, transient_analysis
from repro.circuit.crosstalk import analyze_crosstalk
from repro.circuit.delay import measure_inverter_line_delay, measure_inverter_line_delay_batch
from repro.circuit.mna import MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.core import InterconnectLine, MWCNTInterconnect
from repro.core.line import DistributedRC
from repro.process.variability import VariabilityInputs, resistance_variability
from repro.units import nm, um

# The dense scalar analyses and the serial three-transient crosstalk oracle
# live beside the tests that pin the library to them; this file imports them
# as the reference sides.
sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "tests", "circuit"),
)
from crosstalk_reference import analyze_crosstalk_reference  # noqa: E402
from dense_reference import dense_inverter_line_delay, dense_transient_analysis  # noqa: E402

PARITY_RTOL = 1.0e-9

SPEEDUP_FLOORS = {
    "transient_rc_line": 5.0,
    "variability_mc": 10.0,
    "delay_benchmark": 6.0,
    "crosstalk": 4.0,
    "engine_sweep": 1.2,
    "dist_workers": 1.0,
    "batched_sweep": 2.5,
}
"""Acceptance floors (full mode only): ISSUE 3 for the first two, ISSUE 8
for the rest.  ``engine_sweep`` and ``dist_workers`` run on whatever the
host gives them (possibly one core), so their floors only assert that the
stacked sweep / batched worker never *lose* to per-point dispatch."""


@dataclass
class CaseResult:
    """Outcome of one benchmark case."""

    name: str
    legacy_s: float
    fast_s: float
    parity_max_rel: float
    detail: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.legacy_s / self.fast_s if self.fast_s > 0 else float("inf")

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "legacy_s": round(self.legacy_s, 6),
            "fast_s": round(self.fast_s, 6),
            "speedup": round(self.speedup, 2),
            "parity_max_rel": self.parity_max_rel,
            **self.detail,
        }


def _timed(function: Callable, repeats: int = 1):
    """(best wall time over ``repeats`` runs, last return value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - start)
    return best, value


def _waveform_parity(reference, candidate) -> float:
    scale = max(max(np.max(np.abs(w)) for w in reference.node_voltages.values()), 1e-30)
    worst = max(
        float(np.max(np.abs(reference.voltage(n) - candidate.voltage(n))))
        for n in reference.node_voltages
    )
    return worst / scale


# --- cases -------------------------------------------------------------------


def case_transient_rc_line(smoke: bool) -> CaseResult:
    """Headline case: segmented RC line, dense re-stamping vs band storage.

    Full mode uses >= 200 nodes and >= 500 steps (the ISSUE-3 benchmark
    shape).  The reference re-stamps and densely solves every step; the
    fast side builds the band matrix once and makes one band solve per
    step.
    """
    n_segments = 60 if smoke else 220
    n_steps = 150 if smoke else 500

    circuit = Circuit("segmented RC line")
    circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, delay=1e-12, rise_time=5e-12))
    circuit.add_resistor("rdrv", "a", "n0", 1e3)
    ladder = DistributedRC(
        total_resistance=5e4,
        total_capacitance=2e-13,
        contact_resistance=6e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 5e-15)
    size = MNAAssembler(circuit).size

    stop = 2e-9
    dt = stop / n_steps

    legacy_s, reference = _timed(lambda: dense_transient_analysis(circuit, stop, dt))
    fast_s, candidate = _timed(lambda: transient_analysis(circuit, stop, dt), repeats=3)
    return CaseResult(
        name="transient_rc_line",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=_waveform_parity(reference, candidate),
        detail={"n_nodes": size, "n_steps": n_steps},
    )


def case_variability_mc(smoke: bool) -> CaseResult:
    """500-device Monte Carlo: per-device objects vs whole-population numpy."""
    n_devices = 200 if smoke else 500
    inputs = VariabilityInputs()

    legacy_s, reference = _timed(
        lambda: resistance_variability(inputs, n_devices=n_devices, seed=0, vectorized=False),
        repeats=3,
    )
    fast_s, candidate = _timed(
        lambda: resistance_variability(inputs, n_devices=n_devices, seed=0, vectorized=True),
        repeats=5,
    )
    parity = max(
        float(
            np.max(
                np.abs(reference.resistances - candidate.resistances)
                / np.abs(reference.resistances)
            )
        ),
        abs(reference.open_fraction - candidate.open_fraction),
    )
    return CaseResult(
        name="variability_mc",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={"n_devices": n_devices, "mean_ohm": round(candidate.mean, 3)},
    )


def case_delay_benchmark(smoke: bool) -> CaseResult:
    """Fig. 11 inverter-line-inverter benchmark (nonlinear Newton path).

    The reference side builds the same circuit and runs the dense scalar
    transient over the steps the fast side runs; the fast side is the
    public entry point, whose band layout copies the static band rows and
    stamps the MOSFETs through precomputed indices every Newton iteration,
    and which stops at the far end's 50 % crossing.
    """
    n_segments = 30 if smoke else 200
    n_steps = 200 if smoke else 600
    tube = MWCNTInterconnect(
        outer_diameter=nm(10), length=um(200), contact_resistance=100e3
    )
    line = InterconnectLine(tube, n_segments=n_segments)

    reference = dense_inverter_line_delay(line, n_steps)
    fast_s, candidate = _timed(lambda: measure_inverter_line_delay(line, n_time_steps=n_steps))
    # The library stops at the far end's 50 % crossing: time the oracle over
    # those steps too, so the ratio compares the same work per step.  The
    # whole-window run above is the correctness check.
    stop_step = len(candidate.result.times) - 1
    legacy_s, _ = _timed(lambda: dense_inverter_line_delay(line, n_steps, stop_step))
    parity = abs(candidate.propagation_delay - reference.propagation_delay) / abs(
        reference.propagation_delay
    )
    return CaseResult(
        name="delay_benchmark",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={
            "n_segments": n_segments,
            "stop_step": stop_step,
            "delay_ps": round(candidate.propagation_delay * 1e12, 4),
        },
    )


def case_crosstalk(smoke: bool) -> CaseResult:
    """Victim/aggressor crosstalk: two coupled ladders + four inverters.

    The fast side is the public entry point: three transients as one band
    stack.  The reference side is the serial oracle of
    ``tests/circuit/crosstalk_reference.py``: three dense transients, one
    call each.
    """
    n_segments = 8 if smoke else 80
    n_steps = 150 if smoke else 400
    tube = MWCNTInterconnect(outer_diameter=nm(10), length=um(50), contact_resistance=100e3)
    line = InterconnectLine(tube, n_segments=n_segments)
    coupling = 40e-18 / 1e-6 * um(50)  # ~40 aF/um of line-to-line coupling

    legacy_s, reference = _timed(
        lambda: analyze_crosstalk_reference(line, coupling, n_time_steps=n_steps)
    )
    fast_s, candidate = _timed(lambda: analyze_crosstalk(line, coupling, n_time_steps=n_steps))
    parity = max(
        abs(candidate.noise_peak - reference.noise_peak)
        / max(abs(reference.noise_peak), 1e-30),
        abs(candidate.victim_delay_quiet - reference.victim_delay_quiet)
        / max(abs(reference.victim_delay_quiet), 1e-30),
    )
    return CaseResult(
        name="crosstalk",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={
            "n_segments_per_line": n_segments,
            "noise_peak_fraction": round(candidate.noise_peak_fraction, 6),
        },
    )


def case_engine_sweep(smoke: bool) -> CaseResult:
    """Engine fan-out: one ``Engine.run`` per point vs a stacked sweep.

    The same transient-heavy Fig. 12 sweep as the engine baseline.  The
    reference side is the per-point work: one ``Engine().run("fig12", ...)``
    per sweep point, its records tagged with the point as a sweep would.
    The fast side is a default ``Engine().sweep``, which feeds every
    pending point to one stacked evaluation through the experiment's
    ``batch_fn`` (same-topology transients solve together), so the win
    does not depend on spare cores.  It runs traced, and the case reports
    how many points the ``engine.batch`` spans covered, which shows the
    stacked path actually ran.  Content-hash identity between the two
    sides is the invariant -- the records must be float-identical, not
    just close.
    """
    import json
    import tempfile

    from repro.api import ResultSet
    from repro.obs.trace import tracing

    contacts = [100e3, 250e3] if smoke else [50e3, 100e3, 150e3, 200e3, 300e3, 400e3]
    spec = SweepSpec.grid(contact_resistance=contacts)
    base = {
        "diameters_nm": (10.0,),
        "lengths_um": (100.0,) if smoke else (100.0, 500.0),
        "channel_counts": (2.0, 10.0),
        "use_transient": True,
        "n_segments": 10,
    }

    # Warm-up: pay the one-time registry import outside the timed region.
    Engine().run("fig12", use_transient=False, **{k: v for k, v in base.items() if k != "use_transient"})

    def per_point_runs() -> ResultSet:
        records = []
        for point in spec.points():
            result = Engine().run("fig12", {**base, **point})
            records += [{**point, **record} for record in result.to_records()]
        return ResultSet.from_records(records)

    legacy_s, reference = _timed(per_point_runs)
    with tempfile.TemporaryDirectory() as scratch:
        sink = os.path.join(scratch, "trace.jsonl")
        with tracing(sink):
            fast_s, candidate = _timed(
                lambda: Engine().sweep("fig12", spec, base_params=base)
            )
        with open(sink) as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
    stacked_points = sum(
        span["attrs"]["n_points"] for span in spans if span["name"] == "engine.batch"
    )
    if candidate.content_hash != reference.content_hash:
        raise AssertionError(
            "stacked sweep is not content-hash identical to per-point runs: "
            f"{candidate.content_hash} != {reference.content_hash}"
        )
    parity = 0.0 if candidate == reference else float("inf")
    return CaseResult(
        name="engine_sweep",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={
            "n_points": len(spec),
            "stacked_points": stacked_points,
            "content_hash": candidate.content_hash[:16],
        },
    )


def case_dist_workers(smoke: bool) -> CaseResult:
    """Distributed fan-out: serial engine vs two lease-claiming workers.

    The workers cooperate only through a :class:`repro.dist.SharedStore`
    (locked claims + atomic publish); the case asserts every point was
    executed exactly once across the workers and that the merged-from-store
    sweep equals the serial run bit-for-bit -- the PR-4 acceptance
    invariant.  Since PR 8 the loop claims in batches (``claim_many``: one
    store lock per pass instead of one per point) and executes its
    acquired fig12 points through the experiment's ``batch_fn``, so two
    GIL-sharing thread workers are expected to at least *match* serial
    dispatch (floor 1.0) instead of losing to lock round trips.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.dist import SharedStore, run_worker

    contacts = [100e3, 250e3] if smoke else [50e3, 100e3, 200e3, 400e3]
    spec = SweepSpec.grid(contact_resistance=contacts)
    base = {
        "diameters_nm": (10.0,),
        "lengths_um": (100.0,),
        "channel_counts": (2.0, 10.0),
        "use_transient": True,
        "n_segments": 10,
    }

    legacy_s, reference = _timed(lambda: Engine().sweep("fig12", spec, base_params=base))
    claim_round_trips: list[int] = []

    def distributed():
        directory = tempfile.mkdtemp(prefix="repro-dist-bench-")
        try:
            store = SharedStore(directory)
            with ThreadPoolExecutor(max_workers=2) as pool:
                reports = [
                    future.result()
                    for future in [
                        pool.submit(
                            run_worker,
                            "fig12",
                            spec,
                            store,
                            base_params=base,
                            worker_id=f"bench-w{i}",
                        )
                        for i in range(2)
                    ]
                ]
            executed = sum(len(report.executed) for report in reports)
            if executed != len(spec):
                raise AssertionError(
                    f"{executed} executions for {len(spec)} points (duplicates or losses)"
                )
            claim_round_trips[:] = [
                sum(report.claim_round_trips for report in reports)
            ]
            return Engine(store=store).sweep("fig12", spec, base_params=base)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    fast_s, candidate = _timed(distributed)
    parity = 0.0 if candidate == reference else float("inf")
    return CaseResult(
        name="dist_workers",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={
            "n_points": len(spec),
            "n_workers": 2,
            "claim_round_trips": claim_round_trips[0],
        },
    )


def case_batched_sweep(smoke: bool) -> CaseResult:
    """Stacked same-topology transients vs one solve per line.

    The batched point evaluation in isolation: N inverter-line delay
    benchmarks that differ only in contact resistance (same topology, all
    below the band threshold) are measured one line at a time through the
    dense scalar oracle of ``tests/circuit/dense_reference.py`` (a fixed
    reference, like ``delay_benchmark``'s, so speeding up the public
    one-line entry point does not move this ratio) vs through
    :func:`~repro.circuit.delay.measure_inverter_line_delay_batch`, which
    stacks the per-step linear systems into one dense kernel.  Both sides
    are timed up to the step where the stack stopped.  Results are
    required to be float-identical per line.
    """
    n_lines = 4 if smoke else 16
    n_segments = 8 if smoke else 12
    n_steps = 150 if smoke else 400
    lines = [
        InterconnectLine(
            MWCNTInterconnect(
                outer_diameter=nm(10),
                length=um(100),
                contact_resistance=100e3 + 25e3 * index,
            ),
            n_segments=n_segments,
        )
        for index in range(n_lines)
    ]

    reference = [dense_inverter_line_delay(line, n_steps) for line in lines]
    fast_s, candidate = _timed(
        lambda: measure_inverter_line_delay_batch(lines, n_time_steps=n_steps)
    )
    # Timed over the steps the stack ran (to its last far-end crossing), as
    # in ``delay_benchmark``; the whole-window runs above check parity.
    stop_step = len(candidate[0].result.times) - 1
    legacy_s, _ = _timed(
        lambda: [dense_inverter_line_delay(line, n_steps, stop_step) for line in lines]
    )
    parity = max(
        abs(fast.propagation_delay - slow.propagation_delay)
        / max(abs(slow.propagation_delay), 1e-30)
        for fast, slow in zip(candidate, reference)
    )
    return CaseResult(
        name="batched_sweep",
        legacy_s=legacy_s,
        fast_s=fast_s,
        parity_max_rel=parity,
        detail={
            "n_lines": n_lines,
            "n_segments": n_segments,
            "stop_step": stop_step,
            "delay_ps": round(candidate[0].propagation_delay * 1e12, 4),
        },
    )


CASES = (
    case_transient_rc_line,
    case_variability_mc,
    case_delay_benchmark,
    case_crosstalk,
    case_batched_sweep,
    case_engine_sweep,
    case_dist_workers,
)


# --- suite -------------------------------------------------------------------


def run_suite(smoke: bool = False, enforce_floors: bool | None = None) -> dict:
    """Run every case; return the JSON-ready trajectory record.

    Parity is asserted in both modes.  Speedup floors are asserted when
    ``enforce_floors`` is true (default: full mode only).
    """
    if enforce_floors is None:
        enforce_floors = not smoke

    results: list[CaseResult] = []
    for case in CASES:
        result = case(smoke)
        print(
            f"  {result.name:<20s} legacy {result.legacy_s * 1e3:9.1f} ms   "
            f"fast {result.fast_s * 1e3:9.1f} ms   speedup {result.speedup:7.1f}x   "
            f"parity {result.parity_max_rel:.2e}",
            file=sys.stderr,
        )
        if not result.parity_max_rel <= PARITY_RTOL:
            raise AssertionError(
                f"{result.name}: fast/legacy parity {result.parity_max_rel:.3e} "
                f"exceeds {PARITY_RTOL:.0e}"
            )
        floor = SPEEDUP_FLOORS.get(result.name)
        if enforce_floors and floor is not None and result.speedup < floor:
            raise AssertionError(
                f"{result.name}: speedup {result.speedup:.1f}x below the "
                f"{floor:.0f}x acceptance floor"
            )
        results.append(result)

    return {
        "schema": 1,
        "pr": 8,
        "mode": "smoke" if smoke else "full",
        "parity_rtol": PARITY_RTOL,
        "speedup_floors": SPEEDUP_FLOORS,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cases": [result.to_record() for result in results],
    }

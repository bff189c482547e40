"""Registry definitions: the paper's extension studies as Experiments.

:mod:`repro.analysis.experiments` registers the figure and table drivers;
this module registers the *extension studies* the paper motivates in prose
-- crosstalk signal integrity, electromigration lifetime, growth and
variability, the Cu-CNT composite trade-off, TLM extraction and
self-heating.  They used to exist only as ad-hoc ``benchmarks/bench_*.py``
scripts; registering them makes every workload visible to
``python -m repro list``, sweepable, and memoised through the engine cache
(the benchmarks are now thin wrappers over these registrations).

Like the figure registrations, each experiment exposes a flat
JSON-serialisable parameter surface; composite driver arguments (material
objects, catalyst records, unit conversions) are assembled inside the
adapter functions.

Quick start::

    from repro.api import Engine

    lifetime = Engine().run("em_lifetime")
    print(lifetime.filter(material="cnt").column("lifetime_years"))

========================  ====================================================
``crosstalk``             TCAD-coupled victim/aggressor noise + delay push-out
``em_lifetime``           Black's-equation EM lifetime: Cu vs CNT vs composite
``variability``           pristine vs doped MWCNT resistance variability
``growth_window``         catalyst growth window vs temperature (Co or Fe)
``wafer_uniformity``      300 mm wafer CNT-growth uniformity map
``composite_tradeoff``    Cu-CNT composite resistivity/ampacity trade-off
``tlm``                   TLM contact/line-resistance extraction round trip
``self_heating``          self-consistent Joule heating of a CNT line
========================  ====================================================

The paper's workloads chain -- process variability feeds device resistance,
which feeds circuit delay; the growth window feeds wafer-scale uniformity;
the composite trade-off is weighted by electromigration lifetime.  Those
links are modelled as *composite experiments* (``consumes=`` declarations
injecting the upstream ResultSet) and registered as named studies
(:func:`repro.api.study.register_study`, ``python -m repro study list``):

==========================  ==================================================
``variability_delay``       variability stats -> RC corner delay per population
``wafer_window``            growth window -> wafer uniformity at the optimum
``composite_fom``           trade-off x EM lifetime -> figure of merit
==========================  ==================================================
"""

from __future__ import annotations

import math

from repro.api.experiment import Consumes, OutputSpec, ParamSpec, register_experiment
from repro.api.study import register_study
from repro.api.sweep import SweepSpec
from repro.constants import COPPER_EM_CURRENT_DENSITY_LIMIT
from repro.units import celsius_to_kelvin, nm, um

_TECHNOLOGIES = ("14nm", "45nm")


# --- crosstalk: circuit consequence of the Fig. 10a coupling ----------------


@register_experiment(
    "crosstalk",
    params=(
        ParamSpec("line_length_um", "float", 50.0, "coupled line length in um"),
        ParamSpec("outer_diameter_nm", "float", 10.0, "MWCNT outer diameter in nm"),
        ParamSpec("contact_resistance", "float", 100.0e3, "per-line contact resistance in ohm"),
        ParamSpec("n_segments", "int", 8, "RC-ladder segments per line"),
        ParamSpec("technology", "str", "14nm", "TCAD extraction node", choices=_TECHNOLOGIES),
        ParamSpec("resolution", "int", 3, "TCAD grid cells per feature"),
        ParamSpec("n_time_steps", "int", 400, "transient steps per simulation"),
    ),
    description="Victim/aggressor crosstalk noise from the TCAD-extracted coupling",
    tags=("extension", "circuit", "tcad"),
)
def _crosstalk(
    line_length_um: float,
    outer_diameter_nm: float,
    contact_resistance: float,
    n_segments: int,
    technology: str,
    resolution: int,
    n_time_steps: int,
) -> list[dict]:
    from repro.analysis.fig10_tcad import fig10_capacitance_summary
    from repro.circuit.crosstalk import analyze_crosstalk
    from repro.circuit.technology import node_by_name
    from repro.core import InterconnectLine, MWCNTInterconnect

    extraction = fig10_capacitance_summary(
        technology=node_by_name(technology), resolution=resolution
    )
    coupling_per_length = extraction["victim_coupling_af_per_um"] * 1e-18 / 1e-6
    coupling = coupling_per_length * um(line_length_um)
    line = InterconnectLine(
        MWCNTInterconnect(
            outer_diameter=nm(outer_diameter_nm),
            length=um(line_length_um),
            contact_resistance=contact_resistance,
        ),
        n_segments=n_segments,
    )
    result = analyze_crosstalk(line, coupling, n_time_steps=n_time_steps)
    return [
        {
            "coupling_af_per_um": extraction["victim_coupling_af_per_um"],
            "coupling_ff": coupling * 1e15,
            "noise_peak_fraction": result.noise_peak_fraction,
            "victim_delay_quiet_ps": result.victim_delay_quiet * 1e12,
            "victim_delay_opposite_ps": result.victim_delay_opposite_switching * 1e12,
            "delay_pushout": result.delay_pushout,
        }
    ]


# --- electromigration lifetime ----------------------------------------------


@register_experiment(
    "em_lifetime",
    params=(
        ParamSpec(
            "current_density",
            "float",
            COPPER_EM_CURRENT_DENSITY_LIMIT,
            "stress current density in A/m^2",
        ),
        ParamSpec("temperature", "float", 378.0, "stress temperature in kelvin"),
        ParamSpec("cnt_fraction", "float", 0.3, "CNT volume fraction of the composite"),
    ),
    description="Electromigration lifetimes (Black's equation): Cu vs CNT vs composite",
    tags=("extension", "reliability"),
    outputs=(
        OutputSpec("material", "str", "stressed material (copper / cnt / composite)"),
        OutputSpec("lifetime_years", "float", "Black's-equation median lifetime"),
        OutputSpec("immediate_failure", "bool", "stress exceeds the ampacity limit"),
        OutputSpec("gain_over_copper", "float", "lifetime ratio over the Cu reference"),
    ),
)
def _em_lifetime(
    current_density: float, temperature: float, cnt_fraction: float
) -> list[dict]:
    from repro.characterization.electromigration import em_stress_test

    records = []
    for material in ("copper", "cnt", "composite"):
        result = em_stress_test(
            material, current_density, temperature, cnt_fraction=cnt_fraction
        )
        records.append(
            {
                "material": material,
                "lifetime_years": result.lifetime_years,
                "immediate_failure": result.immediate_failure,
            }
        )
    copper_years = records[0]["lifetime_years"]
    for record in records:
        if copper_years > 0:
            gain = record["lifetime_years"] / copper_years
        elif record["lifetime_years"] > 0:
            gain = float("inf")  # finite lifetime vs instantly-failing copper
        else:
            gain = float("nan")  # 0/0: both failed immediately
        record["gain_over_copper"] = gain
    return records


# --- resistance variability --------------------------------------------------


@register_experiment(
    "variability",
    params=(
        ParamSpec("length_um", "float", 10.0, "interconnect length in um"),
        ParamSpec("doped_channels", "float", 6.0, "channels per shell of the doped population"),
        ParamSpec("n_devices", "int", 400, "Monte-Carlo population size"),
        ParamSpec("seed", "int", 0, "random seed"),
    ),
    description="Pristine vs doped MWCNT resistance variability (Section II.A)",
    tags=("extension", "process"),
    outputs=(
        OutputSpec("population", "str", "population label (pristine / doped)"),
        OutputSpec("mean_kohm", "float", "mean resistance in kohm"),
        OutputSpec("std_kohm", "float", "resistance standard deviation in kohm"),
        OutputSpec("median_kohm", "float", "median resistance in kohm"),
        OutputSpec("coefficient_of_variation", "float", "sigma/mu of the population"),
        OutputSpec("open_fraction", "float", "fraction of open (unusable) devices"),
    ),
)
def _variability(
    length_um: float, doped_channels: float, n_devices: int, seed: int
) -> list[dict]:
    from repro.process.variability import doping_variability_comparison

    comparison = doping_variability_comparison(
        length=um(length_um),
        doped_channels=doped_channels,
        n_devices=n_devices,
        seed=seed,
    )
    return [
        {
            "population": name,
            "mean_kohm": result.mean / 1e3,
            "std_kohm": result.std / 1e3,
            "median_kohm": result.median / 1e3,
            "coefficient_of_variation": result.coefficient_of_variation,
            "open_fraction": result.open_fraction,
        }
        for name, result in comparison.items()
    ]


# --- growth window and wafer scale -------------------------------------------

# The names of repro.process.catalyst's CO_CATALYST and FE_CATALYST.
_CATALYSTS = ("Co", "Fe")


@register_experiment(
    "growth_window",
    params=(
        ParamSpec(
            "temperatures_c",
            "floats",
            (300.0, 350.0, 400.0, 450.0, 500.0, 600.0),
            "growth temperatures in Celsius",
        ),
        ParamSpec("catalyst", "str", "Co", "catalyst metal", choices=_CATALYSTS),
        ParamSpec("duration_s", "float", 600.0, "growth duration in seconds"),
    ),
    description="Catalyst growth window vs temperature (Section II.B)",
    tags=("extension", "process"),
    outputs=(
        OutputSpec("temperature_c", "float", "growth temperature in Celsius"),
        OutputSpec("mean_length_um", "float", "mean CNT length in um"),
        OutputSpec("quality", "float", "growth quality score in [0, 1]"),
        OutputSpec("nucleation_yield", "float", "nucleated-catalyst fraction"),
        OutputSpec("walls", "int", "expected CNT wall count"),
        OutputSpec("cmos_compatible", "bool", "within the BEOL thermal budget"),
    ),
)
def _growth_window(
    temperatures_c: tuple[float, ...], catalyst: str, duration_s: float
) -> list[dict]:
    from repro.process.catalyst import CO_CATALYST, FE_CATALYST
    from repro.process.growth import growth_temperature_sweep

    temperatures_k = [celsius_to_kelvin(t) for t in temperatures_c]
    results = growth_temperature_sweep(
        temperatures_k,
        catalyst={"Co": CO_CATALYST, "Fe": FE_CATALYST}[catalyst],
        duration=duration_s,
    )
    return [
        {
            "temperature_c": t_c,
            "mean_length_um": result.mean_length * 1e6,
            "quality": result.quality,
            "nucleation_yield": result.nucleation_yield,
            "walls": result.walls,
            "cmos_compatible": result.cmos_compatible,
        }
        for t_c, result in zip(temperatures_c, results)
    ]


@register_experiment(
    "wafer_uniformity",
    params=(
        ParamSpec("die_pitch_mm", "float", 20.0, "die spacing in mm"),
        ParamSpec("edge_drop", "float", 0.1, "fractional growth drop at the wafer edge"),
        ParamSpec("noise", "float", 0.02, "relative within-wafer noise (1-sigma)"),
        ParamSpec("seed", "int", 0, "random seed"),
    ),
    description="300 mm wafer CNT-growth uniformity map (Section II.B)",
    tags=("extension", "process"),
)
def _wafer_uniformity(
    die_pitch_mm: float, edge_drop: float, noise: float, seed: int
) -> list[dict]:
    from repro.process.wafer import simulate_wafer_growth

    wafer = simulate_wafer_growth(
        die_pitch=die_pitch_mm * 1e-3, edge_drop=edge_drop, noise=noise, seed=seed
    )
    return [
        {
            "n_dies": wafer.n_dies,
            "mean": wafer.mean,
            "uniformity": wafer.uniformity,
            "coefficient_of_variation": wafer.coefficient_of_variation,
        }
    ]


# --- Cu-CNT composite trade-off ----------------------------------------------


@register_experiment(
    "composite_tradeoff",
    params=(
        ParamSpec("width_nm", "float", 100.0, "line width in nm"),
        ParamSpec("height_nm", "float", 50.0, "line height in nm"),
        ParamSpec("length_um", "float", 10.0, "line length in um"),
        ParamSpec(
            "fractions",
            "floats",
            (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7),
            "CNT volume fractions to sweep",
        ),
    ),
    description="Cu-CNT composite resistivity/ampacity trade-off (Section II.C)",
    tags=("extension", "compact-model"),
    outputs=(
        OutputSpec("cnt_volume_fraction", "float", "CNT volume fraction"),
        OutputSpec("effective_resistivity", "float", "composite resistivity in ohm m"),
        OutputSpec("resistivity_penalty", "float", "resistivity ratio over pure Cu"),
        OutputSpec("ampacity_gain", "float", "max-current-density gain over pure Cu"),
        OutputSpec("max_current_density", "float", "composite ampacity in A/m^2"),
    ),
)
def _composite_tradeoff(
    width_nm: float, height_nm: float, length_um: float, fractions: tuple[float, ...]
) -> list[dict]:
    from repro.core.composite import tradeoff_sweep

    return tradeoff_sweep(nm(width_nm), nm(height_nm), um(length_um), list(fractions))


# --- TLM extraction round trip -----------------------------------------------


@register_experiment(
    "tlm",
    params=(
        ParamSpec("outer_diameter_nm", "float", 7.5, "MWCNT outer diameter in nm"),
        ParamSpec(
            "lengths_um",
            "floats",
            (1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
            "TLM structure lengths in um",
        ),
        ParamSpec("contact_resistance", "float", 30.0e3, "true extrinsic contact resistance in ohm"),
        ParamSpec("noise_fraction", "float", 0.02, "relative measurement noise (1-sigma)"),
        ParamSpec("seed", "int", 0, "random seed"),
    ),
    description="TLM contact/line-resistance extraction round trip (Section IV.B)",
    tags=("extension", "characterization"),
)
def _tlm(
    outer_diameter_nm: float,
    lengths_um: tuple[float, ...],
    contact_resistance: float,
    noise_fraction: float,
    seed: int,
) -> list[dict]:
    from repro.characterization.tlm import tlm_round_trip
    from repro.core import MWCNTInterconnect

    device = MWCNTInterconnect(outer_diameter=nm(outer_diameter_nm), length=um(2.0))
    extraction, true_contact, true_slope = tlm_round_trip(
        device,
        [um(length) for length in lengths_um],
        contact_resistance,
        noise_fraction,
        seed,
    )
    return [
        {
            "contact_resistance_kohm": extraction.contact_resistance / 1e3,
            "true_contact_resistance_kohm": true_contact / 1e3,
            "resistance_per_length_kohm_per_um": extraction.resistance_per_length / 1e9,
            "true_resistance_per_length_kohm_per_um": true_slope / 1e9,
            "r_squared": extraction.r_squared,
            "transfer_length_um": extraction.transfer_length() * 1e6,
        }
    ]


# --- self-heating -------------------------------------------------------------


@register_experiment(
    "self_heating",
    params=(
        ParamSpec("outer_diameter_nm", "float", 10.0, "MWCNT outer diameter in nm"),
        ParamSpec("length_um", "float", 2.0, "line length in um"),
        ParamSpec("current_ua", "float", 50.0, "drive current in uA"),
        ParamSpec("substrate_coupling", "float", 0.05, "substrate heat-sinking fraction"),
    ),
    description="Self-consistent Joule heating of a current-carrying CNT line",
    tags=("extension", "thermal"),
)
def _self_heating(
    outer_diameter_nm: float,
    length_um: float,
    current_ua: float,
    substrate_coupling: float,
) -> list[dict]:
    from repro.core import MWCNTInterconnect
    from repro.thermal import self_heating_analysis

    result = self_heating_analysis(
        MWCNTInterconnect(outer_diameter=nm(outer_diameter_nm), length=um(length_um)),
        current_ua * 1e-6,
        substrate_coupling,
    )
    return [
        {
            "peak_temperature_k": result.peak_temperature,
            "average_temperature_k": result.average_temperature,
            "resistance_ohm": result.resistance,
            "dissipated_power_uw": result.dissipated_power * 1e6,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    ]


# --- composite pipelines ------------------------------------------------------
#
# The experiments below consume upstream experiments' ResultSets instead of
# re-deriving them inline: the engine runs the upstream stage first (cached,
# shared between sweep points through the parameter bindings) and injects the
# artifact.  Each is registered as a named Study with a default sweep, so
# `python -m repro study run <name>` executes the whole DAG.


@register_experiment(
    "variability_delay",
    params=(
        ParamSpec("length_um", "float", 10.0, "interconnect length in um"),
        ParamSpec("outer_diameter_nm", "float", 10.0, "MWCNT outer diameter in nm"),
        ParamSpec("n_sigma", "float", 1.0, "variability corner in population sigmas"),
        ParamSpec("n_segments", "int", 8, "RC-ladder segments of the delay line"),
        ParamSpec("n_time_steps", "int", 300, "transient steps per delay simulation"),
    ),
    description="Circuit delay corners from the upstream variability population",
    tags=("study", "process", "circuit"),
    outputs=(
        OutputSpec("population", "str", "upstream population (pristine / doped)"),
        OutputSpec("corner", "str", "variability corner (fast / mean / slow)"),
        OutputSpec("resistance_kohm", "float", "corner line resistance in kohm"),
        OutputSpec("delay_ps", "float", "propagation delay at the corner in ps"),
        OutputSpec("delay_spread", "float", "corner delay / mean-corner delay"),
    ),
    consumes=(
        Consumes(
            "variability",
            inject="variability_result",
            bind={"length_um": "length_um"},
        ),
    ),
)
def _variability_delay(
    variability_result,
    length_um: float,
    outer_diameter_nm: float,
    n_sigma: float,
    n_segments: int,
    n_time_steps: int,
) -> list[dict]:
    """Circuit consequence of process variability: delay corners per population.

    The upstream ``variability`` experiment characterises the resistance
    distribution of a device population; this stage turns each population's
    mean +/- ``n_sigma`` corners into distributed-RC lines (capacitance from
    the MWCNT compact model) and measures the Fig. 11 inverter-line-inverter
    propagation delay at each corner.
    """
    from repro.circuit.delay import measure_inverter_line_delay_batch
    from repro.core import MWCNTInterconnect
    from repro.core.line import DistributedRC

    device = MWCNTInterconnect(
        outer_diameter=nm(outer_diameter_nm), length=um(length_um)
    )
    capacitance = device.capacitance_per_length * um(length_um)
    populations: list[tuple[str, dict[str, float]]] = []
    for row in variability_result.require_columns(
        "population", "mean_kohm", "std_kohm"
    ).to_records():
        mean_ohm = row["mean_kohm"] * 1e3
        sigma_ohm = row["std_kohm"] * 1e3
        corners = {
            "fast": max(mean_ohm - n_sigma * sigma_ohm, 0.05 * mean_ohm),
            "mean": mean_ohm,
            "slow": mean_ohm + n_sigma * sigma_ohm,
        }
        populations.append((row["population"], corners))

    # Every corner of every population in one stacked transient batch.
    measurements = iter(
        measure_inverter_line_delay_batch(
            [
                DistributedRC(
                    total_resistance=resistance,
                    total_capacitance=capacitance,
                    n_segments=n_segments,
                )
                for _, corners in populations
                for resistance in corners.values()
            ],
            n_time_steps=n_time_steps,
        )
    )
    records: list[dict] = []
    for population, corners in populations:
        delays = {corner: next(measurements).propagation_delay for corner in corners}
        for corner in ("fast", "mean", "slow"):
            records.append(
                {
                    "population": population,
                    "corner": corner,
                    "resistance_kohm": corners[corner] / 1e3,
                    "delay_ps": delays[corner] * 1e12,
                    "delay_spread": delays[corner] / delays["mean"],
                }
            )
    return records


@register_experiment(
    "wafer_window",
    params=(
        ParamSpec("catalyst", "str", "Co", "catalyst metal", choices=_CATALYSTS),
        ParamSpec("die_pitch_mm", "float", 20.0, "die spacing in mm"),
        ParamSpec("base_edge_drop", "float", 0.05, "edge drop at perfect nucleation"),
        ParamSpec("noise_floor", "float", 0.005, "wafer noise floor at quality 1"),
        ParamSpec("seed", "int", 0, "random seed of the wafer map"),
    ),
    description="Wafer-scale uniformity at the upstream growth window's optimum",
    tags=("study", "process"),
    outputs=(
        OutputSpec("temperature_c", "float", "selected growth temperature in Celsius"),
        OutputSpec("quality", "float", "growth quality at the selected temperature"),
        OutputSpec("nucleation_yield", "float", "nucleation yield at the optimum"),
        OutputSpec("cmos_compatible", "bool", "selected point is BEOL compatible"),
        OutputSpec("n_dies", "int", "dies on the 300 mm wafer map"),
        OutputSpec("uniformity", "float", "within-wafer uniformity (1 = perfect)"),
        OutputSpec("coefficient_of_variation", "float", "wafer-map sigma/mu"),
    ),
    consumes=(
        Consumes(
            "growth_window",
            inject="growth_result",
            bind={"catalyst": "catalyst"},
        ),
    ),
)
def _wafer_window(
    growth_result,
    catalyst: str,
    die_pitch_mm: float,
    base_edge_drop: float,
    noise_floor: float,
    seed: int,
) -> list[dict]:
    """Wafer uniformity evaluated at the best point of the growth window.

    Selects the highest-quality CMOS-compatible temperature from the upstream
    ``growth_window`` sweep (falling back to the overall best when nothing is
    BEOL compatible) and simulates the 300 mm wafer map there: the radial
    edge drop grows with the nucleation shortfall and the within-wafer noise
    with the quality shortfall, so a poor window shows up as a poor wafer.
    """
    from repro.process.wafer import simulate_wafer_growth

    rows = growth_result.require_columns(
        "temperature_c", "quality", "nucleation_yield", "cmos_compatible"
    ).to_records()
    compatible = [row for row in rows if row["cmos_compatible"]]
    best = max(compatible or rows, key=lambda row: row["quality"])
    edge_drop = base_edge_drop * (1.0 + (1.0 - best["nucleation_yield"]))
    noise = noise_floor + 0.08 * (1.0 - best["quality"])
    wafer = simulate_wafer_growth(
        die_pitch=die_pitch_mm * 1e-3, edge_drop=edge_drop, noise=noise, seed=seed
    )
    return [
        {
            "temperature_c": best["temperature_c"],
            "quality": best["quality"],
            "nucleation_yield": best["nucleation_yield"],
            "cmos_compatible": bool(best["cmos_compatible"]),
            "n_dies": wafer.n_dies,
            "uniformity": wafer.uniformity,
            "coefficient_of_variation": wafer.coefficient_of_variation,
        }
    ]


@register_experiment(
    "composite_fom",
    params=(
        ParamSpec("width_nm", "float", 100.0, "line width in nm"),
        ParamSpec("height_nm", "float", 50.0, "line height in nm"),
        ParamSpec("length_um", "float", 10.0, "line length in um"),
        ParamSpec(
            "fractions",
            "floats",
            (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7),
            "CNT volume fractions to evaluate",
        ),
        ParamSpec("lifetime_weight", "float", 0.5, "EM-lifetime exponent of the FoM"),
    ),
    description="EM-lifetime-weighted figure of merit over the composite trade-off",
    tags=("study", "compact-model", "reliability"),
    outputs=(
        OutputSpec("cnt_volume_fraction", "float", "CNT volume fraction"),
        OutputSpec("resistivity_penalty", "float", "resistivity ratio over pure Cu"),
        OutputSpec("ampacity_gain", "float", "ampacity gain over pure Cu"),
        OutputSpec("lifetime_gain", "float", "interpolated EM lifetime gain over Cu"),
        OutputSpec("figure_of_merit", "float", "ampacity x lifetime^w / resistivity"),
    ),
    consumes=(
        Consumes(
            "composite_tradeoff",
            inject="tradeoff_result",
            bind={
                "width_nm": "width_nm",
                "height_nm": "height_nm",
                "length_um": "length_um",
                "fractions": "fractions",
            },
        ),
        Consumes("em_lifetime", inject="lifetime_result"),
    ),
)
def _composite_fom(
    tradeoff_result,
    lifetime_result,
    width_nm: float,
    height_nm: float,
    length_um: float,
    fractions: tuple[float, ...],
    lifetime_weight: float,
) -> list[dict]:
    """Composite trade-off re-scored with the upstream EM-lifetime gains.

    Consumes two artifacts: the resistivity/ampacity trade-off curve and the
    Cu/CNT electromigration lifetimes.  The lifetime gain at each volume
    fraction is log-interpolated between the pure-Cu and pure-CNT endpoints
    (both materials follow Black's equation, so lifetime is exponential in
    composition) and folded into a single figure of merit
    ``ampacity_gain * lifetime_gain**w / resistivity_penalty``.
    """
    lifetimes = {
        row["material"]: row["lifetime_years"]
        for row in lifetime_result.require_columns(
            "material", "lifetime_years"
        ).to_records()
    }
    copper_years = lifetimes.get("copper", 0.0)
    cnt_years = lifetimes.get("cnt", 0.0)
    records: list[dict] = []
    for row in tradeoff_result.require_columns(
        "cnt_volume_fraction", "resistivity_penalty", "ampacity_gain"
    ).to_records():
        fraction = row["cnt_volume_fraction"]
        if copper_years > 0 and cnt_years > 0:
            # Log-linear in composition between the Cu (gain 1) and CNT ends.
            lifetime_gain = math.exp(fraction * math.log(cnt_years / copper_years))
        elif cnt_years > 0:
            lifetime_gain = float("inf") if fraction > 0 else 1.0
        else:
            lifetime_gain = float("nan")
        penalty = row["resistivity_penalty"]
        figure_of_merit = (
            row["ampacity_gain"] * lifetime_gain**lifetime_weight / penalty
            if penalty > 0
            else float("nan")
        )
        records.append(
            {
                "cnt_volume_fraction": fraction,
                "resistivity_penalty": penalty,
                "ampacity_gain": row["ampacity_gain"],
                "lifetime_gain": lifetime_gain,
                "figure_of_merit": figure_of_merit,
            }
        )
    return records


# --- registered studies -------------------------------------------------------

register_study(
    "variability_to_delay",
    target="variability_delay",
    description="Process variability -> device resistance -> circuit delay corners",
    params={"variability": {"n_devices": 200}},
    sweep=SweepSpec.grid(length_um=[5.0, 10.0, 20.0]),
    tags=("pipeline", "process", "circuit"),
)

register_study(
    "growth_to_wafer",
    target="wafer_window",
    description="Catalyst growth window -> 300 mm wafer uniformity at the optimum",
    sweep=SweepSpec.grid(seed=[0, 1, 2, 3], catalyst=["Co", "Fe"]),
    tags=("pipeline", "process"),
)

register_study(
    "composite_tradeoff_fom",
    target="composite_fom",
    description="Cu-CNT trade-off x EM lifetime -> composite figure of merit",
    sweep=SweepSpec.grid(length_um=[5.0, 10.0, 20.0], width_nm=[50.0, 100.0]),
    tags=("pipeline", "compact-model", "reliability"),
)

"""Registry definitions: every figure and table of the paper as an Experiment.

This module ports the driver functions of :mod:`repro.analysis` into the
experiment engine (:mod:`repro.api`).  Each registration declares a flat,
JSON-serialisable parameter surface (scalars and numeric tuples only) so that
sweeps, the on-disk cache and the CLI can manipulate parameters generically;
composite arguments of the underlying drivers -- ``TechnologyNode`` objects,
the ``DelayRatioStudy`` dataclass, diameter ranges -- are assembled inside
thin adapter functions.

Importing this module populates the global registry; ``repro.api`` does that
lazily via :func:`repro.api.experiment.ensure_registered`, so user code never
needs to import it explicitly.  Registering reads metadata only: each adapter
imports its driver (and with it numpy, scipy and the physics packages) when
it first runs, and the defaults that come from physics modules are written
here as literals (``tests/api/test_registry_snapshot.py`` checks them
against their sources).  ``list``, ``describe`` and the catalog therefore
start without loading a solver.  The experiment names follow the paper:

========================  =====================================================
``fig8a``                 ballistic conductance vs diameter
``fig8c``                 pristine vs doped SWCNT(7,7) conductance
``fig9``                  conductivity of CNT vs Cu lines vs length
``fig10_capacitance``     TCAD crosstalk capacitance extraction
``fig10_m1_m2``           TCAD M1/M2 crossing extraction
``fig10_resistance``      TCAD via resistance / current crowding
``fig12``                 doped-vs-pristine delay-ratio benchmark
``energy``                repeatered delay/energy/EDP design space (ext.)
``table_ampacity``        Section-I ampacity comparison
``table_thermal``         CNT vs Cu thermal conductivity / via advantage
``table_density``         minimum CNT density argument
``table_doping_resistance``  pristine vs doped MWCNT resistance table
========================  =====================================================

The extension studies the paper motivates in prose (crosstalk, EM lifetime,
variability, growth window, composite trade-off, TLM, self-heating) are
registered in :mod:`repro.analysis.studies`; the generated catalog of every
registered experiment is ``docs/EXPERIMENTS.md``.
"""

from __future__ import annotations

from repro.api.experiment import ParamSpec, register_experiment

_TECHNOLOGIES = ("14nm", "45nm")


# --- Fig. 8: atomistic conductance ------------------------------------------


@register_experiment(
    "fig8a",
    params=(
        ParamSpec("diameter_min_nm", "float", 0.5, "lower end of the diameter sweep"),
        ParamSpec("diameter_max_nm", "float", 3.0, "upper end of the diameter sweep"),
        ParamSpec("metallic_only", "bool", True, "restrict to metallic tubes"),
        ParamSpec("temperature", "float", 300.0, "temperature in kelvin"),
        ParamSpec("n_k", "int", 151, "k-points of the band-structure sampling"),
    ),
    description="Ballistic conductance vs diameter for SWCNT families (Fig. 8a)",
    tags=("figure", "atomistic"),
)
def _fig8a(
    diameter_min_nm: float,
    diameter_max_nm: float,
    metallic_only: bool,
    temperature: float,
    n_k: int,
) -> list[dict]:
    from repro.analysis.fig8_conductance import fig8a_records

    return fig8a_records(
        diameter_range_nm=(diameter_min_nm, diameter_max_nm),
        metallic_only=metallic_only,
        temperature=temperature,
        n_k=n_k,
    )


@register_experiment(
    "fig8c",
    params=(
        ParamSpec("n_k", "int", 301, "k-points of the band-structure sampling"),
        ParamSpec("temperature", "float", 300.0, "temperature in kelvin"),
    ),
    description="Pristine vs doped SWCNT(7,7) conductance (Fig. 8b/c, scalar summary)",
    tags=("figure", "atomistic"),
)
def _fig8c(n_k: int, temperature: float) -> list[dict]:
    from repro.analysis.fig8_conductance import fig8c_result

    result = fig8c_result(n_k=n_k, temperature=temperature)
    # Scalar projection of the rich legacy result: the staircase arrays stay
    # available through repro.analysis.fig8_conductance.fig8c_result().
    return [
        {
            "pristine_conductance_ms": result.pristine_conductance_ms,
            "doped_conductance_ms": result.doped_conductance_ms,
            "conductance_gain": result.doped_conductance_ms
            / result.pristine_conductance_ms,
            "fermi_shift_ev": result.fermi_shift_ev,
            "band_gap_ev": result.band_gap_ev,
        }
    ]


# --- Fig. 9: conductivity comparison ----------------------------------------


@register_experiment(
    "fig9",
    params=(
        ParamSpec(
            "lengths_um",
            "floats",
            # fig9_conductivity.DEFAULT_LENGTHS_UM, np.logspace(-2, 2, 17)
            (
                0.01, 0.01778279410038923, 0.03162277660168379,
                0.056234132519034905, 0.1, 0.1778279410038923,
                0.31622776601683794, 0.5623413251903491, 1.0,
                1.7782794100389228, 3.1622776601683795, 5.62341325190349,
                10.0, 17.78279410038923, 31.622776601683793,
                56.23413251903491, 100.0,
            ),
            "line lengths in um",
        ),
        ParamSpec("swcnt_diameter_nm", "float", 1.0, "SWCNT diameter in nm"),
        ParamSpec("mwcnt_diameters_nm", "floats", (10.0, 22.0), "MWCNT outer diameters in nm"),
        ParamSpec("copper_widths_nm", "floats", (20.0, 100.0), "Cu line widths in nm"),
        ParamSpec("include_cu_size_effects", "bool", True, "model Cu size effects"),
    ),
    description="Conductivity of SWCNT / MWCNT / Cu lines vs length (Fig. 9)",
    tags=("figure", "compact-model"),
)
def _fig9(**params) -> list[dict]:
    from repro.analysis.fig9_conductivity import fig9_records

    return fig9_records(**params)


# --- Fig. 10: TCAD extraction -----------------------------------------------


@register_experiment(
    "fig10_capacitance",
    params=(
        ParamSpec("technology", "str", "14nm", "technology node", choices=_TECHNOLOGIES),
        ParamSpec("n_lines", "int", 3, "number of parallel lines"),
        ParamSpec("resolution", "int", 4, "grid cells per feature"),
    ),
    description="TCAD crosstalk capacitance extraction of parallel lines (Fig. 10a)",
    tags=("figure", "tcad"),
)
def _fig10_capacitance(technology: str, n_lines: int, resolution: int) -> list[dict]:
    from repro.analysis.fig10_tcad import fig10_capacitance_summary
    from repro.circuit.technology import node_by_name

    summary = fig10_capacitance_summary(
        technology=node_by_name(technology), n_lines=n_lines, resolution=resolution
    )
    # Keep the scalar extraction results; the matrix, conductor handles and
    # SPICE netlist stay on ``fig10_capacitance_summary`` for callers that need them.
    return [
        {
            "technology": summary["technology"],
            "victim_total_af_per_um": summary["victim_total_af_per_um"],
            "victim_coupling_af_per_um": summary["victim_coupling_af_per_um"],
            "coupling_fraction": summary["coupling_fraction"],
            "is_physical": summary["is_physical"],
        }
    ]


@register_experiment(
    "fig10_m1_m2",
    params=(
        ParamSpec("technology", "str", "14nm", "technology node", choices=_TECHNOLOGIES),
        ParamSpec("resolution", "int", 3, "grid cells per feature"),
    ),
    description="TCAD M1/M2 crossing capacitance extraction (Fig. 10a, 3-D)",
    tags=("figure", "tcad"),
)
def _fig10_m1_m2(technology: str, resolution: int) -> list[dict]:
    from repro.analysis.fig10_tcad import fig10_m1_m2_summary
    from repro.circuit.technology import node_by_name

    return [fig10_m1_m2_summary(technology=node_by_name(technology), resolution=resolution)]


@register_experiment(
    "fig10_resistance",
    params=(
        ParamSpec("via_width_nm", "float", 30.0, "via hole width in nm"),
        ParamSpec("via_height_nm", "float", 60.0, "via height in nm"),
        ParamSpec("resolution_nm", "float", 7.5, "grid resolution in nm"),
    ),
    description="TCAD via resistance extraction with current crowding (Fig. 10b)",
    tags=("figure", "tcad"),
)
def _fig10_resistance(**params) -> dict:
    from repro.analysis.fig10_tcad import fig10_resistance_summary

    return fig10_resistance_summary(**params)


# --- Fig. 12: circuit-level delay-ratio benchmark ---------------------------


def _fig12_study(
    diameters_nm: tuple[float, ...],
    lengths_um: tuple[float, ...],
    channel_counts: tuple[float, ...],
    contact_resistance: float,
    technology: str,
    use_transient: bool,
    n_segments: int,
):
    from repro.analysis.fig12_delay_ratio import DelayRatioStudy
    from repro.circuit.technology import node_by_name

    return DelayRatioStudy(
        diameters_nm=tuple(diameters_nm),
        lengths_um=tuple(lengths_um),
        channel_counts=tuple(channel_counts),
        contact_resistance=contact_resistance,
        technology=node_by_name(technology),
        use_transient=use_transient,
        n_segments=n_segments,
    )


def _fig12_batch(params_list: list[dict]) -> list[list[dict]]:
    """Batched fig12 evaluator: stacked transients across sweep points."""
    from repro.analysis.fig12_delay_ratio import fig12_records_batch

    return fig12_records_batch([_fig12_study(**params) for params in params_list])


@register_experiment(
    "fig12",
    params=(
        ParamSpec("diameters_nm", "floats", (10.0, 14.0, 22.0), "MWCNT outer diameters in nm"),
        ParamSpec(
            "lengths_um",
            "floats",
            (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0),
            "interconnect lengths in um",
        ),
        ParamSpec(
            "channel_counts",
            "floats",
            (2.0, 4.0, 6.0, 8.0, 10.0),
            "channels per shell Nc (must include the pristine value 2)",
        ),
        ParamSpec(
            "contact_resistance",
            "float",
            250.0e3,  # fig12_delay_ratio.DEFAULT_CONTACT_RESISTANCE
            "metal-CNT contact resistance per line in ohm",
        ),
        ParamSpec("technology", "str", "45nm", "driver technology node", choices=_TECHNOLOGIES),
        ParamSpec("use_transient", "bool", True, "MNA transient (True) or Elmore (False)"),
        ParamSpec("n_segments", "int", 20, "RC-ladder segments per line"),
    ),
    description="Doped vs pristine MWCNT delay-ratio benchmark (Figs. 11-12)",
    tags=("figure", "circuit"),
    batch_fn=_fig12_batch,
)
def _fig12(
    diameters_nm: tuple[float, ...],
    lengths_um: tuple[float, ...],
    channel_counts: tuple[float, ...],
    contact_resistance: float,
    technology: str,
    use_transient: bool,
    n_segments: int,
) -> list[dict]:
    from repro.analysis.fig12_delay_ratio import fig12_records

    return fig12_records(
        _fig12_study(
            diameters_nm,
            lengths_um,
            channel_counts,
            contact_resistance,
            technology,
            use_transient,
            n_segments,
        )
    )


# --- extension: energy design space -----------------------------------------


@register_experiment(
    "energy",
    params=(
        ParamSpec(
            "lengths_um",
            "floats",
            (100.0, 200.0, 500.0, 1000.0, 2000.0),
            "wire lengths in um",
        ),
        ParamSpec("technology", "str", "45nm", "driver technology node", choices=_TECHNOLOGIES),
        ParamSpec("mwcnt_diameter_nm", "float", 14.0, "MWCNT outer diameter in nm"),
        ParamSpec("doped_channels", "float", 10.0, "channels per shell of the doped wire"),
        ParamSpec("contact_resistance", "float", 20.0e3, "engineered contact resistance in ohm"),
    ),
    description="Delay / energy / EDP of optimally repeated lines (extension E12)",
    tags=("extension", "circuit"),
)
def _energy(
    lengths_um: tuple[float, ...],
    technology: str,
    mwcnt_diameter_nm: float,
    doped_channels: float,
    contact_resistance: float,
) -> list[dict]:
    from repro.analysis.energy import run_energy_study
    from repro.circuit.technology import node_by_name

    return run_energy_study(
        lengths_um=tuple(lengths_um),
        technology=node_by_name(technology),
        mwcnt_diameter_nm=mwcnt_diameter_nm,
        doped_channels=doped_channels,
        contact_resistance=contact_resistance,
    )


# --- prose tables -----------------------------------------------------------


@register_experiment(
    "table_ampacity",
    description="Section-I ampacity comparison: Cu EM limit vs CNT breakdown",
    tags=("table",),
)
def _table_ampacity() -> list[dict]:
    from repro.analysis.tables import ampacity_table

    return ampacity_table()


@register_experiment(
    "table_thermal",
    params=(
        ParamSpec("via_diameter_nm", "float", 100.0, "via diameter in nm"),
        ParamSpec("via_height_nm", "float", 200.0, "via height in nm"),
    ),
    description="CNT vs Cu thermal conductivity and via advantage",
    tags=("table", "thermal"),
)
def _table_thermal(**params) -> list[dict]:
    from repro.analysis.tables import thermal_table

    return thermal_table(**params)


@register_experiment(
    "table_density",
    params=(ParamSpec("length_um", "float", 10.0, "line length in um"),),
    description="Minimum CNT density needed to compete with the Cu line",
    tags=("table",),
)
def _table_density(**params) -> list[dict]:
    from repro.analysis.tables import density_table

    return density_table(**params)


@register_experiment(
    "table_doping_resistance",
    params=(
        ParamSpec("lengths_um", "floats", (1.0, 10.0, 100.0, 500.0), "line lengths in um"),
    ),
    description="Pristine vs doped MWCNT resistance vs length",
    tags=("table", "compact-model"),
)
def _table_doping_resistance(**params) -> list[dict]:
    from repro.analysis.tables import doping_resistance_table

    return doping_resistance_table(**params)

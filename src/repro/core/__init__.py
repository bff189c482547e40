"""CNT interconnect compact models (the paper's core contribution).

This subpackage implements the resistance / capacitance / inductance compact
models of Section III.C of the paper together with the copper reference
models they are benchmarked against:

* :mod:`repro.core.swcnt` -- single-wall CNT per-unit-length RLC model,
* :mod:`repro.core.mwcnt` -- multi-wall CNT shell filling and the doped
  RC compact model of Eqs. (4)-(5),
* :mod:`repro.core.doping` -- doping enhancement factor (channels per shell),
* :mod:`repro.core.copper` -- copper resistivity with size effects and the
  electromigration-limited ampacity,
* :mod:`repro.core.electrostatics` -- geometry-dependent electrostatic
  capacitance :math:`C_E`,
* :mod:`repro.core.bundle` -- SWCNT bundle (via / line) models,
* :mod:`repro.core.composite` -- Cu-CNT composite effective-medium model,
* :mod:`repro.core.ampacity` -- current-carrying-capacity comparisons,
* :mod:`repro.core.kinetic` -- kinetic and magnetic inductance,
* :mod:`repro.core.line` -- a unified :class:`~repro.core.line.InterconnectLine`
  front end that turns any of the above materials into lumped or distributed
  RC descriptions for the circuit simulator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "swcnt": ("SWCNTInterconnect",),
        "mwcnt": ("MWCNTInterconnect", "ShellFillingRule"),
        "doping": ("DopingProfile", "channels_per_shell_from_fermi_shift"),
        "copper": ("CopperInterconnect", "copper_resistivity"),
        "electrostatics": (
            "wire_over_plane_capacitance",
            "wire_between_planes_capacitance",
            "coupled_line_capacitance",
            "parallel_plate_capacitance",
        ),
        "bundle": ("SWCNTBundle",),
        "composite": ("CuCNTComposite",),
        "ampacity": (
            "max_current_cnt",
            "max_current_copper_line",
            "ampacity_comparison",
        ),
        "kinetic": ("kinetic_inductance", "magnetic_inductance_over_plane"),
        "line": (
            "Conductor",
            "DistributedRC",
            "InterconnectLine",
            "LineMaterial",
            "conductor_record",
        ),
    },
)

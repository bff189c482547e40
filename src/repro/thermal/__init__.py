"""Thermal substrate: conductivity models, self-heating and SThM emulation.

Section IV.B of the paper motivates thermal studies of CNT interconnects:
their thermal conductivity (3000-10000 W/mK versus 385 W/mK for copper) can
relieve thermal design constraints, self-heating of MWCNT lines is studied by
scanning thermal microscopy (SThM), and thermal conductivity is extracted
from those measurements.  This subpackage provides:

* :mod:`repro.thermal.conductivity` -- CNT / Cu thermal conductivity models,
* :mod:`repro.thermal.heat1d` -- a 1-D steady-state heat solver for powered
  interconnect lines,
* :mod:`repro.thermal.selfheating` -- coupled electro-thermal iteration
  (Joule heating vs temperature-dependent resistance),
* :mod:`repro.thermal.sthm` -- scanning-thermal-microscopy measurement
  emulation and conductivity extraction,
* :mod:`repro.thermal.via` -- thermal resistance of Cu versus CNT vias.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "conductivity": (
            "cnt_thermal_conductivity",
            "copper_thermal_conductivity",
            "bundle_thermal_conductivity",
        ),
        "heat1d": ("HeatLineProblem", "solve_heat_line"),
        "selfheating": ("ElectroThermalResult", "self_heating_analysis"),
        "sthm": ("SThMScan", "simulate_sthm_scan", "extract_thermal_conductivity"),
        "via": ("via_thermal_resistance", "via_temperature_rise"),
    },
)

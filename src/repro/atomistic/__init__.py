"""Atomistic transport models for single-wall carbon nanotubes.

This subpackage is the reproduction's substitute for the paper's DFT/NEGF
simulations (Section III.A, Fig. 8).  It implements:

* :mod:`repro.atomistic.chirality` -- chiral indices, diameter, metallicity,
  translation vector and unit-cell bookkeeping,
* :mod:`repro.atomistic.graphene` -- the graphene pi-band tight-binding
  dispersion that zone folding is built on,
* :mod:`repro.atomistic.bandstructure` -- zone-folded CNT band structures,
* :mod:`repro.atomistic.transmission` -- Landauer transmission (channel
  counting) versus energy,
* :mod:`repro.atomistic.dos` -- density of states with van Hove singularities,
* :mod:`repro.atomistic.conductance` -- ballistic conductance versus diameter
  and temperature (Fig. 8a),
* :mod:`repro.atomistic.doping` -- rigid-band charge-transfer doping
  (Fig. 8b/c: iodine doping of SWCNT(7,7)).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "chirality": ("Chirality",),
        "bandstructure": ("BandStructure", "compute_band_structure"),
        "transmission": ("transmission_function", "channels_at_energy"),
        "conductance": (
            "ballistic_conductance",
            "conducting_channels",
            "conductance_vs_diameter",
        ),
        "dos": ("density_of_states",),
        "doping": (
            "DopedTube",
            "doped_conductance",
            "fermi_shift_for_target_conductance",
        ),
    },
)

"""Process & growth substrate: CVD growth, doping stability and variability.

Section II of the paper covers the process side of CNT interconnects: CVD
growth of single MWCNTs in via holes, the variability caused by chirality and
defects, internal versus external charge-transfer doping, CMOS-compatible
cobalt-catalyst growth below 400 C, 300 mm wafer-scale uniformity and Cu-CNT
composite formation.  These are physical experiments; the reproduction
replaces them with calibrated stochastic models that feed the same
downstream analyses (variability of resistance, doping stability, growth
windows, wafer maps):

* :mod:`repro.process.growth` -- CVD growth kinetics versus temperature and catalyst,
* :mod:`repro.process.catalyst` -- Fe / Co catalyst models and the CMOS budget check,
* :mod:`repro.process.chirality_dist` -- chirality and diameter sampling,
* :mod:`repro.process.defects` -- defect density versus growth temperature,
* :mod:`repro.process.doping_process` -- internal vs external doping stability,
* :mod:`repro.process.variability` -- Monte-Carlo resistance variability,
* :mod:`repro.process.wafer` -- 300 mm wafer uniformity maps,
* :mod:`repro.process.composite_process` -- ELD/ECD Cu fill of CNT bundles.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "growth": ("GrowthRecipe", "GrowthResult", "simulate_growth"),
        "catalyst": ("Catalyst", "FE_CATALYST", "CO_CATALYST", "cmos_compatible"),
        "chirality_dist": ("ChiralityDistribution", "sample_tubes"),
        "defects": ("defect_density", "defect_limited_mfp"),
        "doping_process": ("DopingStabilityModel", "doping_retention"),
        "variability": ("VariabilityResult", "resistance_variability"),
        "wafer": ("WaferMap", "simulate_wafer_growth"),
        "composite_process": ("FillProcess", "simulate_fill"),
    },
)

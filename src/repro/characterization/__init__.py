"""Characterization & electrical measurement emulation (paper Section IV).

The paper's fourth pillar is measurement: a dedicated test layout for
electromigration studies, transmission-line measurements (TLM) to separate
contact resistance from the CNT resistance per unit length, I-V
characterisation of doped devices (Fig. 2d) and thermal mapping.  Since no
probe station is available to a reproduction, this subpackage provides both
the *extraction algorithms* the paper describes and synthetic-measurement
generators driven by the physical models, so the full measure-then-extract
loop can be exercised:

* :mod:`repro.characterization.tlm` -- transmission-line measurement extraction,
* :mod:`repro.characterization.iv` -- I-V sweeps, breakdown, doping before/after,
* :mod:`repro.characterization.electromigration` -- Black's-equation lifetimes
  and ampacity stress tests,
* :mod:`repro.characterization.test_layout` -- the Fig. 13a test-structure
  layout generator,
* :mod:`repro.characterization.raman` -- Raman D/G defect metric emulation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tlm": ("TLMExtraction", "simulate_tlm_data", "extract_tlm"),
        "iv": ("IVSweep", "simulate_iv_sweep", "doping_comparison_iv"),
        "electromigration": ("blacks_lifetime", "em_stress_test", "EMStressResult"),
        "test_layout": ("TestLayout", "generate_test_layout"),
        "raman": ("simulate_raman_spectrum", "d_over_g_ratio"),
    },
)

"""repro: reproduction of "Progress on Carbon Nanotube BEOL Interconnects".

The package mirrors the paper's structure (Uhlig et al., DATE 2018):

* :mod:`repro.atomistic` -- tight-binding transport (the DFT/NEGF substitute
  behind Fig. 8),
* :mod:`repro.core` -- CNT / Cu / composite interconnect compact models
  (Eqs. 4-5, Fig. 9 and the Section I comparisons),
* :mod:`repro.tcad` -- finite-difference RC extraction (Eqs. 2-3, Fig. 10),
* :mod:`repro.circuit` -- MNA circuit simulation and the 45 nm inverter
  benchmark (Figs. 11-12),
* :mod:`repro.thermal` -- self-heating, SThM emulation and via thermal models,
* :mod:`repro.process` -- growth, doping stability, variability and wafer maps,
* :mod:`repro.characterization` -- TLM / I-V / electromigration / Raman
  measurement emulation,
* :mod:`repro.analysis` -- experiment drivers that regenerate every figure
  and table plus the registered extension studies (catalog in
  docs/EXPERIMENTS.md),
* :mod:`repro.api` -- the experiment engine: registry, declarative sweeps,
  columnar results, parallel/streaming execution, the on-disk result cache
  and the ``python -m repro`` CLI.

Model quick start::

    from repro.core import MWCNTInterconnect, DopingProfile
    from repro.units import nm, um

    pristine = MWCNTInterconnect(outer_diameter=nm(10), length=um(500))
    doped = pristine.with_doping(DopingProfile.from_channels(10))
    print(pristine.resistance, doped.resistance)

Experiment quick start::

    from repro.api import Engine, SweepSpec

    engine = Engine()
    fig9 = engine.run("fig9")
    print(fig9.filter(kind="Cu").column("conductivity_ms_per_m"))

    sweep = engine.sweep(
        "table_density", SweepSpec.grid(length_um=[1.0, 10.0, 100.0])
    )
    print(len(sweep))

or, from the shell, ``python -m repro list`` / ``python -m repro run fig9``
(``python -m repro cache stats`` inspects the memoisation cache, and
``python -m repro docs`` regenerates the experiment catalog).
"""

from repro import constants, units
from repro._lazy import lazy_exports

__version__ = "1.1.0"

_names, __getattr__, __dir__ = lazy_exports(
    __name__, {"api": ("Engine", "Experiment", "ResultSet", "SweepSpec")}
)
__all__ = ["constants", "units", *_names, "__version__"]

"""Experiment drivers that regenerate the paper's figures and tables.

Each module corresponds to one experiment of the DESIGN.md index (E1-E11).
The drivers are registered into the experiment engine (:mod:`repro.api`):
figure/table registrations live in :mod:`repro.analysis.experiments`, the
extension studies (crosstalk, EM lifetime, variability, growth window,
composite trade-off, TLM, self-heating) in :mod:`repro.analysis.studies`.
All of them are normally executed through the engine::

    from repro.api import Engine

    records = Engine().run("table_ampacity").to_records()
    print(len(records))

The generated catalog of every registered experiment is
``docs/EXPERIMENTS.md`` (regenerate with ``python -m repro docs``).  The
functions behind the figure experiments (``fig8a_records``,
``fig8c_result``, ``fig9_records``, the ``fig10_*`` summaries and
``fig12_records``) stay importable for direct use; the package imports each
one on first access, so importing :mod:`repro.analysis` (as registering the
experiments does) loads no driver.  No plotting library is used;
:mod:`repro.analysis.report` renders results as text tables.
"""

import importlib

# Each re-export and the module that defines it.  They are imported on first
# access (PEP 562), so registering the experiments imports no driver.
_EXPORTS = {
    "PAPER_REFERENCE": "paper_reference",
    "format_table": "report",
    "fig8a_records": "fig8_conductance",
    "fig8c_result": "fig8_conductance",
    "fig9_records": "fig9_conductivity",
    "fig10_capacitance_summary": "fig10_tcad",
    "fig10_m1_m2_summary": "fig10_tcad",
    "fig10_resistance_summary": "fig10_tcad",
    "fig12_records": "fig12_delay_ratio",
    "DelayRatioStudy": "fig12_delay_ratio",
    "summarize_at_length": "fig12_delay_ratio",
    "ampacity_table": "tables",
    "thermal_table": "tables",
    "density_table": "tables",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value

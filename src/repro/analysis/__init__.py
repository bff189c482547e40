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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "paper_reference": ("PAPER_REFERENCE",),
        "report": ("format_table",),
        "fig8_conductance": ("fig8a_records", "fig8c_result"),
        "fig9_conductivity": ("fig9_records",),
        "fig10_tcad": (
            "fig10_capacitance_summary",
            "fig10_m1_m2_summary",
            "fig10_resistance_summary",
        ),
        "fig12_delay_ratio": ("fig12_records", "DelayRatioStudy", "summarize_at_length"),
        "tables": ("ampacity_table", "thermal_table", "density_table"),
    },
)

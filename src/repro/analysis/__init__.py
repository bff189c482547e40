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
``fig12_records``) stay importable for direct use.  No plotting library is
used; :mod:`repro.analysis.report` renders results as text tables.
"""

from repro.analysis.paper_reference import PAPER_REFERENCE
from repro.analysis.report import format_table
from repro.analysis.fig8_conductance import fig8a_records, fig8c_result
from repro.analysis.fig9_conductivity import fig9_records
from repro.analysis.fig10_tcad import (
    fig10_capacitance_summary,
    fig10_m1_m2_summary,
    fig10_resistance_summary,
)
from repro.analysis.fig12_delay_ratio import (
    DelayRatioStudy,
    fig12_records,
    summarize_at_length,
)
from repro.analysis.tables import ampacity_table, thermal_table, density_table

__all__ = [
    "PAPER_REFERENCE",
    "format_table",
    "fig8a_records",
    "fig8c_result",
    "fig9_records",
    "fig10_capacitance_summary",
    "fig10_m1_m2_summary",
    "fig10_resistance_summary",
    "fig12_records",
    "DelayRatioStudy",
    "summarize_at_length",
    "ampacity_table",
    "thermal_table",
    "density_table",
]

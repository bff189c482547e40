"""Ablation A5 -- copper size effects in the Fig. 9 comparison.

Fig. 9's message (CNTs overtake scaled copper for long lines) relies on the
copper reference including surface and grain-boundary scattering.  The
ablation quantifies how much of the CNT advantage comes from those size
effects: against ideal bulk-resistivity copper the crossover moves to much
longer lines (or disappears for small-diameter CNTs).
"""

import numpy as np

from repro.analysis.fig9_conductivity import crossover_length_um, fig9_records

LENGTHS_UM = tuple(np.logspace(-2, 2, 13))


def test_ablation_copper_size_effects(benchmark):
    def sweep():
        return {
            "with_size_effects": fig9_records(lengths_um=LENGTHS_UM, include_cu_size_effects=True),
            "bulk_copper": fig9_records(lengths_um=LENGTHS_UM, include_cu_size_effects=False),
        }

    results = benchmark(sweep)

    crossover_real = crossover_length_um(
        results["with_size_effects"], "MWCNT D=22nm", "Cu w=20nm"
    )
    crossover_bulk = crossover_length_um(results["bulk_copper"], "MWCNT D=22nm", "Cu w=20nm")

    print()
    print(f"crossover vs scaled Cu (size effects on):  {crossover_real} um")
    print(f"crossover vs ideal bulk Cu:                {crossover_bulk} um")

    assert crossover_real is not None
    # Removing the size effects makes copper strictly better, so the crossover
    # can only move to longer lengths or disappear.
    if crossover_bulk is not None:
        assert crossover_bulk >= crossover_real

    # The copper conductivity itself improves when size effects are disabled.
    def copper_at(records, length):
        return next(
            r["conductivity_ms_per_m"]
            for r in records
            if r["line"] == "Cu w=20nm" and abs(r["length_um"] - length) < 1e-9
        )

    assert copper_at(results["bulk_copper"], 1.0) > copper_at(results["with_size_effects"], 1.0)

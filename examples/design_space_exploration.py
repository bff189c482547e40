#!/usr/bin/env python
"""Design-space exploration through the experiment engine.

The paper's abstract promises "prospects for designing energy efficient
integrated circuits" and its conclusion calls for design-space exploration on
top of the CNT models.  This example answers three such questions, now
phrased as declarative sweeps over the registered ``energy`` experiment:

1. For a given wire length, which material (Cu, pristine MWCNT, doped MWCNT,
   Cu-CNT composite) gives the best delay / energy / energy-delay product once
   each line is optimally repeated?
2. How sensitive is the ranking to the metal-CNT contact resistance?  (A
   ``SweepSpec.grid`` over the contact-resistance axis, answered from one
   columnar ResultSet.)
3. How do Cu, CNT-bundle and composite through-silicon vias compare for 3-D
   integration (resistance, ampacity, thermal resistance)?

Run with ``python examples/design_space_exploration.py``.  The equivalent
shell commands::

    python -m repro run energy -p lengths_um=100,500,1000,2000
    python -m repro sweep energy --grid contact_resistance=5e3,20e3,100e3
"""

from repro.analysis.energy import best_material_per_length
from repro.analysis.report import format_table
from repro.api import Engine, SweepSpec
from repro.core.tsv import tsv_comparison


def main() -> None:
    lengths = (100.0, 500.0, 1000.0, 2000.0)
    engine = Engine()

    print("1) Optimally repeated wires (45 nm node drivers)")
    result = engine.run("energy", lengths_um=lengths)
    print(format_table(result.to_records(), title="delay / energy / EDP of repeated lines"))
    for metric, label in (("delay_ps", "delay"), ("energy_fJ", "energy"), ("edp_fJ_ns", "EDP")):
        winners = best_material_per_length(result.to_records(), metric=metric)
        summary = ", ".join(f"{length:g} um: {name}" for length, name in winners.items())
        print(f"   best {label}: {summary}")
    print()

    print("2) Contact-resistance sensitivity of the 500 um EDP ranking")
    sweep = engine.sweep(
        "energy",
        SweepSpec.grid(contact_resistance=[5.0e3, 20.0e3, 100.0e3, 250.0e3]),
        base_params={"lengths_um": (500.0,)},
    )
    for resistance, group in sweep.group_by("contact_resistance").items():
        ranked = group.sorted_by("edp_fJ_ns")
        best = ranked[0]
        print(
            f"   Rc = {resistance/1e3:5.0f} kOhm: best EDP {best['line']:16s}"
            f" ({best['edp_fJ_ns']:.3g} fJ ns)"
        )
    print(
        f"   ({len(sweep)} records from {sweep.meta['sweep']['n_points']} sweep points,"
        f" executor: {sweep.meta['executor']})"
    )
    print()

    print("3) Through-silicon vias for 3-D integration (5 um diameter, 50 um deep)")
    print(format_table(tsv_comparison(), title="Cu vs CNT vs Cu-CNT composite TSV"))
    print()
    print("The CNT TSV trades a higher resistance for ~100x the current-carrying")
    print("capability and an order of magnitude lower thermal resistance; the")
    print("composite recovers most of the resistance while keeping both benefits —")
    print("the paper's Section I argument for CNTs in 3-D integration.")


if __name__ == "__main__":
    main()

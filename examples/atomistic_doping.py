#!/usr/bin/env python
"""Atomistic-to-compact-model doping workflow (Fig. 8 to Eq. 4).

Walks the paper's modelling chain from the bottom up:

1. zone-folded band structure and metallicity of a few SWCNTs,
2. ballistic conductance versus diameter at 300 K (Fig. 8a),
3. charge-transfer doping of SWCNT(7,7): Fermi shift, conductance staircase
   and the 0.155 mS -> 0.387 mS step (Fig. 8b/c),
4. conversion of the doped channel count into the compact-model knob ``Nc``
   and the resulting MWCNT resistance reduction (Eq. 4).

Run with ``python examples/atomistic_doping.py``.
"""

from repro.analysis.fig8_conductance import fig8a_records, fig8c_result
from repro.analysis.report import format_table
from repro.atomistic import Chirality, compute_band_structure
from repro.core import MWCNTInterconnect
from repro.core.doping import DopingProfile, channels_per_shell_from_fermi_shift
from repro.units import nm, um


def main() -> None:
    print("1) Band structures (zone-folded tight binding)")
    rows = []
    for indices in [(7, 7), (9, 0), (10, 0), (13, 0)]:
        tube = Chirality(*indices)
        bands = compute_band_structure(tube, n_k=201)
        rows.append(
            {
                "tube": str(tube),
                "family": tube.family,
                "diameter_nm": tube.diameter * 1e9,
                "metallic": tube.is_metallic,
                "band_gap_eV": bands.band_gap(),
            }
        )
    print(format_table(rows))
    print()

    print("2) Ballistic conductance vs diameter at 300 K (Fig. 8a, metallic tubes)")
    sweep = fig8a_records(diameter_range_nm=(0.5, 2.2), n_k=101)
    print(format_table(sweep[:12]))
    print("   ... Nc stays ~2 for every metallic tube, independent of diameter/chirality.")
    print()

    print("3) Iodine doping of SWCNT(7,7) (Fig. 8b/c)")
    result = fig8c_result(n_k=201)
    print(
        f"   pristine G = {result.pristine_conductance_ms:.3f} mS (paper 0.155 mS), "
        f"doped G = {result.doped_conductance_ms:.3f} mS (paper 0.387 mS)"
    )
    print(
        f"   rigid-band Fermi shift used: {result.fermi_shift_ev:.2f} eV "
        "(the paper's DFT reports -0.6 eV; the tight-binding substitute needs a larger"
    )
    print("   shift to open the next subbands because it has no dopant-induced states).")
    print()

    print("4) From the atomistic picture to the compact model (Eq. 4)")
    channels = channels_per_shell_from_fermi_shift(Chirality(7, 7), result.fermi_shift_ev)
    profile = DopingProfile.from_channels(channels, dopant="iodine")
    pristine_line = MWCNTInterconnect(outer_diameter=nm(10), length=um(500))
    doped_line = pristine_line.with_doping(profile)
    print(
        f"   channels per shell Nc = {channels:.1f}; "
        f"MWCNT (D = 10 nm, L = 500 um) resistance "
        f"{pristine_line.resistance/1e3:.1f} kOhm -> {doped_line.resistance/1e3:.1f} kOhm"
    )


if __name__ == "__main__":
    main()

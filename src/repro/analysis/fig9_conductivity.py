"""Experiment E3 driver: conductivity of CNT versus Cu lines (paper Fig. 9).

Fig. 9 compares the electrical conductivity of SWCNT and MWCNT lines of
different lengths and diameters against copper lines.  The characteristic
shape: CNT effective conductivity rises with length (the fixed quantum /
contact resistance is amortised) and eventually exceeds that of narrow
copper lines, whose conductivity is length independent but degraded by size
effects; larger-diameter MWCNTs reach higher conductivities because more
shells conduct in parallel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.copper import CopperInterconnect
from repro.core.line import Conductor
from repro.core.mwcnt import MWCNTInterconnect
from repro.core.swcnt import SWCNTInterconnect


DEFAULT_LENGTHS_UM = tuple(np.logspace(-2, 2, 17))
"""Default length sweep from 10 nm to 100 um."""


def _line_factories(
    swcnt_diameter_nm: float,
    mwcnt_diameters_nm: tuple[float, ...],
    copper_widths_nm: tuple[float, ...],
    include_cu_size_effects: bool,
) -> list[tuple[str, str, Callable[[float], Conductor]]]:
    """(label, kind, length -> Conductor) for every line of the comparison.

    Every material is handled through the shared :class:`Conductor` protocol,
    so adding a line type to Fig. 9 is one more factory entry.
    """
    factories: list[tuple[str, str, Callable[[float], Conductor]]] = [
        (
            f"SWCNT d={swcnt_diameter_nm:g}nm",
            "SWCNT",
            lambda length, d=swcnt_diameter_nm: SWCNTInterconnect(
                diameter=d * 1e-9, length=length
            ),
        )
    ]
    for diameter_nm in mwcnt_diameters_nm:
        factories.append(
            (
                f"MWCNT D={diameter_nm:g}nm",
                "MWCNT",
                lambda length, d=diameter_nm: MWCNTInterconnect(
                    outer_diameter=d * 1e-9, length=length
                ),
            )
        )
    for width_nm in copper_widths_nm:
        factories.append(
            (
                f"Cu w={width_nm:g}nm",
                "Cu",
                lambda length, w=width_nm: CopperInterconnect(
                    width=w * 1e-9,
                    height=w * 1e-9,
                    length=length,
                    include_size_effects=include_cu_size_effects,
                ),
            )
        )
    return factories


def fig9_records(
    lengths_um: tuple[float, ...] = DEFAULT_LENGTHS_UM,
    swcnt_diameter_nm: float = 1.0,
    mwcnt_diameters_nm: tuple[float, ...] = (10.0, 22.0),
    copper_widths_nm: tuple[float, ...] = (20.0, 100.0),
    include_cu_size_effects: bool = True,
) -> list[dict]:
    """Conductivity of SWCNT / MWCNT / Cu lines versus length (Fig. 9).

    Returns one record per (line type, length) with the effective
    conductivity in MS/m referred to the line cross-section, which is the
    quantity Fig. 9 plots.

    Parameters
    ----------
    lengths_um:
        Line lengths in micrometre.
    swcnt_diameter_nm:
        SWCNT diameter in nanometre.
    mwcnt_diameters_nm:
        MWCNT outer diameters in nanometre.
    copper_widths_nm:
        Copper line widths in nanometre (height = width for the comparison).
    include_cu_size_effects:
        Ablation knob: disable to compare against bulk-resistivity copper.
    """
    factories = _line_factories(
        swcnt_diameter_nm,
        tuple(mwcnt_diameters_nm),
        tuple(copper_widths_nm),
        include_cu_size_effects,
    )
    records: list[dict] = []
    for length_um in lengths_um:
        length = float(length_um) * 1e-6
        for label, kind, factory in factories:
            records.append(
                {
                    "line": label,
                    "kind": kind,
                    "length_um": float(length_um),
                    "conductivity_ms_per_m": factory(length).effective_conductivity / 1e6,
                }
            )
    return records


def crossover_length_um(
    records: list[dict], cnt_line: str, copper_line: str
) -> float | None:
    """Length (um) above which a CNT line out-conducts a copper line.

    Returns None if the CNT line never overtakes the copper line within the
    swept range -- the Fig. 9 message is that it does for long lines.
    """
    cnt = sorted(
        (r for r in records if r["line"] == cnt_line), key=lambda r: r["length_um"]
    )
    copper = {r["length_um"]: r for r in records if r["line"] == copper_line}
    for record in cnt:
        reference = copper.get(record["length_um"])
        if reference is None:
            continue
        if record["conductivity_ms_per_m"] >= reference["conductivity_ms_per_m"]:
            return float(record["length_um"])
    return None

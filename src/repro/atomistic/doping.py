"""Rigid-band charge-transfer doping of SWCNTs (paper Fig. 8b/c).

The paper's DFT calculations show that an iodine dopant inside SWCNT(7,7)
acts as a p-type dopant: the Fermi level shifts *down* by about 0.6 eV and the
ballistic conductance increases from 0.155 mS (2 channels) to 0.387 mS
(5 channels).  The reproduction models charge-transfer doping in the
rigid-band approximation: the band structure of the pristine tube is kept and
the Fermi level is shifted by the dopant-induced charge transfer.  Moving the
Fermi level into regions of higher subband density opens additional
conduction channels, exactly the mechanism the paper's compact model captures
with the doping enhancement factor ``Nc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atomistic.bandstructure import BandStructure, compute_band_structure
from repro.atomistic.chirality import Chirality
from repro.atomistic.conductance import ballistic_conductance
from repro.constants import QUANTUM_CONDUCTANCE, ROOM_TEMPERATURE

IODINE_FERMI_SHIFT_EV = -0.6
"""Fermi-level shift reported by the paper for iodine doping of SWCNT(7,7)."""


@dataclass(frozen=True)
class DopedTube:
    """A SWCNT together with a rigid-band doping level.

    Attributes
    ----------
    chirality:
        Tube chirality.
    fermi_shift_ev:
        Rigid Fermi-level shift in eV.  Negative values are p-type (iodine,
        PtCl4); positive values are n-type.
    dopant:
        Free-text dopant label (e.g. ``"iodine"`` or ``"PtCl4"``).
    """

    chirality: Chirality
    fermi_shift_ev: float
    dopant: str = "iodine"

    def band_structure(self, n_k: int = 201) -> BandStructure:
        """Band structure with the shifted Fermi level."""
        return compute_band_structure(self.chirality, n_k=n_k).shifted(self.fermi_shift_ev)

    def conductance(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Ballistic conductance of the doped tube in siemens."""
        return doped_conductance(
            self.chirality, self.fermi_shift_ev, temperature=temperature, n_k=n_k
        )

    def channels(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Number of conducting channels of the doped tube."""
        return self.conductance(temperature=temperature, n_k=n_k) / QUANTUM_CONDUCTANCE

    def enhancement_factor(self, temperature: float = ROOM_TEMPERATURE, n_k: int = 201) -> float:
        """Conductance ratio doped / pristine (the compact-model boost)."""
        pristine = ballistic_conductance(self.chirality, temperature=temperature, n_k=n_k)
        if pristine <= 0.0:
            return float("inf")
        return self.conductance(temperature=temperature, n_k=n_k) / pristine


def doped_conductance(
    chirality: Chirality,
    fermi_shift_ev: float,
    temperature: float = ROOM_TEMPERATURE,
    n_k: int = 201,
) -> float:
    """Ballistic conductance of a tube with a rigidly shifted Fermi level (S)."""
    return ballistic_conductance(
        chirality, temperature=temperature, fermi_level_ev=fermi_shift_ev, n_k=n_k
    )


def channels_after_doping(
    chirality: Chirality,
    fermi_shift_ev: float,
    temperature: float = ROOM_TEMPERATURE,
    n_k: int = 201,
) -> float:
    """Conducting channels of the doped tube (``G_doped / G0``)."""
    return (
        doped_conductance(chirality, fermi_shift_ev, temperature=temperature, n_k=n_k)
        / QUANTUM_CONDUCTANCE
    )


def fermi_shift_for_target_conductance(
    chirality: Chirality,
    target_conductance_s: float,
    p_type: bool = True,
    temperature: float = ROOM_TEMPERATURE,
    max_shift_ev: float = 2.0,
    n_k: int = 201,
    tolerance_s: float = 1.0e-7,
) -> float:
    """Fermi shift (eV) needed to reach a target ballistic conductance.

    Because the channel count is a staircase in energy, the returned shift is
    the smallest-magnitude shift whose thermally-broadened conductance is
    within ``tolerance_s`` of the target or exceeds it.

    Parameters
    ----------
    chirality:
        Tube chirality.
    target_conductance_s:
        Target conductance in siemens (e.g. ``0.387e-3`` for the paper's doped
        SWCNT(7,7)).
    p_type:
        Search downward shifts (True, default) or upward shifts.
    temperature:
        Temperature in kelvin.
    max_shift_ev:
        Maximum shift magnitude explored.
    n_k:
        k-point count for the band structure.
    tolerance_s:
        Acceptable conductance shortfall in siemens.

    Raises
    ------
    ValueError
        If the target cannot be reached within ``max_shift_ev``.
    """
    bands = compute_band_structure(chirality, n_k=n_k)
    sign = -1.0 if p_type else 1.0

    def conductance_at(shift_magnitude: float) -> float:
        return ballistic_conductance(
            bands, temperature=temperature, fermi_level_ev=sign * shift_magnitude
        )

    if conductance_at(0.0) >= target_conductance_s - tolerance_s:
        return 0.0

    n_samples = 201
    magnitudes = np.linspace(0.0, max_shift_ev, n_samples)
    previous = 0.0
    for magnitude in magnitudes[1:]:
        g = conductance_at(magnitude)
        if g >= target_conductance_s - tolerance_s:
            # Refine inside the bracketing interval for a tight estimate.
            from scipy.optimize import brentq

            try:
                root = brentq(
                    lambda s: conductance_at(s) - (target_conductance_s - tolerance_s),
                    previous,
                    magnitude,
                    xtol=1.0e-4,
                )
            except ValueError:
                root = magnitude
            return sign * float(root)
        previous = magnitude

    raise ValueError(
        f"target conductance {target_conductance_s:.3e} S not reachable within "
        f"a {max_shift_ev} eV Fermi shift for tube {chirality}"
    )


def iodine_doped_swcnt77() -> DopedTube:
    """The paper's reference system: iodine-doped SWCNT(7,7), -0.6 eV shift."""
    return DopedTube(Chirality(7, 7), IODINE_FERMI_SHIFT_EV, dopant="iodine")
